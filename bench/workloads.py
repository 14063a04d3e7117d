"""The benchmark's workloads, driven through the package's public API.

Each workload derives its corpus, model and train seeds from the run's seed,
so the package sees only generated inputs. `setup()` builds those inputs
before timing starts. `iterate()` runs one fixed unit of work and returns a
signature of its numeric results; every iteration of a run must reproduce
the first one's signature bit for bit. `verify()` runs after timing and
checks results against an independent reference.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from gatedfusion import analysis, checkpoint, cli, corpus_io, diagnostics, synth, trainer
from gatedfusion.gating import GatingMode
from gatedfusion.model import FusionModel, ModelConfig

# The release gate's frozen ablation protocol (tests/test_acceptance.py):
# corpus parameters with the package's default lengths 7-14, model and optimizer.
ABLATION_SPEC = dict(n_samples=400, n_classes=3, sparsity=0.15, signal_gain=2.0,
                     noise_sigma=1.0, energy_coupling=1.0)
ABLATION_MODEL = dict(d_model=8, n_heads=2, n_layers=1, ff_mult=2, n_classes=3,
                      dropout_rate=0.1)
ABLATION_TRAIN = dict(learning_rate=1e-3, batch_size=16, optimizer="adam")

# README's model; lengths spread 8-64 so padding to a batch maximum would waste rows
WIDE_SPEC = dict(n_samples=160, len_range_a=(8, 64), len_range_t=(8, 64))
WIDE_MODEL = dict(d_model=32, n_heads=4, n_layers=2, ff_mult=4, n_classes=3,
                  gating_mode=GatingMode.CROSS_MODAL)

REFERENCE_PATH = Path(__file__).with_name("reference.json")
# Reordering the float sums in a backward pass moved the reference losses by
# at most 2e-16 relative; a wrong layernorm gradient term moved them by 3e-5
# or more, and a 1% error in the sigmoid gradient by 1.7e-9 or more.
REFERENCE_RTOL = 1e-9


def derive_seeds(seed: int) -> tuple[int, int, int]:
    """Corpus, model and train seeds for one run seed."""
    corpus, model, train = np.random.SeedSequence(seed).generate_state(3)
    return int(corpus), int(model), int(train)


@dataclass
class Stats:
    """Operations attempted and failed, plus the timings the metrics read."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    step_s: list[float] = field(default_factory=list)
    # kind ("train", "eval", "gradcheck", "forward") -> [samples or calls, seconds]
    work: dict[str, list[float]] = field(default_factory=dict)

    def fail(self, n: int, why: str) -> None:
        self.failed += n
        self.problems.append(why)

    def add_work(self, kind: str, samples: int, seconds: float) -> None:
        acc = self.work.setdefault(kind, [0, 0.0])
        acc[0] += samples
        acc[1] += seconds

    def reset_timings(self) -> None:
        self.step_s.clear()
        self.work.clear()


class StepClock:
    """Optimizer wrapper passed through `train(optimizer=...)`.

    Each step is timed from the end of the previous one (the first from
    `last`, set just before `train` starts), so it covers the batch's forward
    and backward passes and the update.
    """

    def __init__(self, inner, times: list[float]):
        self.inner = inner
        self.times = times
        self.steps = 0
        self.last = perf_counter()

    def step(self) -> None:
        self.inner.step()
        now = perf_counter()
        self.times.append(now - self.last)
        self.last = now
        self.steps += 1

    def __getattr__(self, name):
        return getattr(self.inner, name)


def train_fresh(model_cfg: ModelConfig, pairs, train_cfg: trainer.TrainConfig,
                stats: Stats) -> tuple[FusionModel, float]:
    """Train a freshly initialised model; one operation per optimizer step."""
    model = FusionModel(model_cfg)
    expected = train_cfg.epochs * math.ceil(len(pairs) / train_cfg.batch_size)
    stats.attempted += expected
    clock = StepClock(trainer.make_optimizer(model, train_cfg), stats.step_s)
    t0 = clock.last = perf_counter()
    try:
        loss = trainer.train(model, pairs, train_cfg, optimizer=clock).final_train_loss
    except Exception:
        stats.fail(expected - clock.steps, traceback.format_exc())
        return model, math.nan
    stats.add_work("train", train_cfg.epochs * len(pairs), perf_counter() - t0)
    if not math.isfinite(loss):
        stats.fail(expected, f"non-finite final train loss {loss!r}")
    return model, loss


def evaluate(model: FusionModel, pairs, stats: Stats) -> tuple[float, list[int]]:
    """`trainer.evaluate`; one operation per evaluated sample."""
    stats.attempted += len(pairs)
    t0 = perf_counter()
    try:
        loss, _, preds = trainer.evaluate(model, pairs)
    except Exception:
        stats.fail(len(pairs), traceback.format_exc())
        return math.nan, []
    stats.add_work("eval", len(pairs), perf_counter() - t0)
    if not math.isfinite(loss):
        stats.fail(len(pairs), f"non-finite eval loss {loss!r}")
    return loss, preds


def reference_values(name: str) -> dict[str, float]:
    """Values a workload's `verify` compares with reference.json."""
    corpus_seed, model_seed, train_seed = derive_seeds(0)
    stats = Stats()
    if name == "ablation_train":
        corpus = synth.generate(synth.SynthSpec(seed=corpus_seed, **{**ABLATION_SPEC, "n_samples": 64}))
        pairs = [synth.model_inputs(s) for s in corpus.samples]
        cfg = trainer.TrainConfig(epochs=2, seed=train_seed, **ABLATION_TRAIN)
        out = {}
        for mode in GatingMode:
            mc = ModelConfig(d_a=corpus.d_a, d_t=corpus.d_t, gating_mode=mode, seed=model_seed,
                             **ABLATION_MODEL)
            out[f"final_train_loss.{mode.value}"] = train_fresh(mc, pairs, cfg, stats)[1]
    elif name == "wide_train":
        corpus = synth.generate(synth.SynthSpec(seed=corpus_seed, **{**WIDE_SPEC, "n_samples": 32}))
        pairs = [synth.model_inputs(s) for s in corpus.samples]
        cfg = trainer.TrainConfig(epochs=2, batch_size=16, seed=train_seed)
        mc = ModelConfig(d_a=corpus.d_a, d_t=corpus.d_t, seed=model_seed, **WIDE_MODEL)
        out = {"final_train_loss": train_fresh(mc, pairs, cfg, stats)[1]}
    elif name == "cli_pipeline":
        model, batch = gradcheck_probe()
        out = {f"probe_loss.{i}": model.loss(a, t, label)[0].item()
               for i, (a, t, label) in enumerate(batch)}
    else:
        raise KeyError(name)
    if stats.failed:
        raise RuntimeError("\n".join(stats.problems))
    return out


def check_reference(name: str) -> list[tuple[str, bool, str]]:
    expected = json.loads(REFERENCE_PATH.read_text())[name]
    got = reference_values(name)
    return [(f"reference {key}", math.isclose(got[key], want, rel_tol=REFERENCE_RTOL, abs_tol=0.0),
             f"got {got[key]!r}, reference {want!r}") for key, want in expected.items()]


class Workload:
    name = ""
    # which Stats.work kind the samples_per_s metric reads
    rate = ""

    def setup(self, seed: int, workdir: Path) -> None:
        raise NotImplementedError

    def warmup(self, stats: Stats):
        """Run before timing; returns the reference signature, or None."""
        return self.iterate(stats)

    def iterate(self, stats: Stats) -> tuple:
        raise NotImplementedError

    def verify(self) -> list[tuple[str, bool, str]]:
        return check_reference(self.name)


class AblationTrain(Workload):
    """One fold of the release gate's ablation: each gating mode trains one
    epoch from fresh weights on folds 1-4, then is evaluated on fold 0."""

    name = "ablation_train"
    rate = "train"

    def setup(self, seed, workdir):
        corpus_seed, model_seed, train_seed = derive_seeds(seed)
        corpus = synth.generate(synth.SynthSpec(seed=corpus_seed, **ABLATION_SPEC))
        held_out = analysis.make_folds(corpus, 5, train_seed)[0]
        held = set(held_out.tolist())
        self.train_pairs = [synth.model_inputs(s) for i, s in enumerate(corpus.samples) if i not in held]
        self.eval_pairs = [synth.model_inputs(corpus.samples[i]) for i in held_out]
        self.eval_labels = [label for _, _, label in self.eval_pairs]
        self.train_cfg = trainer.TrainConfig(epochs=1, seed=train_seed, **ABLATION_TRAIN)
        self.model_cfgs = [ModelConfig(d_a=corpus.d_a, d_t=corpus.d_t, gating_mode=mode,
                                       seed=model_seed, **ABLATION_MODEL) for mode in GatingMode]

    def iterate(self, stats):
        sig = []
        for cfg in self.model_cfgs:
            model, train_loss = train_fresh(cfg, self.train_pairs, self.train_cfg, stats)
            eval_loss, preds = evaluate(model, self.eval_pairs, stats)
            acc = analysis.metrics(preds, self.eval_labels, cfg.n_classes).accuracy if preds else math.nan
            sig += [train_loss, eval_loss, acc]
        return tuple(sig)


class WideTrain(Workload):
    """One epoch of the README model from fresh weights on widely spread lengths."""

    name = "wide_train"
    rate = "train"

    def setup(self, seed, workdir):
        corpus_seed, model_seed, train_seed = derive_seeds(seed)
        corpus = synth.generate(synth.SynthSpec(seed=corpus_seed, **WIDE_SPEC))
        self.pairs = [synth.model_inputs(s) for s in corpus.samples]
        self.train_cfg = trainer.TrainConfig(epochs=1, batch_size=16, seed=train_seed)
        self.model_cfg = ModelConfig(d_a=corpus.d_a, d_t=corpus.d_t, seed=model_seed, **WIDE_MODEL)

    def iterate(self, stats):
        return (train_fresh(self.model_cfg, self.pairs, self.train_cfg, stats)[1],)


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.iterdir()):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


class CliPipeline(Workload):
    """What a user runs besides training, through `gatedfusion.cli.main`:
    `generate --oracle` of a corpus three times the ablation size,
    `evaluate --checkpoint`, `analyze-gating`, and `gradcheck` (release gate
    Criterion 1) on the cross-modal tiny model."""

    name = "cli_pipeline"
    rate = "forward"
    N_SAMPLES = 1200
    N_ORACLE = 400
    N_TRACES = 4
    CHECKPOINT_TRAIN_SAMPLES = 160
    GRADCHECK_MODE = GatingMode.CROSS_MODAL

    def setup(self, seed, workdir):
        corpus_seed, model_seed, train_seed = derive_seeds(seed)
        self.dirs = {sub: workdir / sub for sub in ("corpus", "eval", "gates")}
        spec = synth.SynthSpec(seed=corpus_seed, **{**ABLATION_SPEC, "n_samples": self.N_SAMPLES})
        self.spec_path = workdir / "spec.json"
        self.spec_path.write_text(json.dumps(spec.to_dict()))
        # the checkpoint: the ablation model, cross-modal gating, one epoch on its own corpus
        train_spec = synth.SynthSpec(seed=train_seed, **{**ABLATION_SPEC,
                                                         "n_samples": self.CHECKPOINT_TRAIN_SAMPLES})
        pairs = [synth.model_inputs(s) for s in synth.generate(train_spec).samples]
        self.model = FusionModel(ModelConfig(d_a=spec.d_a, d_t=spec.d_t, seed=model_seed,
                                             gating_mode=GatingMode.CROSS_MODAL, **ABLATION_MODEL))
        trainer.train(self.model, pairs, trainer.TrainConfig(epochs=1, seed=train_seed, **ABLATION_TRAIN))
        self.checkpoint = workdir / "model.gfck"
        checkpoint.save_model(self.model, self.checkpoint)
        # the gate fixes the gradcheck's model and probe batch; the seed changes neither
        probe_model, batch = gradcheck_probe()
        # central differences: one analytic pass plus two loss evaluations per scalar
        loss_evals = 1 + 2 * sum(p.data.size for p in probe_model.parameters())
        self.forwards = 2 * self.N_SAMPLES + len(batch) * loss_evals

    def commands(self) -> list[tuple[str | None, list[str]]]:
        d, ck = self.dirs, str(self.checkpoint)
        return [
            ("corpus", ["generate", "--spec", str(self.spec_path), "--out", str(d["corpus"]),
                        "--oracle", str(self.N_ORACLE)]),
            ("eval", ["evaluate", "--corpus", str(d["corpus"]), "--checkpoint", ck,
                      "--out", str(d["eval"])]),
            ("gates", ["analyze-gating", "--corpus", str(d["corpus"]), "--checkpoint", ck,
                       "--out", str(d["gates"]), "--samples", str(self.N_TRACES)]),
            (None, ["gradcheck", "--mode", self.GRADCHECK_MODE.value]),
        ]

    def iterate(self, stats):
        start = perf_counter()
        for path in self.dirs.values():
            shutil.rmtree(path, ignore_errors=True)
        sig = []
        for sub, argv in self.commands():
            stats.attempted += 1
            out = io.StringIO()
            t0 = perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                    rc = cli.main(argv)
            except Exception:
                rc = traceback.format_exc()
            seconds = perf_counter() - t0
            text = out.getvalue()
            if argv[0] == "gradcheck":
                # one operation per parameter entry, each printed as PASS or FAIL
                entries = [line for line in text.splitlines() if line.startswith(("PASS ", "FAIL "))]
                stats.attempted += len(entries)
                bad = [line for line in entries if line.startswith("FAIL ")]
                if bad:
                    stats.fail(len(bad), "gradcheck entries over tolerance:\n" + "\n".join(bad))
            if rc != 0:
                stats.fail(1, f"{argv[0]} failed: {rc}\n{text}")
                sig.append(None)
                continue
            if argv[0] == "evaluate":
                stats.add_work("eval", self.N_SAMPLES, seconds)
            elif argv[0] == "gradcheck":
                stats.add_work("gradcheck", 1, seconds)
            sig.append((text, _digest(self.dirs[sub]) if sub else None))
        stats.add_work("forward", self.forwards, perf_counter() - start)
        return tuple(sig)

    def verify(self):
        """The CLI's evaluate report must match the in-memory model on the corpus
        read back; the gradcheck's probe losses must match reference.json."""
        corpus = corpus_io.read_corpus(str(self.dirs["corpus"]))
        _, _, preds = trainer.evaluate(self.model, [synth.model_inputs(s) for s in corpus.samples])
        want = analysis.metrics(preds, corpus.labels(), corpus.n_classes).confusion.tolist()
        report = json.loads((self.dirs["eval"] / "report.json").read_text())
        return [("evaluate report matches in-memory model", report["confusion"] == want,
                 f"report {report['confusion']}, in-memory {want}")] + check_reference(self.name)


def gradcheck_probe():
    """The model and 2-sample batch `full_model_gradcheck` builds for cross-modal gating."""
    cfg = diagnostics.tiny_config(CliPipeline.GRADCHECK_MODE)
    return FusionModel(cfg), diagnostics.probe_batch(cfg)


WORKLOADS = {w.name: w for w in (AblationTrain, CliPipeline, WideTrain)}
