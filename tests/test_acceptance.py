"""Acceptance gate: the ten release criteria, each printed pass/fail.

Criteria 4-6 share one set of 5-fold ablation runs (module-scoped fixture);
the full module takes about 23 s on a 2-core host, 19 s of it setting up
those runs.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from gatedfusion import tensor as T
from gatedfusion.analysis import (
    collect_traces,
    gate_diagnostic_alignment,
    gate_energy_correlation,
    kfold,
    make_folds,
    metrics,
    pearson,
)
from gatedfusion.cli import main as cli_main
from gatedfusion.corpus_io import MANIFEST_NAME, read_corpus, write_corpus
from gatedfusion.diagnostics import full_model_gradcheck
from gatedfusion.errors import CorpusFormatError
from gatedfusion.gating import GatingMode
from gatedfusion.model import FusionModel, ModelConfig
from gatedfusion.sequence import pad_batch
from gatedfusion.synth import SynthSpec, bayes_oracle_accuracy, generate
from gatedfusion.trainer import TrainConfig
from padding import pad_extra

# Frozen evaluation protocol for criteria 4-6: the pinned corpus parameters
# (400 samples, 3 classes, sparsity 0.15, gain 2.0, sigma 1.0, coupling 1.0)
# with this package's default length ranges, and one fixed model/train config.
ABLATION_SPEC = SynthSpec(
    n_samples=400, n_classes=3, sparsity=0.15, signal_gain=2.0,
    noise_sigma=1.0, energy_coupling=1.0, seed=0,
)
ABLATION_MODEL = dict(d_a=ABLATION_SPEC.d_a, d_t=ABLATION_SPEC.d_t, d_model=8,
                      n_heads=2, n_layers=1, ff_mult=2, n_classes=3,
                      dropout_rate=0.1, seed=0)
ABLATION_TRAIN = TrainConfig(learning_rate=1e-3, epochs=30, batch_size=16, seed=0)


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"\n[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")


@pytest.fixture(scope="module")
def ablation():
    """One 5-fold run per gating mode on the frozen protocol."""
    corpus = generate(ABLATION_SPEC)
    t0 = time.time()
    runs = {}
    for mode in GatingMode:
        mc = ModelConfig(gating_mode=mode, **ABLATION_MODEL)
        runs[mode] = kfold(corpus, 5, ABLATION_TRAIN, mc)
    return corpus, runs, time.time() - t0


class TestCriterion1Gradcheck:
    def test_all_modes_within_tolerance(self):
        t0 = time.time()
        worsts = {}
        for mode in GatingMode:
            rep = full_model_gradcheck(mode, tol=1e-4)
            worsts[mode.value] = rep.worst
            assert rep.passed, f"mode {mode.value}:\n{rep}"
        elapsed = time.time() - t0
        detail = (", ".join(f"{m} worst {w:.2e}" for m, w in worsts.items())
                  + f"; {elapsed:.0f}s")
        report("1 full-model gradcheck <= 1e-4", True, detail)
        assert elapsed < 120


class TestCriterion2GatingOracle:
    def test_100_random_instances(self):
        """The gates `FusionModel.forward` computes, in both gating modes, against the scalar loop.

        Input projections are the identity, so the gates see the raw sequences.
        """
        worst = 0.0
        for seed in range(100):
            rng = np.random.default_rng([29, seed])
            d = int(rng.integers(2, 9))
            model = FusionModel(ModelConfig(d_a=d, d_t=d, d_model=d, n_heads=1, n_layers=1,
                                            ff_mult=1, n_classes=2, dropout_rate=0.0))
            params = {key: model.slots[f"gate.{key}"] for key in ("w_a", "w_t", "b_a", "b_t")}
            for p in params.values():
                p.data[...] = rng.normal(size=p.data.shape)
            seq_a = rng.normal(size=(int(rng.integers(1, 14)), d))
            seq_t = rng.normal(size=(int(rng.integers(1, 14)), d))
            for w, b in (("proj_a.w", "proj_a.b"), ("proj_t.w", "proj_t.b")):
                model.slots[w].data[...] = np.eye(d)
                model.slots[b].data[...] = 0.0
            for mode, ctx_a, ctx_t in ((GatingMode.CROSS_MODAL, seq_t, seq_a),
                                       (GatingMode.UNIMODAL, seq_a, seq_t)):
                model.cfg.gating_mode = mode
                result = model.forward(pad_batch([seq_a]), pad_batch([seq_t]))
                for gates, seq, ctx, w, b in (
                    (result.gates_a[0], seq_a, ctx_a, params["w_a"], params["b_a"]),
                    (result.gates_t[0], seq_t, ctx_t, params["w_t"], params["b_t"]),
                ):
                    expected = _scalar_loop(seq, ctx, w.data, b.data[0, 0])
                    worst = max(worst, float(np.abs(gates - expected).max()))
        report("2 model gates vs scalar-loop oracle (100x)", worst < 1e-12,
               f"worst abs deviation {worst:.2e} (tol 1e-12)")
        assert worst < 1e-12


def _scalar_loop(seq, ctx_seq, w, b):
    n, d = ctx_seq.shape
    ctx = [sum(ctx_seq[i][j] for i in range(n)) / n for j in range(d)]
    out = []
    for i in range(len(seq)):
        concat = list(seq[i]) + ctx
        z = sum(w[k, 0] * concat[k] for k in range(2 * d)) + b
        out.append(1.0 / (1.0 + math.exp(-z)))
    return np.array(out).reshape(-1, 1)


class TestCriterion3PaddingInvariance:
    def test_50_random_cases(self):
        cfg = ModelConfig(d_a=6, d_t=5, d_model=8, n_heads=2, n_layers=1, ff_mult=2,
                          n_classes=3, dropout_rate=0.0, seed=2)
        worst = 0.0
        for seed in range(50):
            rng = np.random.default_rng([31, seed])
            model = FusionModel(cfg)
            for p in model.parameters():
                p.data += 0.1 * rng.normal(size=p.data.shape)
            mode = list(GatingMode)[seed % 3]
            model.cfg.gating_mode = mode
            a = rng.normal(size=(int(rng.integers(1, 10)), 6))
            t = rng.normal(size=(int(rng.integers(1, 10)), 5))
            pad_a, pad_t = int(rng.integers(1, 33)), int(rng.integers(1, 33))
            base = model.forward(pad_batch([a]), pad_batch([t])).logits.data[0]
            padded = model.forward(pad_extra(pad_batch([a]), pad_a),
                                   pad_extra(pad_batch([t]), pad_t)).logits.data[0]
            worst = max(worst, float(np.abs(padded - base).max()))
        report("3 padding invariance up to 32 frames (50x)", worst < 1e-10,
               f"worst logit deviation {worst:.2e} (tol 1e-10)")
        assert worst < 1e-10


class TestCriterion4AblationOrdering:
    def test_ordering_gap_ceiling_runtime(self, ablation):
        corpus, runs, elapsed = ablation
        acc = {m: runs[m].mean_accuracy for m in GatingMode}
        oracle = bayes_oracle_accuracy(ABLATION_SPEC, n_eval=400)
        ceiling = max(oracle.revealed, oracle.marginalized)
        gap = acc[GatingMode.CROSS_MODAL] - acc[GatingMode.NONE]
        ordered = (acc[GatingMode.CROSS_MODAL] >= acc[GatingMode.UNIMODAL]
                   >= acc[GatingMode.NONE])
        below = all(a < ceiling for a in acc.values())
        ok = ordered and gap >= 0.03 and below and elapsed < 1800
        report(
            "4 ablation ordering (5-fold)", ok,
            f"none {acc[GatingMode.NONE]:.4f}, unimodal {acc[GatingMode.UNIMODAL]:.4f}, "
            f"cross_modal {acc[GatingMode.CROSS_MODAL]:.4f}; gap {gap * 100:.2f} pts "
            f"(need >= 3); oracle ceiling {ceiling:.4f}; {elapsed:.0f}s (< 1800)",
        )
        assert ordered, f"accuracy ordering violated: {acc}"
        assert gap >= 0.03
        assert below
        assert elapsed < 1800


class TestCriterion5GateEnergyCorrelation:
    def test_negative_overall_r(self, ablation):
        _, runs, _ = ablation
        corr = gate_energy_correlation(runs[GatingMode.CROSS_MODAL].traces)
        ok = corr.overall is not None and corr.overall < -0.1
        report("5 gate-energy Pearson r < -0.1", ok,
               f"overall r {corr.overall:.4f}; per-class "
               + ", ".join(f"{c}: {v:.3f}" for c, v in sorted(corr.per_class.items())))
        assert ok


class TestCriterion6GateDiagnosticAlignment:
    def test_trained_above_065_untrained_near_chance(self, ablation):
        corpus, runs, _ = ablation
        trained = gate_diagnostic_alignment(runs[GatingMode.CROSS_MODAL].traces)
        trained_ok = trained.auroc_a > 0.65 and trained.auroc_t > 0.65

        untrained_model = FusionModel(
            ModelConfig(gating_mode=GatingMode.CROSS_MODAL, **ABLATION_MODEL))
        held_out = [corpus.samples[i] for i in make_folds(corpus, 5, ABLATION_TRAIN.seed)[0]]
        untrained = gate_diagnostic_alignment(collect_traces(untrained_model, held_out))
        untrained_ok = (abs(untrained.auroc_a - 0.5) <= 0.05
                        and abs(untrained.auroc_t - 0.5) <= 0.05)
        report("6 gate-diagnostic AUROC", trained_ok and untrained_ok,
               f"trained a {trained.auroc_a:.4f} t {trained.auroc_t:.4f} (need > 0.65); "
               f"untrained a {untrained.auroc_a:.4f} t {untrained.auroc_t:.4f} (0.5 +/- 0.05)")
        assert trained_ok
        assert untrained_ok


class TestCriterion7NullSignalControl:
    def test_accuracy_at_chance_with_zero_gain(self):
        spec = SynthSpec(**{**ABLATION_SPEC.to_dict(), "signal_gain": 0.0})
        corpus = generate(spec)
        mc = ModelConfig(gating_mode=GatingMode.CROSS_MODAL, **ABLATION_MODEL)
        tc = TrainConfig(learning_rate=1e-3, epochs=8, batch_size=16, seed=0)
        rep = kfold(corpus, 5, tc, mc)
        chance = 1.0 / spec.n_classes
        ok = abs(rep.mean_accuracy - chance) <= 0.07
        report("7 null-signal control", ok,
               f"held-out accuracy {rep.mean_accuracy:.4f} vs chance {chance:.4f} (+/- 0.07)")
        assert ok


class TestCriterion8MetricsOracle:
    def test_1000_randomized_cases(self):
        worst_metric = 0.0
        for seed in range(1000):
            rng = np.random.default_rng([37, seed])
            n_classes = int(rng.integers(2, 7))
            n = int(rng.integers(1, 60))
            preds = rng.integers(0, n_classes, n)
            labels = rng.integers(0, n_classes, n)
            m = metrics(preds, labels, n_classes)
            acc, prec, rec, f1 = _brute_force_metrics(preds, labels, n_classes)
            worst_metric = max(
                worst_metric,
                abs(m.accuracy - acc), abs(m.macro_precision - prec),
                abs(m.macro_recall - rec), abs(m.macro_f1 - f1),
            )
        worst_r = 0.0
        for seed in range(1000):
            rng = np.random.default_rng([41, seed])
            n = int(rng.integers(2, 60))
            x, y = rng.normal(size=n), rng.normal(size=n)
            xm, ym = x - x.mean(), y - y.mean()
            expected = (xm * ym).sum() / np.sqrt((xm * xm).sum() * (ym * ym).sum())
            worst_r = max(worst_r, abs(pearson(x, y) - expected))
        ok = worst_metric == 0.0 and worst_r < 1e-12
        report("8 metrics oracle (1000x)", ok,
               f"worst metric deviation {worst_metric:.2e} (exact); "
               f"worst pearson deviation {worst_r:.2e} (tol 1e-12)")
        assert ok


def _brute_force_metrics(preds, labels, n_classes):
    acc = sum(int(p == l) for p, l in zip(preds, labels)) / len(preds)
    precs, recs, f1s = [], [], []
    for c in range(n_classes):
        tp = sum(1 for p, l in zip(preds, labels) if p == c and l == c)
        fp = sum(1 for p, l in zip(preds, labels) if p == c and l != c)
        fn = sum(1 for p, l in zip(preds, labels) if p != c and l == c)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1s.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
        precs.append(prec)
        recs.append(rec)
    return acc, sum(precs) / n_classes, sum(recs) / n_classes, sum(f1s) / n_classes


class TestCriterion9Reproducibility:
    def test_cli_reruns_byte_identical(self, tmp_path):
        spec = {"n_samples": 24, "n_classes": 3, "d_a": 6, "d_t": 6,
                "len_range_a": [6, 10], "len_range_t": [5, 9], "sparsity": 0.25,
                "seed": 11}
        config = {"model": {"d_model": 8, "n_heads": 2, "n_layers": 1, "ff_mult": 2,
                            "seed": 1},
                  "train": {"learning_rate": 1e-3, "epochs": 2, "batch_size": 8,
                            "seed": 1}}
        spec_path = tmp_path / "spec.json"
        cfg_path = tmp_path / "cfg.json"
        spec_path.write_text(json.dumps(spec))
        cfg_path.write_text(json.dumps(config))
        digests = []
        for run in ("r1", "r2"):
            root = tmp_path / run
            assert cli_main(["generate", "--spec", str(spec_path),
                             "--out", str(root / "corpus")]) == 0
            assert cli_main(["train", "--corpus", str(root / "corpus"),
                             "--config", str(cfg_path), "--out", str(root / "train")]) == 0
            assert cli_main(["evaluate", "--corpus", str(root / "corpus"),
                             "--checkpoint", str(root / "train" / "checkpoint.gfck"),
                             "--out", str(root / "eval")]) == 0
            assert cli_main(["analyze-gating", "--corpus", str(root / "corpus"),
                             "--checkpoint", str(root / "train" / "checkpoint.gfck"),
                             "--out", str(root / "gates"), "--samples", "3"]) == 0
            run_digest = {}
            for sub in ("corpus", "train", "eval", "gates"):
                for fname in sorted(os.listdir(root / sub)):
                    run_digest[f"{sub}/{fname}"] = (root / sub / fname).read_bytes()
            digests.append(run_digest)
        same_files = sorted(digests[0]) == sorted(digests[1])
        identical = same_files and all(digests[0][k] == digests[1][k] for k in digests[0])
        report("9 CLI reproducibility", identical,
               f"{len(digests[0])} report files byte-identical across reruns")
        assert identical


class TestCriterion10CorpusIO:
    def test_100_round_trips(self, tmp_path):
        worst = 0.0
        for seed in range(100):
            rng = np.random.default_rng([43, seed])
            spec = SynthSpec(
                n_samples=int(rng.integers(2, 10)),
                n_classes=int(rng.integers(2, 5)),
                d_a=int(rng.integers(5, 10)), d_t=int(rng.integers(5, 10)),
                len_range_a=(5, int(rng.integers(6, 15))),
                len_range_t=(5, int(rng.integers(6, 15))),
                sparsity=float(rng.uniform(0.2, 0.9)),
                energy_coupling=float(rng.uniform(0, 1)),
                contiguous_runs=bool(rng.integers(0, 2)),
                seed=seed,
            )
            corpus = generate(spec)
            path = str(tmp_path / f"c{seed}")
            write_corpus(corpus, path)
            back = read_corpus(path)
            for orig, rec in zip(corpus.samples, back.samples):
                assert orig.label == rec.label
                worst = max(
                    worst,
                    float(np.abs(rec.acoustic - orig.acoustic.astype("<f4")).max()),
                    float(np.abs(rec.textual - orig.textual.astype("<f4")).max()),
                )
                np.testing.assert_array_equal(rec.diagnostic_flags_a, orig.diagnostic_flags_a)
                np.testing.assert_array_equal(rec.negative_token_flags,
                                              orig.negative_token_flags)
        report("10a corpus round trip (100x)", worst == 0.0,
               f"worst float32 round-trip deviation {worst:.2e} (exact)")
        assert worst == 0.0

    def test_1000_manifest_mutations_raise_typed_errors(self, tmp_path):
        corpus = generate(SynthSpec(n_samples=5, n_classes=2, d_a=5, d_t=5,
                                    len_range_a=(4, 8), len_range_t=(4, 8),
                                    sparsity=0.3, seed=3))
        path = str(tmp_path / "fuzz")
        write_corpus(corpus, path)
        manifest_path = os.path.join(path, MANIFEST_NAME)
        with open(manifest_path) as f:
            pristine = f.read()
        junk = [None, True, False, -1, 0, 1, 3.5, "x", [], {}, [1], 10**15, -(10**15),
                "offset", 2.0, float("inf")]
        rng = np.random.default_rng(47)
        typed, clean, other = 0, 0, 0
        for trial in range(1200):
            manifest = json.loads(pristine)
            edits = int(rng.integers(1, 4))
            for _ in range(edits):
                target = manifest
                records = manifest.get("samples")
                if rng.random() >= 0.3 and isinstance(records, list) and records:
                    cand = records[int(rng.integers(len(records)))]
                    if isinstance(cand, dict) and cand:  # prior edit may have junked it
                        target = cand
                keys = list(target.keys())
                key = keys[int(rng.integers(len(keys)))]
                roll = rng.random()
                if roll < 0.2:
                    del target[key]
                elif roll < 0.4 and isinstance(target[key], int):
                    target[key] = int(target[key] + rng.integers(-10**6, 10**6))
                else:
                    target[key] = junk[int(rng.integers(len(junk)))]
            with open(manifest_path, "w") as f:
                try:
                    json.dump(manifest, f)
                except ValueError:
                    f.write(pristine)  # inf not serializable; skip this mutation
                    continue
            try:
                read_corpus(path)
                clean += 1
            except CorpusFormatError:
                typed += 1
            except Exception:
                other += 1
        ok = other == 0 and typed >= 1000
        report("10b manifest mutation fuzzing", ok,
               f"{typed} typed errors, {clean} benign mutations, {other} untyped "
               f"failures over 1200 trials (need >= 1000 typed, 0 untyped)")
        assert other == 0
        assert typed >= 1000
