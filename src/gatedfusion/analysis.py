"""Evaluation metrics, k-fold protocol, and gate-behavior studies.

`run_fold` is the fold unit: one trained model, and one inference walk of its
held-out fold for both predictions and gate traces. `kfold` loops over it.

Gate studies quantify the selective-attention claim: Pearson correlation of
acoustic gate values against the per-frame energy side channel (expected
negative on energy-coupled corpora), and AUROC of gate values as a detector
of the planted diagnostic frames. They read a `GateTrace`: one sample's gates
beside the `Sample` itself, whose side channels the trace checks against its
gate counts on construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError
from .gating import GatingMode
from .model import FusionModel, ModelConfig
from .synth import SIDE_CHANNELS, Corpus, Sample, model_inputs
from .trainer import TrainConfig, eval_forwards, train


@dataclass
class MetricsResult:
    accuracy: float
    macro_f1: float
    macro_precision: float
    macro_recall: float
    per_class: list[dict]
    confusion: np.ndarray
    warnings: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "macro_f1": self.macro_f1,
            "macro_precision": self.macro_precision,
            "macro_recall": self.macro_recall,
            "per_class": self.per_class,
            "confusion": self.confusion.tolist(),
            "warnings": self.warnings,
        }


def metrics(predictions, labels, n_classes: int | None = None) -> MetricsResult:
    """Accuracy plus unweighted class-mean precision/recall/F1.

    A class never predicted gets precision 0 (with a warning); a class absent
    from the labels gets recall 0 likewise.
    """
    preds = np.asarray(predictions, dtype=np.int64)
    labs = np.asarray(labels, dtype=np.int64)
    if preds.shape != labs.shape or preds.ndim != 1 or preds.size == 0:
        raise ConfigError("predictions and labels must be equal-length non-empty 1-D vectors")
    if n_classes is None:
        n_classes = int(max(preds.max(), labs.max())) + 1
    for name, values in (("prediction", preds), ("label", labs)):
        if values.min() < 0 or values.max() >= n_classes:
            raise ConfigError(f"{name}s must lie in [0, {n_classes}), got {values.min()}..{values.max()}")
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    for p, l in zip(preds, labs):
        confusion[l, p] += 1

    warnings = []
    per_class = []
    for c in range(n_classes):
        tp = confusion[c, c]
        predicted = confusion[:, c].sum()
        actual = confusion[c, :].sum()
        if predicted == 0:
            warnings.append(f"class {c} never predicted; precision set to 0")
            precision = 0.0
        else:
            precision = tp / predicted
        if actual == 0:
            warnings.append(f"class {c} absent from labels; recall set to 0")
            recall = 0.0
        else:
            recall = tp / actual
        f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
        per_class.append({"class": c, "precision": precision, "recall": recall, "f1": f1,
                          "support": int(actual)})

    return MetricsResult(
        accuracy=float((preds == labs).mean()),
        macro_f1=float(np.mean([c["f1"] for c in per_class])),
        macro_precision=float(np.mean([c["precision"] for c in per_class])),
        macro_recall=float(np.mean([c["recall"] for c in per_class])),
        per_class=per_class,
        confusion=confusion,
        warnings=warnings,
    )


def pearson(x, y) -> float | None:
    """Pearson r; None when either vector has zero variance."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise ConfigError("pearson needs two equal-length 1-D vectors of size >= 2")
    if np.std(x) == 0.0 or np.std(y) == 0.0:
        return None
    return float(np.corrcoef(x, y)[0, 1])


@dataclass
class GateTrace:
    """Valid-position gate values for one sample. Each side channel the sample
    carries must hold one value per gate of its modality, else `ConfigError`."""

    sample: Sample
    gates_a: np.ndarray
    gates_t: np.ndarray

    def __post_init__(self):
        gates = {"acoustic": self.gates_a, "textual": self.gates_t}
        for name, (modality, _) in SIDE_CHANNELS.items():
            channel = getattr(self.sample, name)
            if channel is not None and len(channel) != len(gates[modality]):
                raise ConfigError(f"sample {self.sample.sample_id}: {len(channel)} {name} values "
                                  f"for {len(gates[modality])} {modality} gates")


def _held_out(model: FusionModel, samples: list[Sample]) -> tuple[list[int], list[GateTrace] | None]:
    """Each sample's predicted class, and its valid-position gates (None without
    gating), from one `trainer.eval_forwards` walk."""
    gating = model.cfg.gating_mode is not GatingMode.NONE
    preds, traces = [], []
    for chunk, result in eval_forwards(model, [model_inputs(s) for s in samples]):
        preds.extend(np.argmax(result.logits.data[:, 0], axis=1).tolist())
        if gating:
            for i, (a, t, _) in enumerate(chunk):
                traces.append(GateTrace(samples[len(traces)], result.gates_a[i, : len(a), 0],
                                        result.gates_t[i, : len(t), 0]))
    return preds, traces if gating else None


def collect_traces(model: FusionModel, samples: list[Sample]) -> list[GateTrace]:
    """Each sample's valid-position gates; a model without gating is refused before any forward."""
    if model.cfg.gating_mode is GatingMode.NONE:
        raise ConfigError("model has gating disabled; no gate traces to collect")
    return _held_out(model, samples)[1]


@dataclass
class CorrelationReport:
    """Frame-pooled Pearson r of acoustic gates vs energy; None = undefined
    (fewer than 2 frames, or zero variance)."""

    overall: float | None
    per_class: dict[int, float | None]


def gate_energy_correlation(traces: list[GateTrace]) -> CorrelationReport:
    gates, energies, labels = [], [], []
    for tr in traces:
        if tr.sample.energy is None:
            continue
        gates.append(tr.gates_a)
        energies.append(tr.sample.energy)
        labels.append(np.full(len(tr.gates_a), tr.sample.label))
    if not gates:
        raise ConfigError("no traces carry an energy side channel")
    g = np.concatenate(gates)
    e = np.concatenate(energies)
    l = np.concatenate(labels)

    def r(x, y):
        return pearson(x, y) if x.size >= 2 else None

    per_class = {int(c): r(g[l == c], e[l == c]) for c in np.unique(l)}
    return CorrelationReport(r(g, e), per_class)


def auroc(scores, flags) -> float:
    """Rank-based AUROC of scores against binary flags: the Mann-Whitney rank
    sum of the positives over n_pos * n_neg, with tied scores given their
    group's mean rank."""
    scores = np.asarray(scores, dtype=np.float64)
    flags = np.asarray(flags, dtype=np.int64)
    if not np.all(np.isfinite(scores)):
        raise ConfigError("AUROC needs finite scores")
    n_pos = int(flags.sum())
    n_neg = len(flags) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ConfigError("AUROC needs both positive and negative flags")
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2)[inverse]
    return float((ranks[flags == 1].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


@dataclass
class AlignmentReport:
    """How well gates track the planted diagnostic positions, per modality; None
    where a side has no frames (at sparsity 1.0 every frame is diagnostic)."""

    mean_gate_diag_a: float | None
    mean_gate_other_a: float | None
    auroc_a: float | None
    mean_gate_diag_t: float | None
    mean_gate_other_t: float | None
    auroc_t: float | None

    def to_dict(self) -> dict:
        from dataclasses import asdict

        return asdict(self)


def gate_diagnostic_alignment(traces: list[GateTrace]) -> AlignmentReport:
    ga, fa, gt, ft = [], [], [], []
    for tr in traces:
        s = tr.sample
        if s.diagnostic_flags_a is None or s.diagnostic_flags_t is None:
            continue
        ga.append(tr.gates_a)
        fa.append(s.diagnostic_flags_a)
        gt.append(tr.gates_t)
        ft.append(s.diagnostic_flags_t)
    if not ga:
        raise ConfigError("no traces carry diagnostic flags")
    return AlignmentReport(*_alignment(np.concatenate(ga), np.concatenate(fa)),
                           *_alignment(np.concatenate(gt), np.concatenate(ft)))


def _alignment(gates: np.ndarray, flags: np.ndarray) -> tuple:
    """Mean gate on flagged frames, mean gate on the rest, and the gates' AUROC
    against the flags; None for each that a side without frames leaves undefined."""
    diag, other = gates[flags == 1], gates[flags == 0]
    return (float(diag.mean()) if diag.size else None,
            float(other.mean()) if other.size else None,
            auroc(gates, flags) if diag.size and other.size else None)


@dataclass
class FoldResult:
    fold: int
    metrics: MetricsResult
    traces: list[GateTrace] | None  # the held-out samples', in fold order; None without gating


@dataclass
class KFoldReport:
    folds: list[FoldResult]
    mean_accuracy: float
    std_accuracy: float
    mean_macro_f1: float
    traces: list[GateTrace] | None

    def to_dict(self) -> dict:
        return {
            "mean_accuracy": self.mean_accuracy,
            "std_accuracy": self.std_accuracy,
            "mean_macro_f1": self.mean_macro_f1,
            "folds": [{"fold": f.fold, **f.metrics.to_dict()} for f in self.folds],
        }


def make_folds(corpus: Corpus, k: int, seed: int) -> list[np.ndarray]:
    """Deterministic stratified fold index sets.

    Each class's samples are dealt round-robin in a seeded random order, so
    fold label mixes match the corpus (otherwise fold and training
    composition anti-correlate).
    """
    rng = np.random.default_rng([seed, 17])
    folds: list[list[int]] = [[] for _ in range(k)]
    counter = 0
    labels = corpus.labels()
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        for i in rng.permutation(len(idx)):
            folds[counter % k].append(int(idx[i]))
            counter += 1
    return [np.array(sorted(f)) for f in folds]


def check_folds(n_samples: int, k: int) -> None:
    """Refuse a fold count `kfold` cannot run on `n_samples` samples."""
    if k < 2:
        raise ConfigError(f"k must be >= 2, got {k}")
    if n_samples < 2 * k:
        raise ConfigError(f"corpus of {n_samples} samples too small for k={k} (need >= {2 * k})")


def run_fold(corpus: Corpus, folds: list[np.ndarray], f: int, train_cfg: TrainConfig,
             model_cfg: ModelConfig) -> FoldResult:
    """Train a fresh model, seeded by the configs' seeds + 1000·(f + 1), on every
    fold but `folds[f]` in corpus order, and score fold f in one held-out walk."""
    held = set(folds[f].tolist())
    fold_seed = 1000 * (f + 1)
    model = FusionModel(replace(model_cfg, seed=model_cfg.seed + fold_seed))
    train(model, [model_inputs(s) for i, s in enumerate(corpus.samples) if i not in held],
          replace(train_cfg, seed=train_cfg.seed + fold_seed))
    held_out = [corpus.samples[i] for i in folds[f]]
    preds, traces = _held_out(model, held_out)
    return FoldResult(f, metrics(preds, [s.label for s in held_out], corpus.n_classes), traces)


def kfold(
    corpus: Corpus,
    k: int,
    train_cfg: TrainConfig,
    model_cfg: ModelConfig,
) -> KFoldReport:
    """Train k models from scratch on complementary folds and aggregate.

    Gate traces of every held-out sample are collected when the model gates.
    """
    check_folds(len(corpus.samples), k)
    folds = make_folds(corpus, k, train_cfg.seed)
    results = [run_fold(corpus, folds, f, train_cfg, model_cfg) for f in range(k)]
    accs = np.array([r.metrics.accuracy for r in results])
    f1s = np.array([r.metrics.macro_f1 for r in results])
    return KFoldReport(
        folds=results,
        mean_accuracy=float(accs.mean()),
        std_accuracy=float(accs.std()),
        mean_macro_f1=float(f1s.mean()),
        traces=None if model_cfg.gating_mode is GatingMode.NONE else [t for r in results for t in r.traces],
    )
