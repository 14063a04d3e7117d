"""Evaluation metrics, k-fold protocol, and gate-behavior studies.

Gate studies quantify the selective-attention claim: Pearson correlation of
acoustic gate values against the per-frame energy side channel (expected
negative on energy-coupled corpora), and AUROC of gate values as a detector
of the planted diagnostic frames.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError
from .gating import GatingMode
from .model import FusionModel, ModelConfig
from .synth import Corpus, Sample, model_inputs
from .trainer import TrainConfig, evaluate, no_grad_forwards, train


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
    """Valid-position gate values for one sample, with aligned side channels."""

    sample_id: int
    label: int
    gates_a: np.ndarray
    gates_t: np.ndarray
    energy: np.ndarray | None = None
    negative_flags: np.ndarray | None = None
    diag_a: np.ndarray | None = None
    diag_t: np.ndarray | None = None


def trace_energy(trace: GateTrace) -> np.ndarray | None:
    """The trace's energy channel, one value per acoustic gate; None if absent."""
    if trace.energy is not None and len(trace.energy) != len(trace.gates_a):
        raise ConfigError(f"sample {trace.sample_id}: {len(trace.energy)} energy values "
                          f"for {len(trace.gates_a)} acoustic gates")
    return trace.energy


def collect_traces(model: FusionModel, samples: list[Sample]) -> list[GateTrace]:
    """Each sample's valid-position gates, from `trainer.no_grad_forwards`."""
    traces = []
    for chunk, result in no_grad_forwards(model, [model_inputs(s) for s in samples]):
        if result.gates_a is None:
            raise ConfigError("model has gating disabled; no gate traces to collect")
        for i, (a, t, _) in enumerate(chunk):
            s = samples[len(traces)]
            traces.append(
                GateTrace(
                    sample_id=s.sample_id,
                    label=s.label,
                    gates_a=result.gates_a[i, : len(a), 0],
                    gates_t=result.gates_t[i, : len(t), 0],
                    energy=s.energy,
                    negative_flags=s.negative_token_flags,
                    diag_a=s.diagnostic_flags_a,
                    diag_t=s.diagnostic_flags_t,
                )
            )
    return traces


@dataclass
class CorrelationReport:
    """Frame-pooled Pearson r of acoustic gates vs energy; None = undefined."""

    overall: float | None
    per_class: dict[int, float | None]

    def to_dict(self) -> dict:
        return {"overall": self.overall,
                "per_class": {str(k): v for k, v in self.per_class.items()}}


def gate_energy_correlation(traces: list[GateTrace]) -> CorrelationReport:
    gates, energies, labels = [], [], []
    for tr in traces:
        e = trace_energy(tr)
        if e is None:
            continue
        gates.append(tr.gates_a)
        energies.append(e)
        labels.append(np.full(len(tr.gates_a), tr.label))
    if not gates:
        raise ConfigError("no traces carry an energy side channel")
    g = np.concatenate(gates)
    e = np.concatenate(energies)
    l = np.concatenate(labels)
    per_class = {int(c): pearson(g[l == c], e[l == c]) for c in np.unique(l)}
    return CorrelationReport(pearson(g, e), per_class)


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
        if tr.diag_a is None or tr.diag_t is None:
            continue
        ga.append(tr.gates_a)
        fa.append(tr.diag_a)
        gt.append(tr.gates_t)
        ft.append(tr.diag_t)
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
    history: list[dict]


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


def kfold(
    corpus: Corpus,
    k: int,
    train_cfg: TrainConfig,
    model_cfg: ModelConfig,
) -> KFoldReport:
    """Train k models from scratch on complementary folds and aggregate.

    Gate traces of every held-out sample are collected when the model gates.
    """
    n = len(corpus.samples)
    if k < 2:
        raise ConfigError(f"k must be >= 2, got {k}")
    if n < 2 * k:
        raise ConfigError(f"corpus of {n} samples too small for k={k} (need >= {2 * k})")
    folds = make_folds(corpus, k, train_cfg.seed)
    gating = model_cfg.gating_mode is not GatingMode.NONE
    results = []
    all_traces: list[GateTrace] = []
    for f, held_out in enumerate(folds):
        held = set(held_out.tolist())
        train_samples = [s for i, s in enumerate(corpus.samples) if i not in held]
        eval_samples = [corpus.samples[i] for i in held_out]
        fold_model_cfg = replace(model_cfg, seed=model_cfg.seed + 1000 * (f + 1))
        fold_train_cfg = replace(train_cfg, seed=train_cfg.seed + 1000 * (f + 1))
        model = FusionModel(fold_model_cfg)
        train_pairs = [model_inputs(s) for s in train_samples]
        result = train(model, train_pairs, fold_train_cfg)
        _, _, preds = evaluate(model, [model_inputs(s) for s in eval_samples])
        labels = np.array([s.label for s in eval_samples])
        m = metrics(preds, labels, corpus.n_classes)
        missing = [c for c in range(corpus.n_classes) if (labels == c).sum() == 0]
        for c in missing:
            m.warnings.append(f"fold {f}: class {c} missing from held-out labels")
        results.append(FoldResult(f, m, result.history))
        if gating:
            all_traces.extend(collect_traces(model, eval_samples))
    accs = np.array([r.metrics.accuracy for r in results])
    f1s = np.array([r.metrics.macro_f1 for r in results])
    return KFoldReport(
        folds=results,
        mean_accuracy=float(accs.mean()),
        std_accuracy=float(accs.std()),
        mean_macro_f1=float(f1s.mean()),
        traces=all_traces if gating else None,
    )
