"""Synthetic paired-sequence corpus with planted sparse diagnostic frames.

Each sample is a pair of variable-length feature sequences, each a float64
(T, d) array holding only its valid rows, and a class label. Only a small
fraction of frames/tokens carry the label signal: those rows get a
class-specific mean direction (scaled by signal_gain) plus a fixed
class-independent marker direction that makes them *detectable* without
revealing the class. All other rows are pure Gaussian noise. Four analysis-only
side channels are attached, one value per frame of the modality they annotate
(see `SIDE_CHANNELS`): a per-frame energy proxy (diagnostic acoustic frames are
low-energy when energy_coupling > 0), per-token negative-sentiment flags
(diagnostic tokens of non-healthy classes), and the planted diagnostic flags of
each modality. Side channels never reach the model: `model_inputs` is the
single assembly point.

The Bayes oracle classifies by exact likelihood under the generative
parameters, as whole arrays over samples and classes: `bayes_predictions`
gives each given sample's class with the diagnostic positions revealed and
with them marginalized out, and `bayes_oracle_accuracy` scores it on fresh
samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .errors import ConfigError

_ENERGY_BASE = 1.0
_ENERGY_DROP = 0.5
_ENERGY_JITTER = 0.1
# More feature values are refused at construction: 186x the 1,075,200 of the
# largest corpus any example, test or benchmark makes
MAX_FEATURE_VALUES = 200_000_000


@dataclass
class SynthSpec:
    n_samples: int = 400
    n_classes: int = 3
    d_a: int = 32
    d_t: int = 32
    len_range_a: tuple[int, int] = (7, 14)
    len_range_t: tuple[int, int] = (7, 14)
    sparsity: float = 0.15
    signal_gain: float = 2.0
    marker_gain: float = 2.5
    energy_coupling: float = 1.0
    noise_sigma: float = 1.0
    contiguous_runs: bool = False
    seed: int = 0

    def __post_init__(self):
        self.len_range_a = tuple(self.len_range_a)
        self.len_range_t = tuple(self.len_range_t)
        if not 0.0 < self.sparsity <= 1.0:
            raise ConfigError(f"sparsity must be in (0, 1], got {self.sparsity}")
        if not 0.0 <= self.energy_coupling <= 1.0:
            raise ConfigError(f"energy_coupling must be in [0, 1], got {self.energy_coupling}")
        if self.n_samples < 1:
            raise ConfigError(f"n_samples must be >= 1, got {self.n_samples}")
        if self.n_classes < 2:
            raise ConfigError(f"n_classes must be >= 2, got {self.n_classes}")
        for name in ("len_range_a", "len_range_t"):
            lo, hi = getattr(self, name)
            if not 1 <= lo <= hi:
                raise ConfigError(f"{name} must satisfy 1 <= min <= max, got ({lo}, {hi})")
            if self.sparsity * lo < 1.0:
                raise ConfigError(
                    f"sparsity {self.sparsity} x min length {lo} < 1: "
                    "every sample needs at least one diagnostic frame"
                )
        for name in ("d_a", "d_t"):
            if getattr(self, name) < self.n_classes + 1:
                raise ConfigError(f"{name} must be >= n_classes + 1 to fit class and marker axes")
        if self.noise_sigma <= 0:
            raise ConfigError(f"noise_sigma must be > 0, got {self.noise_sigma}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        self.check_budget(self.n_samples)

    def check_budget(self, n_samples: int, field: str = "n_samples") -> None:
        """Refuse `n_samples` samples (named `field`) of the longest lengths over `MAX_FEATURE_VALUES`."""
        (_, len_a), (_, len_t) = self.len_range_a, self.len_range_t
        values = n_samples * (len_a * self.d_a + len_t * self.d_t)
        if values > MAX_FEATURE_VALUES:
            raise ConfigError(f"{field} {n_samples} x (len_range_a[1] {len_a} x d_a {self.d_a} + len_range_t[1] "
                              f"{len_t} x d_t {self.d_t}) = {values} feature values exceed the budget of "
                              f"{MAX_FEATURE_VALUES} (synth.MAX_FEATURE_VALUES)")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["len_range_a"] = list(self.len_range_a)
        d["len_range_t"] = list(self.len_range_t)
        return d

    def class_mean(self, d: int, label: int) -> np.ndarray:
        """Mean vector planted on diagnostic rows: class axis + marker axis."""
        mu = np.zeros(d)
        mu[label] = self.signal_gain
        mu[self.n_classes] = self.marker_gain
        return mu


@dataclass
class Sample:
    sample_id: int
    label: int
    acoustic: np.ndarray
    textual: np.ndarray
    energy: np.ndarray | None = None
    negative_token_flags: np.ndarray | None = None
    diagnostic_flags_a: np.ndarray | None = None
    diagnostic_flags_t: np.ndarray | None = None


# Each side-channel field of `Sample` -> (the modality field whose frames it
# annotates, one value per frame; whether it holds 0/1 flags).
SIDE_CHANNELS = {
    "energy": ("acoustic", False),
    "negative_token_flags": ("textual", True),
    "diagnostic_flags_a": ("acoustic", True),
    "diagnostic_flags_t": ("textual", True),
}


@dataclass
class Corpus:
    samples: list[Sample]
    class_names: list[str]
    d_a: int
    d_t: int

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    def labels(self) -> np.ndarray:
        return np.array([s.label for s in self.samples])


def model_inputs(sample: Sample) -> tuple[np.ndarray, np.ndarray, int]:
    """The only path from corpus samples to model input; drops side channels."""
    return sample.acoustic, sample.textual, sample.label


def _pick_diagnostic(rng: np.random.Generator, t_len: int, spec: SynthSpec) -> np.ndarray:
    k = math.ceil(spec.sparsity * t_len)
    flags = np.zeros(t_len, dtype=np.int64)
    if spec.contiguous_runs:
        start = int(rng.integers(0, t_len - k + 1))
        flags[start : start + k] = 1
    else:
        flags[rng.choice(t_len, size=k, replace=False)] = 1
    return flags


def _make_modality(rng, t_len: int, d: int, label: int, spec: SynthSpec) -> tuple[np.ndarray, np.ndarray]:
    flags = _pick_diagnostic(rng, t_len, spec)
    feats = rng.normal(0.0, spec.noise_sigma, (t_len, d))
    feats[flags == 1] += spec.class_mean(d, label)
    return feats, flags


def generate(spec: SynthSpec) -> Corpus:
    """Deterministic corpus: per-sample RNG streams derived from spec.seed."""
    master = np.random.default_rng([spec.seed, 101])
    # balanced labels, shuffled: keeps class counts within one of each other
    labels = np.array([i % spec.n_classes for i in range(spec.n_samples)])
    master.shuffle(labels)
    samples = []
    for idx in range(spec.n_samples):
        rng = np.random.default_rng([spec.seed, 202, idx])
        label = int(labels[idx])
        t_a = int(rng.integers(spec.len_range_a[0], spec.len_range_a[1] + 1))
        t_t = int(rng.integers(spec.len_range_t[0], spec.len_range_t[1] + 1))
        feats_a, diag_a = _make_modality(rng, t_a, spec.d_a, label, spec)
        feats_t, diag_t = _make_modality(rng, t_t, spec.d_t, label, spec)
        energy = (
            _ENERGY_BASE
            - spec.energy_coupling * _ENERGY_DROP * diag_a
            + rng.uniform(-_ENERGY_JITTER, _ENERGY_JITTER, t_a)
        )
        negative = (diag_t * (label > 0)).astype(np.int64)
        samples.append(
            Sample(
                sample_id=idx,
                label=label,
                acoustic=feats_a,
                textual=feats_t,
                energy=energy,
                negative_token_flags=negative,
                diagnostic_flags_a=diag_a,
                diagnostic_flags_t=diag_t,
            )
        )
    names = ["healthy"] + [f"severity_{i}" for i in range(1, spec.n_classes)]
    return Corpus(samples, names, spec.d_a, spec.d_t)


@dataclass
class OracleReport:
    """Accuracy of the generative-parameter classifier, two variants."""

    revealed: float
    marginalized: float
    n_eval: int


def _logliks(spec: SynthSpec, feats: list[np.ndarray], flags: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Revealed and marginalized log P(X | class) of one modality's samples, as
    two (N, C) arrays, each up to a per-sample constant shared by all classes.

    The samples are padded to (N, T_max, d) with one scatter. Revealed sums the
    flagged rows' squared distance to each class mean. Marginalized sums the
    diagnostic positions out of the per-frame log likelihood ratios `log_r`:
    with `contiguous_runs` they are one run of k frames, so it adds up the
    run's ratio over its T-k+1 starts (window sums of a cumulative sum).
    Otherwise they are a uniform size-k subset: the k-th elementary symmetric
    polynomial of the ratios, a log-space DP over frame indices in which a
    sample's padded frames leave its row as it was.
    """
    n, d = len(feats), feats[0].shape[1]
    lens = np.array([len(f) for f in feats])
    t_max = int(lens.max())
    valid = np.arange(t_max) < lens[:, None]
    x = np.zeros((n, t_max, d))
    x[valid] = np.concatenate(feats)
    flagged = np.zeros((n, t_max))
    flagged[valid] = np.concatenate(flags)
    k = flagged.sum(axis=1).astype(np.int64)
    means = np.stack([spec.class_mean(d, c) for c in range(spec.n_classes)], axis=1)  # (d, C)
    mean_sq = (means * means).sum(axis=0)
    var = spec.noise_sigma**2
    x_dot_mean = x @ means  # (N, T, C)
    sq_dist = (x * x).sum(axis=2)[..., None] - 2.0 * x_dot_mean + mean_sq
    revealed = -0.5 * (flagged[..., None] * sq_dist).sum(axis=1) / var
    # log ratio of diagnostic vs noise density per frame
    log_r = (x_dot_mean - 0.5 * mean_sq) / var
    if spec.contiguous_runs:
        prefix = np.concatenate([np.zeros((n, 1, spec.n_classes)), np.cumsum(log_r, axis=1)], axis=1)
        ends = np.arange(t_max) + k[:, None]  # (N, T): one past the last frame of the run starting at each frame
        windows = np.take_along_axis(prefix, np.minimum(ends, t_max)[..., None], axis=1) - prefix[:, :-1]
        windows[ends > lens[:, None]] = -np.inf
        return revealed, np.logaddexp.reduce(windows, axis=1)
    dp = np.full((n, k.max() + 1, spec.n_classes), -np.inf)
    dp[:, 0] = 0.0
    for t in range(t_max):
        step = np.logaddexp(dp[:, 1:], dp[:, :-1] + log_r[:, t, None, :])
        np.copyto(dp[:, 1:], step, where=valid[:, t, None, None])
    return revealed, dp[np.arange(n), k]


def bayes_predictions(spec: SynthSpec, samples: list[Sample]) -> tuple[np.ndarray, np.ndarray]:
    """Each sample's Bayes class under `spec`'s generative parameters, as two
    (N,) arrays: with the diagnostic positions revealed (read from the samples'
    diagnostic flags), and with them marginalized out. Whole-array over the
    samples and classes; ties go to the lowest class."""
    rev_a, marg_a = _logliks(spec, [s.acoustic for s in samples], [s.diagnostic_flags_a for s in samples])
    rev_t, marg_t = _logliks(spec, [s.textual for s in samples], [s.diagnostic_flags_t for s in samples])
    return np.argmax(rev_a + rev_t, axis=1), np.argmax(marg_a + marg_t, axis=1)


def bayes_oracle_accuracy(spec: SynthSpec, n_eval: int = 400) -> OracleReport:
    """Accuracy ceiling: classify `n_eval` fresh samples (drawn at seed + 7919)
    by exact likelihood ratio, `bayes_predictions`, and score them."""
    eval_spec = SynthSpec(**{**spec.to_dict(), "n_samples": n_eval, "seed": spec.seed + 7919})
    corpus = generate(eval_spec)
    revealed, marginalized = bayes_predictions(spec, corpus.samples)
    labels = corpus.labels()
    return OracleReport(float(np.mean(revealed == labels)), float(np.mean(marginalized == labels)), n_eval)
