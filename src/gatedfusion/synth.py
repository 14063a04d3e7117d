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


def _loglik_revealed(feats: np.ndarray, flags: np.ndarray, spec: SynthSpec, label: int) -> float:
    mu = spec.class_mean(feats.shape[1], label)
    diff = feats[flags == 1] - mu
    return -0.5 * float((diff * diff).sum()) / spec.noise_sigma**2


def _loglik_marginalized(feats: np.ndarray, k: int, spec: SynthSpec, label: int) -> float:
    """log P(X | class), diagnostic positions summed out.

    With `contiguous_runs` positions are one run of k frames, so the marginal
    sums the run's likelihood ratio over its T-k+1 starts. Otherwise they are a
    uniform size-k subset: the k-th elementary symmetric polynomial of the
    per-frame likelihood ratios, computed by a log-space DP over frames.
    """
    mu = spec.class_mean(feats.shape[1], label)
    # log ratio of diagnostic vs noise density per frame
    log_r = (feats @ mu - 0.5 * mu @ mu) / spec.noise_sigma**2
    if spec.contiguous_runs:
        return float(np.logaddexp.reduce(np.convolve(log_r, np.ones(k), mode="valid")))
    dp = np.full(k + 1, -np.inf)
    dp[0] = 0.0
    for lr in log_r:
        dp[1:] = np.logaddexp(dp[1:], dp[:-1] + lr)
    return float(dp[k])


def bayes_oracle_accuracy(spec: SynthSpec, n_eval: int = 400) -> OracleReport:
    """Accuracy ceiling: classify fresh samples by exact likelihood ratio."""
    eval_spec = SynthSpec(**{**spec.to_dict(), "n_samples": n_eval, "seed": spec.seed + 7919})
    corpus = generate(eval_spec)
    correct_rev = correct_marg = 0
    for s in corpus.samples:
        k_a, k_t = int(s.diagnostic_flags_a.sum()), int(s.diagnostic_flags_t.sum())
        rev = [
            _loglik_revealed(s.acoustic, s.diagnostic_flags_a, spec, c)
            + _loglik_revealed(s.textual, s.diagnostic_flags_t, spec, c)
            for c in range(spec.n_classes)
        ]
        marg = [
            _loglik_marginalized(s.acoustic, k_a, spec, c) + _loglik_marginalized(s.textual, k_t, spec, c)
            for c in range(spec.n_classes)
        ]
        correct_rev += int(np.argmax(rev)) == s.label
        correct_marg += int(np.argmax(marg)) == s.label
    return OracleReport(correct_rev / n_eval, correct_marg / n_eval, n_eval)
