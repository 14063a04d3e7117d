"""Scalar reference for the Bayes oracle: one sample, one class, one frame at a time.

`synth.bayes_predictions` computes the same log-likelihoods as whole arrays;
these loops are what it is checked against.
"""

import numpy as np

from gatedfusion.synth import Sample, SynthSpec


def loglik_revealed(feats: np.ndarray, flags: np.ndarray, spec: SynthSpec, label: int) -> float:
    mu = spec.class_mean(feats.shape[1], label)
    diff = feats[flags == 1] - mu
    return -0.5 * float((diff * diff).sum()) / spec.noise_sigma**2


def loglik_marginalized(feats: np.ndarray, k: int, spec: SynthSpec, label: int) -> float:
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


def logliks(spec: SynthSpec, s: Sample) -> tuple[list[float], list[float]]:
    """One sample's revealed and marginalized log-likelihoods, per class."""
    k_a, k_t = int(s.diagnostic_flags_a.sum()), int(s.diagnostic_flags_t.sum())
    rev = [loglik_revealed(s.acoustic, s.diagnostic_flags_a, spec, c)
           + loglik_revealed(s.textual, s.diagnostic_flags_t, spec, c) for c in range(spec.n_classes)]
    marg = [loglik_marginalized(s.acoustic, k_a, spec, c) + loglik_marginalized(s.textual, k_t, spec, c)
            for c in range(spec.n_classes)]
    return rev, marg


def predictions(spec: SynthSpec, samples: list[Sample]) -> tuple[list[int], list[int]]:
    """Per sample, the argmax class of each variant."""
    revealed, marginalized = [], []
    for s in samples:
        rev, marg = logliks(spec, s)
        revealed.append(int(np.argmax(rev)))
        marginalized.append(int(np.argmax(marg)))
    return revealed, marginalized
