"""Padded minibatches of variable-length sequences, and masked pooling.

A sequence is a (T, d) float array holding only its valid rows. `pad_batch`
is the one place padding and masks are made: it stacks a minibatch into one
`PaddedBatch`, tail-padded with zero rows, whose (B, T_max) masks are a run
of ones followed by a run of zeros. The model runs the batch as one op
sequence. Pooling averages over valid rows only, so appending padding never
changes downstream results.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import tensor as T
from .errors import EmptySequenceError, ShapeError


def masked_mean_pool(features: T.Tensor, mask: np.ndarray) -> T.Tensor:
    """Mean of the valid rows of a taped T x d tensor: (1/N) sum_i m_i h_i.

    A (B, T, d) stack with (B, T) masks pools each sample to a (B, 1, d) stack.
    Gradient flows only to valid rows; padded rows receive exactly zero.
    """
    mask = np.asarray(mask, dtype=np.float64)
    n = mask.sum(axis=-1, keepdims=True)
    if np.any(n < 1):
        raise EmptySequenceError("cannot pool a sequence with no valid positions")
    weights = features.tape.constant(np.expand_dims(mask / n, -2))
    return T.matmul(weights, features)


class PaddedBatch(NamedTuple):
    """A minibatch of one modality: (B x T_max x d) features and (B x T_max) masks."""

    features: np.ndarray
    masks: np.ndarray

    @property
    def valid_count(self) -> int:
        """Valid rows over the whole batch."""
        return int(self.masks.sum())

    @property
    def length(self) -> int:
        """Rows fed to the model, padding included."""
        return self.masks.size


def pad_batch(seqs: list[np.ndarray]) -> PaddedBatch:
    """Stack (T_i, d) feature arrays, tail-padded with zero rows to the longest one."""
    if not seqs:
        raise ShapeError("cannot batch zero sequences")
    seqs = [np.asarray(s, dtype=np.float64) for s in seqs]
    for s in seqs:
        if s.ndim != 2:
            raise ShapeError(f"features must be 2-D, got shape {s.shape}")
        if len(s) == 0:
            raise EmptySequenceError("sequence has no valid positions")
        if s.shape[1] != seqs[0].shape[1]:
            raise ShapeError(f"mixed feature widths in batch: {s.shape[1]} vs {seqs[0].shape[1]}")
    t_max = max(len(s) for s in seqs)
    feats = np.zeros((len(seqs), t_max, seqs[0].shape[1]))
    masks = np.zeros((len(seqs), t_max))
    for i, s in enumerate(seqs):
        feats[i, : len(s)] = s
        masks[i, : len(s)] = 1.0
    return PaddedBatch(feats, masks)
