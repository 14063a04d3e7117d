"""Variable-length sequences with validity masks, and masked pooling.

Padding is tail-only: the mask is a run of ones followed by a run of zeros,
and padded feature rows are zero. Pooling averages over valid rows only, so
appending padding never changes downstream results. `pad_batch` stacks a
minibatch into one `PaddedBatch`, which the model runs as one op sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import tensor as T
from .errors import EmptySequenceError, ShapeError


@dataclass(frozen=True)
class MaskedSequence:
    """Features (T_max x d) plus a {0,1} validity mask of length T_max."""

    features: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        mask = np.asarray(self.mask, dtype=np.float64)
        if feats.ndim != 2:
            raise ShapeError(f"features must be 2-D, got shape {feats.shape}")
        if mask.shape != (feats.shape[0],):
            raise ShapeError(f"mask length {mask.shape} does not match {feats.shape[0]} rows")
        if not np.all((mask == 0.0) | (mask == 1.0)):
            raise ShapeError("mask entries must be 0 or 1")
        n = int(mask.sum())
        if n < 1:
            raise EmptySequenceError("sequence has no valid positions")
        if not np.all(mask[:n] == 1.0):
            raise ShapeError("mask must be a prefix of ones (tail-only padding)")
        if not np.all(feats[n:] == 0.0):
            raise ShapeError("padded rows must be zero")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "mask", mask)

    @classmethod
    def from_valid(cls, features) -> "MaskedSequence":
        """Build an unpadded sequence (all rows valid)."""
        feats = np.asarray(features, dtype=np.float64)
        return cls(feats, np.ones(feats.shape[0]))

    @property
    def valid_count(self) -> int:
        return int(self.mask.sum())

    @property
    def width(self) -> int:
        return self.features.shape[1]

    @property
    def length(self) -> int:
        return self.features.shape[0]

    def valid_features(self) -> np.ndarray:
        return self.features[: self.valid_count]

    def padded_to(self, length: int) -> "MaskedSequence":
        if length < self.length:
            raise ShapeError(f"cannot shrink sequence of length {self.length} to {length}")
        extra = length - self.length
        feats = np.vstack([self.features, np.zeros((extra, self.width))])
        mask = np.concatenate([self.mask, np.zeros(extra)])
        return MaskedSequence(feats, mask)


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


def expand_context(ctx: T.Tensor, length: int) -> T.Tensor:
    """Replicate a 1 x d context row `length` times; backward sums rows back.

    A (B, 1, d) stack of rows expands to (B, length, d).
    """
    if length < 1:
        raise ShapeError(f"expansion length must be >= 1, got {length}")
    ones = ctx.tape.constant(np.ones((length, 1)))
    return T.matmul(ones, ctx)


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


def pad_batch(seqs: list[MaskedSequence]) -> PaddedBatch:
    """Stack sequences, tail-padded with zero rows to the longest one."""
    if not seqs:
        raise ShapeError("cannot batch zero sequences")
    d = seqs[0].width
    for s in seqs:
        if s.width != d:
            raise ShapeError(f"mixed feature widths in batch: {s.width} vs {d}")
    t_max = max(s.length for s in seqs)
    feats = np.zeros((len(seqs), t_max, d))
    masks = np.zeros((len(seqs), t_max))
    for i, s in enumerate(seqs):
        feats[i, : s.length] = s.features
        masks[i, : s.length] = s.mask
    return PaddedBatch(feats, masks)
