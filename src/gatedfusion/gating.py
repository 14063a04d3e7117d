"""Adaptive per-frame gating driven by pooled global context.

Each frame/token gets one sigmoid scalar gate computed from the frame itself
concatenated with one global context row, the same for every frame of the
sequence. In cross-modal mode the context is the *other* modality's masked
mean; in unimodal mode the sequence's own. The gate rescales the frame's whole
feature row (one scalar broadcast across all d channels). Gates at padded
positions are forced to 0 so refined padding stays zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import tensor as T
from .errors import ShapeError


class GatingMode(str, Enum):
    NONE = "none"
    UNIMODAL = "unimodal"
    CROSS_MODAL = "cross_modal"


@dataclass
class GatingParams:
    """Learnable gate projections, one 2d -> 1 map per modality plus bias."""

    w_a: T.Parameter
    w_t: T.Parameter
    b_a: T.Parameter
    b_t: T.Parameter

    @classmethod
    def init(cls, d: int) -> "GatingParams":
        # zero init: gates start exactly neutral (0.5) with no accidental
        # frame preference; a single output unit has no symmetry to break
        return cls(
            w_a=T.Parameter("gate.w_a", np.zeros((2 * d, 1))),
            w_t=T.Parameter("gate.w_t", np.zeros((2 * d, 1))),
            b_a=T.Parameter("gate.b_a", np.zeros((1, 1))),
            b_t=T.Parameter("gate.b_t", np.zeros((1, 1))),
        )

    def parameters(self) -> list[T.Parameter]:
        return [self.w_a, self.w_t, self.b_a, self.b_t]


def gate_sequence(features: T.Tensor, mask: np.ndarray, context: T.Tensor, w: T.Tensor,
                  b: T.Tensor) -> T.Tensor:
    """Taped gate computation: sigma([H || c] w + b), masked.

    Takes a (B, T, d) stack with (B, T) masks and a (B, 1, d) context row per
    sample, or one T x d sequence with its length-T mask and one 1 x d row.
    Returns a (B, T, 1) gate stack (one T x 1 column) with padded entries
    forced to 0.
    """
    d = features.data.shape[-1]
    if w.data.shape != (2 * d, 1):
        raise ShapeError(f"gate projection must be ({2 * d}, 1), got {w.data.shape}")
    pre = T.add(T.matmul(T.concat_cols(features, context), w), b)
    gates = T.sigmoid(pre)
    mask_col = features.tape.constant(np.asarray(mask, dtype=np.float64)[..., None])
    return T.mul(gates, mask_col)


def refine_sequence(features: T.Tensor, gates: T.Tensor) -> T.Tensor:
    """Taped feature refinement: row i scaled by its gate scalar."""
    return T.mul(features, gates)
