"""Adaptive per-frame gating driven by pooled global context.

Each frame/token gets one sigmoid scalar gate computed from the frame itself
concatenated with one global context row, the same for every frame of the
sequence. In cross-modal mode the context is the *other* modality's masked
mean; in unimodal mode the sequence's own. The gate rescales the frame's whole
feature row (one scalar broadcast across all d channels). Gates at padded
positions are forced to 0 so refined padding stays zero. The projections,
one 2d -> 1 map plus bias per modality, are the model's `gate.*` parameters.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from . import tensor as T
from .errors import ShapeError


class GatingMode(str, Enum):
    NONE = "none"
    UNIMODAL = "unimodal"
    CROSS_MODAL = "cross_modal"


def gate_sequence(features: T.Tensor, mask: np.ndarray, context: T.Tensor, w: T.Tensor,
                  b: T.Tensor) -> T.Tensor:
    """Taped gate computation: sigma([H || c] w + b), masked.

    Takes a (B, T, d) stack with (B, T) masks and a (B, 1, d) context row per
    sample, or one T x d sequence with its length-T mask and one 1 x d row.
    Returns a (B, T, 1) gate stack (one T x 1 column) with padded entries
    forced to 0.
    """
    d = features.data.shape[-1]
    # one matrix, or a stack of them under the stack rule of `tensor`
    if w.data.shape[-2:] != (2 * d, 1):
        raise ShapeError(f"gate projection must be ({2 * d}, 1), got {w.data.shape}")
    gates = T.sigmoid(T.matmul(T.concat_cols(features, context), w, b))
    mask_col = T.constant(np.asarray(mask, dtype=np.float64)[..., None])
    return T.mul(gates, mask_col)


def refine_sequence(features: T.Tensor, gates: T.Tensor) -> T.Tensor:
    """Taped feature refinement: row i scaled by its gate scalar."""
    return T.mul(features, gates)
