"""Single-modality transformer encoder built on the tape kernel.

Post-norm layers over a (B, T, d) stack: x = LN(x + MHA(x)); x = LN(x + FFN(x)).
Attention heads ride the stack axis: B*H stacked heads share one matmul and
softmax. Logits at invalid key positions get an additive -1e9 mask so padding
never leaks into valid rows. Dropout applies to sublayer outputs during training
only: the caller passes each layer its keep masks, already scaled by 1 / (1 - rate).
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ShapeError

_ATTN_MASK_VALUE = -1e9


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, (fan_in, fan_out))


def dropout_keep(rng: np.random.Generator, rate: float, shape: int | tuple[int, ...]) -> np.ndarray:
    """Inverted-dropout keep mask: 0 with probability `rate`, else 1 / (1 - rate)."""
    return (rng.random(shape) >= rate) / (1.0 - rate)


def _dropout(x: T.Tensor, keep: np.ndarray | None) -> T.Tensor:
    return x if keep is None else T.mul(x, x.tape.constant(keep))


class EncoderLayer:
    """One attention + feedforward block with learnable layernorm affines."""

    def __init__(self, name: str, d_model: int, n_heads: int, ff_mult: int, rng: np.random.Generator):
        if d_model % n_heads != 0:
            raise ShapeError(f"d_model {d_model} not divisible by n_heads {n_heads}")
        self.d_model = d_model
        self.n_heads = n_heads
        d_ff = d_model * ff_mult
        p = T.Parameter
        self.wq = p(f"{name}.wq", xavier_uniform(rng, d_model, d_model))
        self.wk = p(f"{name}.wk", xavier_uniform(rng, d_model, d_model))
        self.wv = p(f"{name}.wv", xavier_uniform(rng, d_model, d_model))
        self.wo = p(f"{name}.wo", xavier_uniform(rng, d_model, d_model))
        self.bq = p(f"{name}.bq", np.zeros((1, d_model)))
        self.bv = p(f"{name}.bv", np.zeros((1, d_model)))
        self.bo = p(f"{name}.bo", np.zeros((1, d_model)))
        self.ln1_g = p(f"{name}.ln1_g", np.ones((1, d_model)))
        self.ln1_b = p(f"{name}.ln1_b", np.zeros((1, d_model)))
        self.w1 = p(f"{name}.ffn_w1", xavier_uniform(rng, d_model, d_ff))
        self.b1 = p(f"{name}.ffn_b1", np.zeros((1, d_ff)))
        self.w2 = p(f"{name}.ffn_w2", xavier_uniform(rng, d_ff, d_model))
        self.b2 = p(f"{name}.ffn_b2", np.zeros((1, d_model)))
        self.ln2_g = p(f"{name}.ln2_g", np.ones((1, d_model)))
        self.ln2_b = p(f"{name}.ln2_b", np.zeros((1, d_model)))

    def parameters(self) -> list[T.Parameter]:
        return [
            self.wq, self.wk, self.wv, self.wo,
            self.bq, self.bv, self.bo,
            self.ln1_g, self.ln1_b,
            self.w1, self.b1, self.w2, self.b2,
            self.ln2_g, self.ln2_b,
        ]

    def _attention(self, x: T.Tensor, mask: np.ndarray) -> T.Tensor:
        tape = x.tape
        b, t, d = x.data.shape
        h, dh = self.n_heads, d // self.n_heads
        q = T.add(T.matmul(x, tape.leaf(self.wq)), tape.leaf(self.bq))
        # no key bias: a shared key offset cancels inside the row softmax
        k = T.matmul(x, tape.leaf(self.wk))
        v = T.add(T.matmul(x, tape.leaf(self.wv)), tape.leaf(self.bv))
        # row i*H + j of a (B*H, T, dh) head stack is head j of sample i; kh is (B*H, dh, T)
        qh = T.transpose(q, (b, t, h, dh), (0, 2, 1, 3), (b * h, t, dh))
        kh = T.transpose(k, (b, t, h, dh), (0, 2, 3, 1), (b * h, dh, t))
        vh = T.transpose(v, (b, t, h, dh), (0, 2, 1, 3), (b * h, t, dh))
        # one 1 x T row per sample, repeated for its heads and broadcast over their query rows
        key_mask = np.where(np.asarray(mask) > 0.0, 0.0, _ATTN_MASK_VALUE)[:, None, :]
        scores = T.mul(T.matmul(qh, kh), tape.constant([[1.0 / np.sqrt(dh)]]))
        attn = T.softmax_rows(T.add(scores, tape.constant(np.repeat(key_mask, h, axis=0))))
        merged = T.transpose(T.matmul(attn, vh), (b, h, t, dh), (0, 2, 1, 3), (b, t, d))
        return T.add(T.matmul(merged, tape.leaf(self.wo)), tape.leaf(self.bo))

    def _ffn(self, x: T.Tensor) -> T.Tensor:
        tape = x.tape
        hidden = T.relu(T.add(T.matmul(x, tape.leaf(self.w1)), tape.leaf(self.b1)))
        return T.add(T.matmul(hidden, tape.leaf(self.w2)), tape.leaf(self.b2))

    def _ln(self, x: T.Tensor, gain: T.Parameter, bias: T.Parameter) -> T.Tensor:
        tape = x.tape
        return T.add(T.mul(T.layernorm_rows(x), tape.leaf(gain)), tape.leaf(bias))

    def forward(self, x: T.Tensor, mask: np.ndarray, keep: np.ndarray | None = None) -> T.Tensor:
        """`x` is a (B, T, d) stack with its (B, T) masks; `keep` stacks the
        attention and the feedforward dropout keep masks (each of `x`'s shape),
        or is None for no dropout."""
        attn_keep, ffn_keep = (None, None) if keep is None else keep
        attn = _dropout(self._attention(x, mask), attn_keep)
        x = self._ln(T.add(x, attn), self.ln1_g, self.ln1_b)
        ff = _dropout(self._ffn(x), ffn_keep)
        return self._ln(T.add(x, ff), self.ln2_g, self.ln2_b)


def sinusoidal_positions(t_len: int, d_model: int) -> np.ndarray:
    """Standard interleaved sin/cos position table, shape T x d."""
    pos = np.arange(t_len)[:, None]
    idx = np.arange(d_model)[None, :]
    angle = pos / np.power(10000.0, (2 * (idx // 2)) / d_model)
    table = np.zeros((t_len, d_model))
    table[:, 0::2] = np.sin(angle[:, 0::2])
    table[:, 1::2] = np.cos(angle[:, 1::2])
    return table
