"""Single-modality transformer encoder built on the tape kernel.

Post-norm layers over a (B, T, d) stack: x = LN(x + MHA(x)); x = LN(x + FFN(x)).
Attention heads ride the stack axis: B*H stacked heads share one matmul and
softmax. Logits at invalid key positions get an additive -1e9 mask so padding
never leaks into valid rows. Dropout applies to sublayer outputs during training
only: the caller passes each layer its keep masks, already scaled by 1 / (1 - rate).
A layer reads its parameters by name from the model's slots; the model's
parameter table declares them.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T

_ATTN_MASK_VALUE = -1e9


def dropout_keep(rng: np.random.Generator, rate: float, shape: int | tuple[int, ...]) -> np.ndarray:
    """Inverted-dropout keep mask: 0 with probability `rate`, else 1 / (1 - rate)."""
    return (rng.random(shape) >= rate) / (1.0 - rate)


def _dropout(x: T.Tensor, keep: np.ndarray | None) -> T.Tensor:
    return x if keep is None else T.mul(x, T.constant(keep))


class EncoderLayer:
    """One attention + feedforward block with learnable layernorm affines.

    The layer owns no parameters: it reads `<prefix>.wq` and the rest by name
    from the model's `slots`.
    """

    def __init__(self, prefix: str, n_heads: int, slots: dict[str, T.Tensor]):
        self.prefix = prefix
        self.n_heads = n_heads
        self.slots = slots

    def _p(self, name: str) -> T.Tensor:
        return self.slots[f"{self.prefix}.{name}"]

    def _attention(self, x: T.Tensor, mask: np.ndarray) -> T.Tensor:
        b, t, d = x.data.shape
        h, dh = self.n_heads, d // self.n_heads
        q = T.add(T.matmul(x, self._p("wq")), self._p("bq"))
        # no key bias: a shared key offset cancels inside the row softmax
        k = T.matmul(x, self._p("wk"))
        v = T.add(T.matmul(x, self._p("wv")), self._p("bv"))
        # row i*H + j of a (B*H, T, dh) head stack is head j of sample i; kh is (B*H, dh, T)
        qh = T.transpose(q, (b, t, h, dh), (0, 2, 1, 3), (b * h, t, dh))
        kh = T.transpose(k, (b, t, h, dh), (0, 2, 3, 1), (b * h, dh, t))
        vh = T.transpose(v, (b, t, h, dh), (0, 2, 1, 3), (b * h, t, dh))
        # one 1 x T row per sample, repeated for its heads and broadcast over their query rows
        key_mask = np.where(np.asarray(mask) > 0.0, 0.0, _ATTN_MASK_VALUE)[:, None, :]
        scores = T.mul(T.matmul(qh, kh), T.constant([[1.0 / np.sqrt(dh)]]))
        attn = T.softmax_rows(T.add(scores, T.constant(np.repeat(key_mask, h, axis=0))))
        merged = T.transpose(T.matmul(attn, vh), (b, h, t, dh), (0, 2, 1, 3), (b, t, d))
        return T.add(T.matmul(merged, self._p("wo")), self._p("bo"))

    def _ffn(self, x: T.Tensor) -> T.Tensor:
        hidden = T.relu(T.add(T.matmul(x, self._p("ffn_w1")), self._p("ffn_b1")))
        return T.add(T.matmul(hidden, self._p("ffn_w2")), self._p("ffn_b2"))

    def _ln(self, x: T.Tensor, site: str) -> T.Tensor:
        return T.add(T.mul(T.layernorm_rows(x), self._p(f"{site}_g")), self._p(f"{site}_b"))

    def forward(self, x: T.Tensor, mask: np.ndarray, keep: np.ndarray | None = None) -> T.Tensor:
        """`x` is a (B, T, d) stack with its (B, T) masks; `keep` stacks the
        attention and the feedforward dropout keep masks (each of `x`'s shape),
        or is None for no dropout."""
        attn_keep, ffn_keep = (None, None) if keep is None else keep
        attn = _dropout(self._attention(x, mask), attn_keep)
        x = self._ln(T.add(x, attn), "ln1")
        ff = _dropout(self._ffn(x), ffn_keep)
        return self._ln(T.add(x, ff), "ln2")


def sinusoidal_positions(t_len: int, d_model: int) -> np.ndarray:
    """Standard interleaved sin/cos position table, shape T x d."""
    pos = np.arange(t_len)[:, None]
    idx = np.arange(d_model)[None, :]
    angle = pos / np.power(10000.0, (2 * (idx // 2)) / d_model)
    table = np.zeros((t_len, d_model))
    table[:, 0::2] = np.sin(angle[:, 0::2])
    table[:, 1::2] = np.cos(angle[:, 1::2])
    return table
