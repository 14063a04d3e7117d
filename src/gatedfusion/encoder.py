"""Single-modality transformer encoder built on the tape kernel.

Post-norm layers over a (B, T, d) stack: x = LN(x + MHA(x)); x = LN(x + FFN(x)).
Each affine map is one `matmul` with its bias, each layernorm one
`layernorm_rows` with its gain and bias, and attention one `tensor.attention`
op, whose heads ride the stack axis: B*H stacked heads share one matmul and
softmax. A layer in training thus records 14 ops: the q, k, v and output
maps, attention, two dropouts, two residual adds, two layernorms, and the
feedforward's two maps and relu. Logits at invalid key positions get an additive -1e9 mask so
padding never leaks into valid rows. Dropout applies to sublayer outputs
during training only: the caller passes each layer its keep masks, already
scaled by 1 / (1 - rate). A layer reads its parameters by name from the
model's slots; the model's parameter table declares them.
"""

from __future__ import annotations

import functools

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
        q = T.matmul(x, self._p("wq"), self._p("bq"))
        # no key bias: a shared key offset cancels inside the row softmax
        k = T.matmul(x, self._p("wk"))
        v = T.matmul(x, self._p("wv"), self._p("bv"))
        # one 1 x T row per sample, added to each of its heads' query rows
        key_mask = np.where(np.asarray(mask) > 0.0, 0.0, _ATTN_MASK_VALUE)[:, None, :]
        heads = T.attention(q, k, v, key_mask, self.n_heads)
        return T.matmul(heads, self._p("wo"), self._p("bo"))

    def _ffn(self, x: T.Tensor) -> T.Tensor:
        hidden = T.relu(T.matmul(x, self._p("ffn_w1"), self._p("ffn_b1")))
        return T.matmul(hidden, self._p("ffn_w2"), self._p("ffn_b2"))

    def _ln(self, x: T.Tensor, site: str) -> T.Tensor:
        return T.layernorm_rows(x, self._p(f"{site}_g"), self._p(f"{site}_b"))

    def forward(self, x: T.Tensor, mask: np.ndarray, keep: np.ndarray | None = None) -> T.Tensor:
        """`x` is a (B, T, d) stack with its (B, T) masks; `keep` stacks the
        attention and the feedforward dropout keep masks (each of `x`'s shape),
        or is None for no dropout."""
        attn_keep, ffn_keep = (None, None) if keep is None else keep
        attn = _dropout(self._attention(x, mask), attn_keep)
        x = self._ln(T.add(x, attn), "ln1")
        ff = _dropout(self._ffn(x), ffn_keep)
        return self._ln(T.add(x, ff), "ln2")


@functools.lru_cache(maxsize=128)
def sinusoidal_positions(t_len: int, d_model: int) -> np.ndarray:
    """Standard interleaved sin/cos position table, shape T x d.

    Every forward adds one per modality, so tables are cached per exact
    (T, d) and shared read-only. A prefix of a longer table is not used:
    numpy's vectorized sin and cos may round the tail elements differently.
    """
    pos = np.arange(t_len)[:, None]
    idx = np.arange(d_model)[None, :]
    angle = pos / np.power(10000.0, (2 * (idx // 2)) / d_model)
    table = np.zeros((t_len, d_model))
    table[:, 0::2] = np.sin(angle[:, 0::2])
    table[:, 1::2] = np.cos(angle[:, 1::2])
    table.flags.writeable = False
    return table
