"""Reference tape ops for tests: the op sequences that the fused kernel ops
replace, which each fused op must match bit for bit.

`transpose`, `softmax_rows` and the plain `layernorm_rows` are tape ops in
their own right, as the encoder ran them before `tensor.attention` and the
affine `tensor.layernorm_rows` took them in. `bias_matmul`,
`affine_layernorm` and `attention` compose them with `tensor`'s `matmul`,
`add` and `mul`, one op per step.
"""

import math

import numpy as np

from gatedfusion import tensor as T
from gatedfusion.errors import ShapeError


def transpose(a: T.Tensor, shape: tuple, axes: tuple, out_shape: tuple) -> T.Tensor:
    """View `a` as `shape`, permute its axes as `np.transpose(axes)` does, and
    view one contiguous copy of that as `out_shape`."""
    if math.prod(shape) != a.data.size or math.prod(out_shape) != a.data.size:
        raise ShapeError(f"transpose sizes differ: {a.data.shape} viewed as {shape} and {out_shape}")
    if sorted(axes) != list(range(len(shape))):
        raise ShapeError(f"transpose axes {axes} are not a permutation of {len(shape)} axes")
    permuted = a.data.reshape(shape).transpose(axes)
    out_data = np.ascontiguousarray(permuted).reshape(out_shape)
    return T._out("transpose", out_data, (a, lambda g: (
        g.reshape(permuted.shape).transpose(np.argsort(axes)).reshape(a.data.shape))))


def softmax_rows(x: T.Tensor) -> T.Tensor:
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=-1, keepdims=True)
    return T._out("softmax_rows", out_data,
                  (x, lambda g: out_data * (g - (g * out_data).sum(axis=-1, keepdims=True))))


def layernorm_rows(x: T.Tensor) -> T.Tensor:
    """Per-row standardization, before any gain or bias."""
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + T._LN_EPS)
    out_data = (x.data - mu) * inv

    def vjp(dy):
        n = x.data.shape[-1]
        return inv * (
            dy
            - dy.mean(axis=-1, keepdims=True)
            - out_data * (dy * out_data).sum(axis=-1, keepdims=True) / n
        )

    return T._out("layernorm_rows", out_data, (x, vjp))


def bias_matmul(a: T.Tensor, w: T.Tensor, bias: T.Tensor) -> T.Tensor:
    return T.add(T.matmul(a, w), bias)


def affine_layernorm(x: T.Tensor, gain: T.Tensor, bias: T.Tensor) -> T.Tensor:
    return T.add(T.mul(layernorm_rows(x), gain), bias)


def attention(q: T.Tensor, k: T.Tensor, v: T.Tensor, key_bias: np.ndarray, n_heads: int) -> T.Tensor:
    """Head split, scaled and masked logits, row softmax, weighted values and
    head merge, one op each."""
    b, t, d = q.data.shape
    h, dh = n_heads, d // n_heads
    qh = transpose(q, (b, t, h, dh), (0, 2, 1, 3), (b * h, t, dh))
    kh = transpose(k, (b, t, h, dh), (0, 2, 3, 1), (b * h, dh, t))
    vh = transpose(v, (b, t, h, dh), (0, 2, 1, 3), (b * h, t, dh))
    scores = T.mul(T.matmul(qh, kh), T.constant([[1.0 / np.sqrt(dh)]]))
    attn = softmax_rows(T.add(scores, T.constant(np.repeat(key_bias, h, axis=0))))
    return transpose(T.matmul(attn, vh), (b, h, t, dh), (0, 2, 1, 3), (b, t, d))
