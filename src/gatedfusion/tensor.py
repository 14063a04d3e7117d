"""Minimal reverse-mode autodiff over float64 matrices and stacks of them.

A value is an m x n matrix or a (B, m, n) stack: B matrices that every op
treats one by one, so a minibatch runs as one op sequence. Parameters are
matrices; a matrix operand broadcasts across a stack, and its gradient sums
over the stack.

Recording is scoped by blocks. Inside `with tape:` every op appends its
output and one `(operand, vjp)` pair per operand to `tape`, the innermost open
block's tape; a vjp (vector-Jacobian product) maps the output's gradient to
that operand's share of it. Outside any block ops record nothing and their
outputs are constants, for a forward run only for its values; an op checks for
an open block before it builds any vjp, so such a forward builds none. Blocks
nest, and leaving one restores the tape of the block around it; a block left
by an exception drops the steps it recorded. `Tape.backward(loss)` walks the
record in exact reverse order and adds each vjp's share into its operand's
`.grad`, calling only the vjps of operands that track a gradient; it is the
one place that writes a gradient. A backward, returned or raised, clears the
tape's record, so a tape serves one backward per recorded loss and can then
record again. A `Parameter` is a tensor whose `.grad` persists, so ops take it
as it is; `constant` makes a tensor with no gradient. A tensor's data is never
mutated after construction.

Gradient lifetime is per tape: a forward allocates no gradient storage for op
outputs. At backward, the i-th recorded output gets its `.grad` as a zeroed
view of the tape's i-th gradient buffer, which the tape keeps for its next
backward (replacing one only when it is too small). `trainer.train` records
every minibatch of a call on one tape, so each backward overwrites the last
one's op-output gradients, and the buffers go with the tape on return. A
parameter's `.grad` is its own storage (for a model's parameters, a view of the
model's flat gradient vector, see `FlatParameters`) and is never reused this way.

A second operand `b` of `add`, `mul` and `matmul`, a bias of `matmul` and
the gain and bias of `layernorm_rows` follow one stack rule (`_groups`): each
is one matrix, which serves every matrix of `a`, or a stack whose length K
divides the length N of `a`'s stack, whose k-th matrix serves the k-th group of
N / K consecutive matrices of `a`. K = N is the one by one case; K < N lets a
stack of K parameter copies serve K copies of a minibatch, which is how the
full-model gradcheck runs all of a parameter's probes in one forward (see
`diagnostics`). Each such operand is grouped or not on its own, and a grouped
operand's gradient sums over its group. For `add`, `mul` and the bias and
gain operands only K < N takes the grouped code: its (K, N / K, m, n) views
cost about 10% of training throughput when K = N (one-fold ablation training
on a 2-core host), so a same-length stack, as in the gates, keeps the plain
stacked code.

`add(a, b)` and `mul(a, b)` broadcast `b`'s matrices against `a`'s, which are
m x n: `b`'s may be m x n, a 1 x n row, an m x 1 column or a 1 x 1 scalar. The
result has `a`'s shape. `matmul` runs one GEMM per matrix of `b`, over the
rows of `a` that it serves. `concat_cols`, `layernorm_rows` and `attention`'s
softmax act on the last axis. `concat_cols(a, b)` appends `b`'s columns to
`a`'s: `b` is a stack of `a`'s length or one matrix, and its matrices have
`a`'s rows or one row, which is repeated down every row of `a`. Any other pair
of shapes raises `ShapeError`.

Three ops each do the work of a chain of simpler ones that every encoder layer
repeats, so a step records fewer ops:
- `matmul(a, w, bias)` is a matmul followed by `add(_, bias)`, recorded as
  "matmul";
- `layernorm_rows(x, gain, bias)` standardizes rows, then multiplies by `gain`
  and adds `bias` as `mul` and `add` would, recorded as "layernorm_rows";
- `attention(q, k, v, key_bias, n_heads)` splits heads onto the stack axis,
  takes scaled and key-masked logits, their row softmax, the weighted values
  and merges the heads back, recorded as "softmax_rows".
Each runs the chain's numpy expressions in the chain's order, so its output
and every operand's gradient equal the chain's bit for bit, and it lists its
`(operand, vjp)` pairs in the order the chain's backward reached the
operands. Backward work that its operands share, attention's gradient of the
logits, is computed once per backward, by whichever of their vjps runs first.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, LabelError, NonFiniteError, ShapeError

# exp() overflows beyond this in float64
_EXP_CLAMP = 709.0
# added to the row variance in layernorm_rows
_LN_EPS = 1e-5

# the tape of the innermost open `with tape:` block, or None; a context
# variable, so a block open in one thread records nothing from the others
_open_tape: ContextVar["Tape | None"] = ContextVar("open_tape", default=None)


class Tensor:
    """A matrix or a stack of matrices, with an optional gradient buffer.

    grad is None for constants (no gradient is tracked through them), op
    outputs built outside any `with tape:` block included. A recorded op
    output gets its grad at backward (see the module docstring).
    """

    __slots__ = ("data", "grad")

    def __init__(self, data: np.ndarray, grad: np.ndarray | None = None):
        self.data = data
        self.grad = grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, const={self.grad is None})"


def constant(data) -> Tensor:
    """A tensor with no gradient; a 1-D array becomes one row."""
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    return Tensor(arr)


class Parameter(Tensor):
    """A named learnable matrix whose gradient slot persists across backwards.

    `data` and `grad` are bound once and then written in place: `FlatParameters`
    makes them views into its vectors, and a rebound array would silently drop
    out of them. Assigning any other array raises `AttributeError`; an in-place
    operator such as `p.data *= 2` still works, since it assigns back the same
    array.
    """

    __slots__ = ("name",)

    def __init__(self, name: str, data: np.ndarray):
        self.name = name
        self.data = np.array(data, dtype=np.float64)
        if self.data.ndim != 2:
            raise ShapeError(f"parameter {name!r} must be 2-D, got shape {self.data.shape}")
        self.grad = np.zeros_like(self.data)

    def __setattr__(self, key: str, value) -> None:
        # an unset slot reads as `value` itself, so the first binding passes
        if key != "name" and value is not getattr(self, key, value):
            raise AttributeError(f"{self.name}.{key} cannot be rebound; write into it in place")
        object.__setattr__(self, key, value)

    def zero_grad(self) -> None:
        self.grad.fill(0.0)


class FlatParameters(tuple):
    """Parameters packed in order into one float64 vector `data` and one `grad`.

    Each parameter's `data` and `grad` become views into them, so a job over
    every parameter (zeroing gradients, a finiteness check, a snapshot, an
    optimizer step) is one whole-vector op. `split` cuts any vector laid out
    like `data` into per-parameter views.
    """

    def __new__(cls, params):
        self = super().__new__(cls, params)
        self.data = np.concatenate([p.data.reshape(-1) for p in self])
        self.grad = np.zeros_like(self.data)
        self._ends = np.cumsum([p.data.size for p in self])
        for p, data, grad in zip(self, self.split(self.data), self.split(self.grad)):
            object.__setattr__(p, "data", data)
            object.__setattr__(p, "grad", grad)
        return self

    def split(self, vector: np.ndarray) -> list[np.ndarray]:
        """Views of `vector`, one per parameter in the parameter's shape."""
        starts = [0, *self._ends[:-1].tolist()]
        return [vector[lo : lo + p.data.size].reshape(p.data.shape) for p, lo in zip(self, starts)]

    def name_at(self, index: int) -> str:
        """The name of the parameter that holds entry `index` of `data`."""
        return self[int(np.searchsorted(self._ends, index, side="right"))].name


# a recorded output's gradient until `Tape.backward` gives it a buffer's view;
# read-only, so an accumulation into it before then raises
_GRAD_AT_BACKWARD = np.zeros(0)
_GRAD_AT_BACKWARD.flags.writeable = False


class Tape:
    """Ordered record of the ops run inside its `with` blocks, and the gradient
    buffers its backward passes reuse."""

    def __init__(self):
        self._steps: list = []
        self._buffers: list[np.ndarray] = []
        # per open block: the token that restores the outer tape, and the
        # number of steps recorded before the block
        self._blocks: list = []

    def __enter__(self) -> "Tape":
        self._blocks.append((_open_tape.set(self), len(self._steps)))
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        token, start = self._blocks.pop()
        _open_tape.reset(token)
        if exc_type is not None:
            del self._steps[start:]

    def record(self, name: str, out: Tensor, vjps: tuple) -> None:
        self._steps.append((name, out, vjps))

    def first_nonfinite(self) -> str | None:
        for name, out, _ in self._steps:
            if not np.all(np.isfinite(out.data)):
                return name
        return None

    def backward(self, loss: Tensor) -> None:
        """Replay the record from `loss`, adding each vjp's share into its
        operand's `.grad`, then clear it, also when this raises.

        The i-th recorded output's gradient is a zeroed view of the tape's i-th
        buffer, a 1-D float64 array that is replaced when it is too small.
        """
        try:
            if not any(out is loss for _, out, _ in reversed(self._steps)):
                raise ConfigError("backward needs a loss this tape recorded and has not yet "
                                  "differentiated; this one was built outside its `with` block "
                                  "or on another tape, or is a constant")
            if loss.data.size != 1:
                raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
            if not np.isfinite(loss.data.reshape(-1)[0]):
                culprit = self.first_nonfinite() or "loss"
                raise NonFiniteError(f"non-finite loss; first non-finite intermediate: {culprit!r}")
            buffers = self._buffers
            for i, (_, out, _) in enumerate(self._steps):
                size = out.data.size
                if i == len(buffers):
                    buffers.append(np.empty(size))
                elif buffers[i].size < size:
                    buffers[i] = np.empty(size)
                grad = buffers[i][:size]
                grad.fill(0.0)
                out.grad = grad.reshape(out.data.shape)
            loss.grad[...] = 1.0
            for _, out, vjps in reversed(self._steps):
                for operand, vjp in vjps:
                    if operand.grad is not None:
                        operand.grad += vjp(out.grad)
        finally:
            self._steps.clear()


def _out(name: str, data: np.ndarray, *vjps) -> Tensor:
    """The op output `data`, recorded with its `(operand, vjp)` pairs when a
    block is open."""
    tape = _open_tape.get()
    if tape is None:
        return Tensor(data)
    t = Tensor(data, _GRAD_AT_BACKWARD)
    tape.record(name, t, vjps)
    return t


def _swap(x: np.ndarray) -> np.ndarray:
    return np.swapaxes(x, -1, -2)


def _groups(op: str, sa: tuple, sb: tuple) -> int:
    """The number of matrices in a second operand of shape `sb` against a first
    of shape `sa`, 0 for one matrix, under the module's stack rule: a stack's
    length must divide the length of `a`'s stack."""
    if len(sb) == 2:
        return 0
    if len(sa) == len(sb) == 3 and (sb[0] == sa[0] or sb[0] and sa[0] % sb[0] == 0):
        return sb[0]
    raise ShapeError(f"{op} shapes incompatible: {sa} vs {sb}")


def _by_group(x: np.ndarray, k: int) -> np.ndarray:
    """A stack viewed as k groups of consecutive matrices, (k, N / k, m, n)."""
    return x.reshape(k, -1, *x.shape[1:])


def _grouped(op: str, sa: tuple, sb: tuple) -> int:
    """For a second operand of `add`'s or `mul`'s kind, of shape `sb` against
    a first of shape `sa`: its group count K if it is a grouped stack (K < N),
    else 0 (one matrix or a same-length stack, which broadcast plainly), after
    checking that its matrices broadcast against `a`'s."""
    (m, n), (p, q) = sa[-2:], sb[-2:]
    if p not in (1, m) or q not in (1, n):
        raise ShapeError(f"{op} shapes incompatible: {sa} vs {sb}")
    k = _groups(op, sa, sb)
    return k if k != sa[0] else 0


def _plus(x: np.ndarray, b: np.ndarray, k: int) -> np.ndarray:
    """x + b, b's k-th matrix serving x's k-th group when `k` (`_grouped`)."""
    if k:
        return (_by_group(x, k) + b[:, None]).reshape(x.shape)
    return x + b


def _times(x: np.ndarray, b: np.ndarray, k: int) -> np.ndarray:
    """x * b, b's k-th matrix serving x's k-th group when `k` (`_grouped`)."""
    if k:
        return (_by_group(x, k) * b[:, None]).reshape(x.shape)
    return x * b


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` over the axes that `shape` broadcast along, the stack axis included."""
    if grad.shape == shape:
        return grad
    lead = grad.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(i + lead for i, k in enumerate(shape) if k == 1)
    return grad.sum(axis=axes).reshape(shape)


def _share(g: np.ndarray, k: int, sb: tuple) -> np.ndarray:
    """The gradient of a second operand of shape `sb` from its share `g` of
    `a`'s shape: summed over `b`'s broadcast axes, and over each group when
    `k` (`_grouped`)."""
    if k:
        return _unbroadcast(_by_group(g, k), (k, 1, *sb[1:])).reshape(sb)
    return _unbroadcast(g, sb)


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """a @ b, plus `bias` as `add` adds its second operand when one is given.

    `a`'s rows are viewed as one block per matrix of `b` (`_groups`), and each
    block is one GEMM: all rows against a matrix `b`, or group k's rows against
    matrix k of a stack. A matrix `a` takes only a matrix `b`.
    """
    sa, sb = a.data.shape, b.data.shape
    if sa[-1] != sb[-2]:
        raise ShapeError(f"matmul shapes incompatible: {sa} x {sb}")
    k = _groups("matmul", sa, sb)
    lead = (k,) if k else ()
    rows = a.data.reshape(*lead, -1, sa[-1])
    out_data = (rows @ b.data).reshape(*sa[:-1], sb[-1])
    if bias is not None:
        kb = _grouped("matmul", out_data.shape, bias.data.shape)
        out_data = _plus(out_data, bias.data, kb)
    if _open_tape.get() is None:
        return Tensor(out_data)
    vjps = ((a, lambda g: (g.reshape(*lead, -1, sb[-1]) @ _swap(b.data)).reshape(sa)),
            (b, lambda g: _swap(rows) @ g.reshape(*lead, -1, sb[-1])))
    if bias is not None:
        vjps = ((bias, lambda g: _share(g, kb, bias.data.shape)), *vjps)
    return _out("matmul", out_data, *vjps)


def add(a: Tensor, b: Tensor) -> Tensor:
    sb = b.data.shape
    k = _grouped("add", a.data.shape, sb)
    out_data = _plus(a.data, b.data, k)
    if _open_tape.get() is None:
        return Tensor(out_data)
    return _out("add", out_data, (a, lambda g: g), (b, lambda g: _share(g, k, sb)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    sb = b.data.shape
    k = _grouped("mul", a.data.shape, sb)
    out_data = _times(a.data, b.data, k)
    if _open_tape.get() is None:
        return Tensor(out_data)
    return _out("mul", out_data,
                (a, lambda g: _times(g, b.data, k)), (b, lambda g: _share(g * a.data, k, sb)))


def sigmoid(x: Tensor) -> Tensor:
    z = np.clip(x.data, -_EXP_CLAMP, _EXP_CLAMP)
    out_data = np.where(z >= 0, 1.0 / (1.0 + np.exp(-z)), np.exp(z) / (1.0 + np.exp(z)))
    # keep the open interval (0, 1) representable in float64
    out_data = np.clip(out_data, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))
    if _open_tape.get() is None:
        return Tensor(out_data)
    return _out("sigmoid", out_data, (x, lambda g: g * out_data * (1.0 - out_data)))


def relu(x: Tensor) -> Tensor:
    out_data = np.maximum(x.data, 0.0)
    if _open_tape.get() is None:
        return Tensor(out_data)
    return _out("relu", out_data, (x, lambda g: g * (x.data > 0.0)))


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    sa, sb = a.data.shape, b.data.shape
    # b is a stack of a's length or one matrix, with a's rows or one row
    if sb[:-2] not in ((), sa[:-2]) or sb[-2] not in (1, sa[-2]):
        raise ShapeError(f"concat_cols shapes incompatible: {sa} vs {sb}")
    na = sa[-1]
    out_data = np.concatenate([a.data, np.broadcast_to(b.data, sa[:-1] + sb[-1:])], axis=-1)
    if _open_tape.get() is None:
        return Tensor(out_data)
    return _out("concat_cols", out_data,
                (a, lambda g: g[..., :na]), (b, lambda g: _unbroadcast(g[..., na:], sb)))


def layernorm_rows(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Per-row standardization, times `gain` and plus `bias` as `mul` and `add`
    take their second operand."""
    sg, sb = gain.data.shape, bias.data.shape
    kg = _grouped("layernorm_rows", x.data.shape, sg)
    kb = _grouped("layernorm_rows", x.data.shape, sb)
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    normed = (x.data - mu) * inv
    out_data = _plus(_times(normed, gain.data, kg), bias.data, kb)
    if _open_tape.get() is None:
        return Tensor(out_data)

    def vjp(g):
        dy = _times(g, gain.data, kg)
        n = x.data.shape[-1]
        return inv * (
            dy
            - dy.mean(axis=-1, keepdims=True)
            - normed * (dy * normed).sum(axis=-1, keepdims=True) / n
        )

    return _out("layernorm_rows", out_data,
                (bias, lambda g: _share(g, kb, sb)), (gain, lambda g: _share(g * normed, kg, sg)), (x, vjp))


def attention(q: Tensor, k: Tensor, v: Tensor, key_bias: np.ndarray, n_heads: int) -> Tensor:
    """Scaled dot-product attention of `n_heads` heads over (B, T, d) stacks of
    queries, keys and values, with the (B, 1, T) `key_bias` added to every
    head's logits; the heads' outputs side by side, (B, T, d).

    Heads ride the stack axis: row i*H + j of a (B*H, T, d/H) head stack is
    head j of sample i. The head stacks are contiguous copies, so that every
    product is one batched GEMM.
    """
    b, t, d = shape = q.data.shape
    h = n_heads
    if k.data.shape != shape or v.data.shape != shape or d % h or np.shape(key_bias) != (b, 1, t):
        raise ShapeError(f"attention shapes incompatible: {shape}, {k.data.shape}, {v.data.shape}, "
                         f"key bias {np.shape(key_bias)}, {h} heads")
    dh = d // h
    scale = 1.0 / np.sqrt(dh)
    qh = np.ascontiguousarray(q.data.reshape(b, t, h, dh).transpose(0, 2, 1, 3)).reshape(b * h, t, dh)
    kh = np.ascontiguousarray(k.data.reshape(b, t, h, dh).transpose(0, 2, 3, 1)).reshape(b * h, dh, t)
    vh = np.ascontiguousarray(v.data.reshape(b, t, h, dh).transpose(0, 2, 1, 3)).reshape(b * h, t, dh)
    attn = qh @ kh
    attn *= scale
    by_sample = attn.reshape(b, h, t, t)
    by_sample += key_bias[:, None]
    # the row softmax, in place
    attn -= attn.max(axis=-1, keepdims=True)
    np.exp(attn, out=attn)
    attn /= attn.sum(axis=-1, keepdims=True)
    out_data = np.ascontiguousarray((attn @ vh).reshape(b, h, t, dh).transpose(0, 2, 1, 3)).reshape(shape)
    if _open_tape.get() is None:
        return Tensor(out_data)

    shared = []

    def head_grads(g):
        """The gradients of the output head stack and of the logits, computed
        once for the three operands."""
        if not shared:
            d_out = np.ascontiguousarray(g.reshape(b, t, h, dh).transpose(0, 2, 1, 3)).reshape(b * h, t, dh)
            d_attn = d_out @ _swap(vh)
            d_logits = attn * (d_attn - (d_attn * attn).sum(axis=-1, keepdims=True))
            d_logits *= scale
            shared.extend((d_out, d_logits))
        return shared

    def merged(heads, axes):
        """A head stack back in (B, T, d) layout, its head axes permuted by `axes`."""
        return heads.reshape(b, h, *heads.shape[1:]).transpose(axes).reshape(shape)

    return _out("softmax_rows", out_data,
                (v, lambda g: merged(_swap(attn) @ head_grads(g)[0], (0, 2, 1, 3))),
                (k, lambda g: merged(_swap(qh) @ head_grads(g)[1], (0, 3, 1, 2))),
                (q, lambda g: merged(head_grads(g)[1] @ _swap(kh), (0, 2, 1, 3))))


def sum_all(x: Tensor) -> Tensor:
    out_data = np.array([[x.data.sum()]])
    if _open_tape.get() is None:
        return Tensor(out_data)
    return _out("sum_all", out_data, (x, lambda g: g[0, 0]))


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """-log softmax(row)[label] of each 1 x C logit row.

    A 1 x C row with one label gives 1 x 1; a (B, 1, C) stack with B labels
    gives (B, 1, 1).
    """
    shape = logits.data.shape
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    if shape[-2] != 1 or labels.size != (shape[0] if len(shape) == 3 else 1):
        raise ShapeError(f"cross_entropy expects 1xC rows and one label each, "
                         f"got {shape} and {labels.size} labels")
    n = shape[-1]
    if labels.min() < 0 or labels.max() >= n:
        raise LabelError(f"labels {labels.tolist()} outside [0, {n})")
    rows = logits.data.reshape(-1, n)
    shifted = rows - rows.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=1, keepdims=True)
    picked = np.arange(labels.size)
    out_data = (-np.log(p[picked, labels])).reshape(shape[:-1] + (1,))
    if _open_tape.get() is None:
        return Tensor(out_data)

    def vjp(g):
        d = p.copy()
        d[picked, labels] -= 1.0
        return (g.reshape(-1, 1) * d).reshape(shape)

    return _out("cross_entropy", out_data, (logits, vjp))


@dataclass
class GradcheckEntry:
    name: str
    max_rel_err: float
    passed: bool


@dataclass
class GradcheckReport:
    entries: list[GradcheckEntry]
    tol: float

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    @property
    def worst(self) -> float:
        # np.max keeps a NaN; the builtin max may drop it
        return float(np.max([e.max_rel_err for e in self.entries]))

    def __str__(self) -> str:
        lines = [
            f"{'PASS' if e.passed else 'FAIL'}  {e.name:<32s} max rel err {e.max_rel_err:.3e}"
            for e in self.entries
        ]
        return "\n".join(lines)


def probe_one_at_a_time(loss_fn):
    """The default probe of `gradcheck`: for each entry of a parameter in turn,
    `loss_fn()` with the entry moved by +step, then by -step, run with no block
    open. The entry is restored after each, also when `loss_fn` raises."""

    def probe(p: Tensor, step: float) -> np.ndarray:
        flat = p.data.reshape(-1)
        losses = np.empty((2, flat.size))
        for i in range(flat.size):
            orig = flat[i]
            try:
                flat[i] = orig + step
                losses[0, i] = loss_fn().item()
                flat[i] = orig - step
                losses[1, i] = loss_fn().item()
            finally:
                flat[i] = orig
        return losses

    return probe


def gradcheck(loss_fn, params: list[Parameter], step: float = 1e-5, tol: float = 1e-4,
              probe=None) -> GradcheckReport:
    """Compare analytic gradients of loss_fn against central finite differences.

    loss_fn builds the scalar loss Tensor from the current contents of
    `params`; it runs once inside a `with Tape()` block for the analytic
    gradient. `probe(p, step)` gives the finite-difference probe losses of
    parameter `p`, a (2, p.data.size) array: row 0 the loss with entry i of
    `p.data` (in flat order) moved by +step, row 1 by -step, every other entry
    as it is. It must leave `p` as it found it. The default,
    `probe_one_at_a_time(loss_fn)`, runs loss_fn once per probe with no block
    open, so the probes record nothing; `diagnostics.grouped_probe` gives the
    same losses from one forward per parameter. A NaN relative error fails its
    entry.
    """
    if not (math.isfinite(step) and step > 0):
        raise ConfigError(f"gradcheck step must be finite and > 0, got {step}")
    if not (math.isfinite(tol) and tol >= 0):
        raise ConfigError(f"gradcheck tol must be finite and >= 0, got {tol}")
    if probe is None:
        probe = probe_one_at_a_time(loss_fn)
    for p in params:
        p.zero_grad()
    with Tape() as tape:
        loss = loss_fn()
    tape.backward(loss)
    analytic = {p.name: p.grad.copy() for p in params}

    entries = []
    for p in params:
        f_plus, f_minus = probe(p, step)
        g_n = (f_plus - f_minus) / (2.0 * step)
        g = analytic[p.name].reshape(-1)
        # np.maximum and np.max keep a NaN; the builtin max may drop it
        rels = np.abs(g - g_n) / np.maximum(np.maximum(np.abs(g), np.abs(g_n)), 1e-8)
        max_rel = float(np.max(rels))
        entries.append(GradcheckEntry(p.name, max_rel, max_rel <= tol))
    return GradcheckReport(entries, tol)
