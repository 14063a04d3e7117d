"""Minimal reverse-mode autodiff over float64 matrices and stacks of them.

A value is an m x n matrix or a (B, m, n) stack: B matrices that every op
treats one by one, so a minibatch runs as one op sequence. Parameters are
matrices; a matrix operand broadcasts across a stack, and its gradient sums
over the stack.

Every differentiable value is a `Tensor` tied to a `Tape`. Ops append a
backward closure to the tape; `Tape.backward` replays the closures in exact
reverse order, handing each its output's gradient, and they accumulate partials
additively into operand `.grad` buffers.
`backward` consumes the tape: it drops the recorded steps after the replay, so a
tape serves one backward and leaves no reference cycle behind. Inside a
`no_grad()` block ops record nothing: their outputs are constants, for a forward
run only for its values. A tensor's data is never mutated after construction.

Gradient lifetime: a forward allocates no gradient storage for op outputs. At
backward, the i-th recorded output gets its `.grad` as a zeroed view of the
i-th of a list of gradient buffers, which `backward` returns; passing that list
to the next backward reuses the buffers (replacing one only when it is too
small). `trainer.train` passes one list through all its backward passes, so
each overwrites the last one's op-output gradients, and drops it on return. A
parameter's `.grad` is its own storage (for a model's parameters, a view of the
model's flat gradient vector, see `FlatParameters`) and is never reused this way.

`add(a, b)` and `mul(a, b)` broadcast `b` against `a`, whose matrices are
m x n: `b`'s matrices may be m x n, a 1 x n row, an m x 1 column or a 1 x 1
scalar, and `b` is either a stack of `a`'s length or one matrix. The result has
`a`'s shape. Any other pair of shapes raises `ShapeError`.

`matmul` multiplies matrix by matrix, stack by matrix (one GEMM over the
stacked rows), matrix by stack, or stack by stack. `transpose` permutes the axes
of a value viewed as another shape (a matrix swap, attention's head split and
merge); `concat_cols`, `softmax_rows` and `layernorm_rows` act on the last axis.
`concat_cols(a, b)` appends `b`'s columns to `a`'s: `b` is a stack of `a`'s
length or one matrix, as for `add`, and its matrices have `a`'s rows or one
row, which is repeated down every row of `a`.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, LabelError, NonFiniteError, ShapeError

# exp() overflows beyond this in float64
_EXP_CLAMP = 709.0
# added to the row variance in layernorm_rows
_LN_EPS = 1e-5

# False inside a `no_grad()` block; a context variable, so a block in one
# thread leaves recording on in the others
_recording: ContextVar[bool] = ContextVar("recording", default=True)


@contextmanager
def no_grad():
    """Run ops without recording: their outputs are constants on no tape step.

    Blocks nest; leaving one, by return or by exception, restores the mode
    that held on entry.
    """
    token = _recording.set(False)
    try:
        yield
    finally:
        _recording.reset(token)


class Tensor:
    """A matrix or a stack of matrices, with an optional gradient buffer on a tape.

    grad is None for constants (no gradient is tracked through them), op
    outputs built under `no_grad()` included. A recorded op output gets its
    grad at backward (see the module docstring).
    """

    __slots__ = ("data", "grad", "tape")

    def __init__(self, data: np.ndarray, tape: "Tape", grad: np.ndarray | None):
        self.data = data
        self.grad = grad
        self.tape = tape

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, const={self.grad is None})"


class Parameter:
    """A named learnable matrix with a persistent gradient slot.

    `data` and `grad` are bound once and then written in place: `FlatParameters`
    makes them views into its vectors, and a rebound array would silently drop
    out of them. Assigning any other array raises `AttributeError`; an in-place
    operator such as `p.data *= 2` still works, since it assigns back the same
    array.
    """

    __slots__ = ("name", "data", "grad")

    def __init__(self, name: str, data: np.ndarray):
        self.name = name
        self.data = np.array(data, dtype=np.float64)
        if self.data.ndim != 2:
            raise ShapeError(f"parameter {name!r} must be 2-D, got shape {self.data.shape}")
        self.grad = np.zeros_like(self.data)

    def __setattr__(self, key: str, value) -> None:
        if key != "name" and hasattr(self, key) and value is not getattr(self, key):
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


@dataclass
class Tape:
    """Ordered record of ops from one forward pass."""

    _steps: list = field(default_factory=list)

    def record(self, name: str, out: Tensor, backward) -> None:
        self._steps.append((name, out, backward))

    def leaf(self, param: Parameter) -> Tensor:
        """Enter a parameter; backward accumulates into its grad slot."""
        return Tensor(param.data, self, param.grad)

    def constant(self, data) -> Tensor:
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        return Tensor(arr, self, None)

    def first_nonfinite(self) -> str | None:
        for name, out, _ in self._steps:
            if not np.all(np.isfinite(out.data)):
                return name
        return None

    def backward(self, loss: Tensor, buffers: list[np.ndarray] | None = None) -> list[np.ndarray]:
        """Replay the tape from `loss`, accumulating into every operand's `.grad`.

        The i-th recorded output's gradient is a zeroed view of `buffers[i]`, a
        1-D float64 array that is replaced when it is too small; the list grows
        to the tape's length. Returns the list, for the next backward to reuse.
        """
        if loss.data.size != 1:
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
        if loss.grad is None:
            raise ConfigError("backward needs a recorded loss; this one was built without "
                              "recording (under no_grad) or is a constant")
        if not np.isfinite(loss.data.reshape(-1)[0]):
            culprit = self.first_nonfinite() or "loss"
            raise NonFiniteError(f"non-finite loss; first non-finite intermediate: {culprit!r}")
        buffers = [] if buffers is None else buffers
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
        for _, out, backward in reversed(self._steps):
            backward(out.grad)
        self._steps.clear()
        return buffers


def _out(tape: Tape, name: str, data: np.ndarray, backward) -> Tensor:
    if not _recording.get():
        return Tensor(data, tape, None)
    t = Tensor(data, tape, _GRAD_AT_BACKWARD)
    tape.record(name, t, backward)
    return t


def _swap(x: np.ndarray) -> np.ndarray:
    return np.swapaxes(x, -1, -2)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    sa, sb = a.data.shape, b.data.shape
    if sa[-1] != sb[-2] or (len(sa) == len(sb) == 3 and sa[0] != sb[0]):
        raise ShapeError(f"matmul shapes incompatible: {sa} x {sb}")
    if len(sa) == 3 and len(sb) == 2:
        # a stack times a matrix: one GEMM over all stacked rows
        rows = a.data.reshape(-1, sa[2])
        out_data = (rows @ b.data).reshape(sa[0], sa[1], sb[1])

        def backward(g):
            g = g.reshape(-1, sb[1])
            if a.grad is not None:
                a.grad += (g @ b.data.T).reshape(sa)
            if b.grad is not None:
                b.grad += rows.T @ g
    else:
        out_data = a.data @ b.data

        def backward(g):
            if a.grad is not None:
                a.grad += _unbroadcast(g @ _swap(b.data), sa)
            if b.grad is not None:
                b.grad += _unbroadcast(_swap(a.data) @ g, sb)

    return _out(a.tape, "matmul", out_data, backward)


def _check_broadcast(op: str, a: Tensor, b: Tensor) -> None:
    sa, sb = a.data.shape, b.data.shape
    (m, n), (p, q) = sa[-2:], sb[-2:]
    # b is a stack of a's length or one matrix
    if sb[:-2] not in ((), sa[:-2]) or p not in (1, m) or q not in (1, n):
        raise ShapeError(f"{op} shapes incompatible: {sa} vs {sb}")


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` over the axes that `shape` broadcast along, the stack axis included."""
    if grad.shape == shape:
        return grad
    lead = grad.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(i + lead for i, k in enumerate(shape) if k == 1)
    return grad.sum(axis=axes).reshape(shape)


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("add", a, b)
    out_data = a.data + b.data

    def backward(g):
        if a.grad is not None:
            a.grad += g
        if b.grad is not None:
            b.grad += _unbroadcast(g, b.data.shape)

    return _out(a.tape, "add", out_data, backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("mul", a, b)
    out_data = a.data * b.data

    def backward(g):
        if a.grad is not None:
            a.grad += g * b.data
        if b.grad is not None:
            b.grad += _unbroadcast(g * a.data, b.data.shape)

    return _out(a.tape, "mul", out_data, backward)


def sigmoid(x: Tensor) -> Tensor:
    z = np.clip(x.data, -_EXP_CLAMP, _EXP_CLAMP)
    out_data = np.where(z >= 0, 1.0 / (1.0 + np.exp(-z)), np.exp(z) / (1.0 + np.exp(z)))
    # keep the open interval (0, 1) representable in float64
    out_data = np.clip(out_data, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))

    def backward(g):
        if x.grad is not None:
            x.grad += g * out_data * (1.0 - out_data)

    return _out(x.tape, "sigmoid", out_data, backward)


def relu(x: Tensor) -> Tensor:
    out_data = np.maximum(x.data, 0.0)

    def backward(g):
        if x.grad is not None:
            x.grad += g * (x.data > 0.0)

    return _out(x.tape, "relu", out_data, backward)


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    sa, sb = a.data.shape, b.data.shape
    # b is a stack of a's length or one matrix, with a's rows or one row
    if sb[:-2] not in ((), sa[:-2]) or sb[-2] not in (1, sa[-2]):
        raise ShapeError(f"concat_cols shapes incompatible: {sa} vs {sb}")
    na = sa[-1]
    out_data = np.concatenate([a.data, np.broadcast_to(b.data, sa[:-1] + sb[-1:])], axis=-1)

    def backward(g):
        if a.grad is not None:
            a.grad += g[..., :na]
        if b.grad is not None:
            b.grad += _unbroadcast(g[..., na:], sb)

    return _out(a.tape, "concat_cols", out_data, backward)


def transpose(a: Tensor, shape: tuple, axes: tuple, out_shape: tuple) -> Tensor:
    """View `a` as `shape`, permute its axes as `np.transpose(axes)` does, and
    view one contiguous copy of that as `out_shape`."""
    if math.prod(shape) != a.data.size or math.prod(out_shape) != a.data.size:
        raise ShapeError(f"transpose sizes differ: {a.data.shape} viewed as {shape} and {out_shape}")
    if sorted(axes) != list(range(len(shape))):
        raise ShapeError(f"transpose axes {axes} are not a permutation of {len(shape)} axes")
    permuted = a.data.reshape(shape).transpose(axes)
    out_data = np.ascontiguousarray(permuted).reshape(out_shape)

    def backward(g):
        if a.grad is not None:
            g = g.reshape(permuted.shape).transpose(np.argsort(axes))
            a.grad += g.reshape(a.data.shape)

    return _out(a.tape, "transpose", out_data, backward)


def softmax_rows(x: Tensor) -> Tensor:
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        if x.grad is not None:
            dot = (g * out_data).sum(axis=-1, keepdims=True)
            x.grad += out_data * (g - dot)

    return _out(x.tape, "softmax_rows", out_data, backward)


def layernorm_rows(x: Tensor) -> Tensor:
    """Per-row standardization, pre-affine (apply gain/bias via mul/add)."""
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    out_data = (x.data - mu) * inv

    def backward(dy):
        if x.grad is not None:
            n = x.data.shape[-1]
            x.grad += inv * (
                dy
                - dy.mean(axis=-1, keepdims=True)
                - out_data * (dy * out_data).sum(axis=-1, keepdims=True) / n
            )

    return _out(x.tape, "layernorm_rows", out_data, backward)


def sum_all(x: Tensor) -> Tensor:
    out_data = np.array([[x.data.sum()]])

    def backward(g):
        if x.grad is not None:
            x.grad += g[0, 0]

    return _out(x.tape, "sum_all", out_data, backward)


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

    def backward(g):
        if logits.grad is not None:
            d = p.copy()
            d[picked, labels] -= 1.0
            logits.grad += (g.reshape(-1, 1) * d).reshape(shape)

    return _out(logits.tape, "cross_entropy", out_data, backward)


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


def gradcheck(loss_fn, params: list[Parameter], step: float = 1e-5, tol: float = 1e-4) -> GradcheckReport:
    """Compare analytic gradients of loss_fn against central finite differences.

    loss_fn must rebuild the forward pass on a fresh tape each call and return
    the scalar loss Tensor; it reads the current contents of `params`. The
    finite-difference probes run it under `no_grad()`. A NaN relative error
    fails its entry.
    """
    if not (math.isfinite(step) and step > 0):
        raise ConfigError(f"gradcheck step must be finite and > 0, got {step}")
    if not (math.isfinite(tol) and tol >= 0):
        raise ConfigError(f"gradcheck tol must be finite and >= 0, got {tol}")
    for p in params:
        p.zero_grad()
    loss = loss_fn()
    loss.tape.backward(loss)
    analytic = {p.name: p.grad.copy() for p in params}

    def value() -> float:
        with no_grad():
            return loss_fn().item()

    entries = []
    for p in params:
        g_a = analytic[p.name]
        rels = []
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            f_plus = value()
            flat[i] = orig - step
            f_minus = value()
            flat[i] = orig
            g_n = (f_plus - f_minus) / (2.0 * step)
            g = g_a.reshape(-1)[i]
            rels.append(abs(g - g_n) / max(abs(g), abs(g_n), 1e-8))
        max_rel = float(np.max(rels))
        entries.append(GradcheckEntry(p.name, max_rel, max_rel <= tol))
    return GradcheckReport(entries, tol)
