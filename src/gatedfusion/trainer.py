"""Mini-batch training loop with SGD/Adam and exact-resume semantics.

`batch_loss` is the one place a minibatch becomes a loss, the mean
cross-entropy: one forward of the padded minibatch on one tape, differentiated
by one backward; the full-model gradcheck checks the same function.
`no_grad_forwards`, the one inference loop, runs forwards that record no tape.

A non-finite loss or gradient raises `NonFiniteError` before the optimizer
steps, with parameters and optimizer state restored to the start of the epoch.

The optimizers work on a model's `FlatParameters`: Adam keeps its first and
second moments as the two rows of one (2, n) array laid out like the parameter
vector, so a step, a snapshot and a restore are whole-vector ops.
`state_arrays()` hands out per-parameter views of them (`m.<name>`, `v.<name>`)
next to the step count `t`, which is what a checkpoint stores; `load_state`
writes such arrays back in place after checking them.

Shuffle and dropout RNGs are derived from (seed, epoch), so a run resumed at
an epoch boundary from a float64 checkpoint (parameters + optimizer state)
reproduces an unbroken run bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ConfigError, ManifestError, NonFiniteError
from .model import FusionModel
from .sequence import pad_batch

SamplePair = tuple[np.ndarray, np.ndarray, int]

# samples per forward in `no_grad_forwards`; results do not depend on it, only
# the padding per forward does
EVAL_CHUNK = 32


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    epochs: int = 30
    batch_size: int = 16
    optimizer: str = "adam"
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ConfigError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.optimizer not in ("sgd", "adam"):
            raise ConfigError(f"optimizer must be 'sgd' or 'adam', got {self.optimizer!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    def to_dict(self) -> dict:
        from dataclasses import asdict

        return asdict(self)


class SGD:
    def __init__(self, params: T.FlatParameters, lr: float):
        self.params = params
        self.lr = lr

    def step(self) -> None:
        self.params.data -= self.lr * self.params.grad

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {}

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        pass

    def snapshot(self) -> None:
        return None

    def restore(self, saved: None) -> None:
        pass


# moment decay rates and denominator epsilon (the defaults of Kingma & Ba)
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    def __init__(self, params: T.FlatParameters, lr: float):
        self.params = params
        self.lr = lr
        self.t = 0
        # row 0 the first moment m, row 1 the second moment v
        self.moments = np.zeros((2, params.data.size))

    def step(self) -> None:
        self.t += 1
        b1, b2 = _ADAM_BETA1, _ADAM_BETA2
        g = self.params.grad
        m, v = self.moments
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        m_hat = m / (1 - b1 ** self.t)
        v_hat = v / (1 - b2 ** self.t)
        self.params.data -= self.lr * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)

    def state_arrays(self) -> dict[str, np.ndarray]:
        """The step count and per-parameter views of the moments, which later steps update."""
        out = {"t": np.array([[float(self.t)]])}
        split = self.params.split
        for p, m, v in zip(self.params, split(self.moments[0]), split(self.moments[1])):
            out[f"m.{p.name}"] = m
            out[f"v.{p.name}"] = v
        return out

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        shapes = {"t": (1, 1)}
        for p in self.params:
            shapes[f"m.{p.name}"] = shapes[f"v.{p.name}"] = p.data.shape
        for key, shape in shapes.items():
            if key not in arrays or arrays[key].shape != shape:
                raise ManifestError(f"optimizer state {key!r} is missing or not of shape {shape}")
        t = arrays["t"][0, 0]
        if not (np.isfinite(t) and t >= 0 and t == int(t)):
            raise ManifestError(f"optimizer state 't' must be a non-negative integer step count, got {t}")
        moments = np.stack([np.concatenate([arrays[f"{row}.{p.name}"].reshape(-1) for p in self.params])
                            for row in "mv"])
        bad = ~np.isfinite(moments)
        bad[1] |= moments[1] < 0
        if bad.any():
            row, index = divmod(int(bad.argmax()), moments.shape[1])
            key = f"{'mv'[row]}.{self.params.name_at(index)}"
            raise ManifestError(f"optimizer state {key!r} holds {moments[row, index]}; "
                                f"m must be finite, v finite and >= 0")
        self.t = int(t)
        self.moments[...] = moments

    def snapshot(self) -> tuple[int, np.ndarray]:
        return self.t, self.moments.copy()

    def restore(self, saved: tuple[int, np.ndarray]) -> None:
        self.t = saved[0]
        self.moments[...] = saved[1]


def make_optimizer(model: FusionModel, cfg: TrainConfig):
    cls = Adam if cfg.optimizer == "adam" else SGD
    return cls(model.parameters(), cfg.learning_rate)


def no_grad_forwards(model: FusionModel, pairs: list[SamplePair]):
    """Each chunk of `EVAL_CHUNK` pairs with its `ForwardResult` (dropout off),
    from a forward under `tensor.no_grad()`; the yield comes after the block,
    since a generator suspended inside it would leave recording off in the caller."""
    for lo in range(0, len(pairs), EVAL_CHUNK):
        chunk = pairs[lo : lo + EVAL_CHUNK]
        seqs_a, seqs_t, _ = zip(*chunk)
        with T.no_grad():
            result = model.forward(pad_batch(seqs_a), pad_batch(seqs_t))
        yield chunk, result


def evaluate(model: FusionModel, pairs: list[SamplePair]) -> tuple[float, float, list[int]]:
    """Mean loss, accuracy, and predictions over a sample list (dropout off)."""
    total, correct, preds = 0.0, 0, []
    for chunk, result in no_grad_forwards(model, pairs):
        labels = [label for _, _, label in chunk]
        with T.no_grad():
            losses = T.cross_entropy(result.logits, labels).data[:, 0, 0]
        for loss, row, label in zip(losses, result.logits.data[:, 0], labels):
            total += float(loss)
            pred = int(np.argmax(row))
            preds.append(pred)
            correct += pred == label
    n = max(len(pairs), 1)
    return total / n, correct / n, preds


def batch_loss(model: FusionModel, batch: list[SamplePair], *,
               dropout_rng: np.random.Generator | None = None) -> tuple[T.Tensor, list[float]]:
    """Mean cross-entropy of a minibatch on one tape, and each sample's loss."""
    seqs_a, seqs_t, labels = zip(*batch)
    result = model.forward(pad_batch(seqs_a), pad_batch(seqs_t), dropout_rng)
    losses = T.cross_entropy(result.logits, labels)
    scale = losses.tape.constant([[1 / len(batch)]])
    return T.sum_all(T.mul(losses, scale)), losses.data[:, 0, 0].tolist()


@dataclass
class TrainResult:
    history: list[dict] = field(default_factory=list)

    @property
    def final_train_loss(self) -> float:
        return self.history[-1]["train_loss"] if self.history else float("nan")


def train(
    model: FusionModel,
    train_pairs: list[SamplePair],
    cfg: TrainConfig,
    val_pairs: list[SamplePair] | None = None,
    start_epoch: int = 0,
    optimizer=None,
) -> TrainResult:
    if not train_pairs:
        raise ConfigError("training set is empty")
    opt = optimizer or make_optimizer(model, cfg)
    result = TrainResult()
    n = len(train_pairs)
    params = model.parameters()
    # every backward of this call reuses the first one's gradient buffers
    grad_buffers = None
    for epoch in range(start_epoch, cfg.epochs):
        snapshot = params.data.copy()
        opt_snapshot = opt.snapshot()
        shuffle_rng = np.random.default_rng([cfg.seed, 7, epoch])
        dropout_rng = np.random.default_rng([cfg.seed, 11, epoch])
        order = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        try:
            for lo in range(0, n, cfg.batch_size):
                batch = [train_pairs[i] for i in order[lo : lo + cfg.batch_size]]
                model.zero_grad()
                loss, losses = batch_loss(model, batch, dropout_rng=dropout_rng)
                grad_buffers = loss.tape.backward(loss, grad_buffers)
                for sample_loss in losses:
                    epoch_loss += sample_loss
                finite = np.isfinite(params.grad)
                if not finite.all():
                    raise NonFiniteError(f"non-finite gradient of {params.name_at(int(finite.argmin()))}")
                opt.step()
        except NonFiniteError as e:
            params.data[...] = snapshot
            opt.restore(opt_snapshot)
            raise NonFiniteError(
                f"training diverged in epoch {epoch}; parameters and optimizer state "
                f"restored to start of epoch: {e}"
            ) from e
        entry = {"epoch": epoch, "train_loss": epoch_loss / n}
        if val_pairs is not None:
            val_loss, val_acc, _ = evaluate(model, val_pairs)
            entry["val_loss"] = val_loss
            entry["val_acc"] = val_acc
        result.history.append(entry)
    return result


def split_pairs(pairs: list[SamplePair], val_fraction: float, seed: int) -> tuple[list[SamplePair], list[SamplePair]]:
    """Deterministic disjoint train/validation split."""
    rng = np.random.default_rng([seed, 13])
    order = rng.permutation(len(pairs))
    n_val = int(round(len(pairs) * val_fraction))
    val_idx = set(order[:n_val].tolist())
    train = [p for i, p in enumerate(pairs) if i not in val_idx]
    val = [p for i, p in enumerate(pairs) if i in val_idx]
    return train, val
