"""Mini-batch training loop with SGD/Adam and exact-resume semantics.

`batch_loss` is the one place a minibatch becomes a loss, the mean
cross-entropy of one forward of the padded minibatch; the full-model gradcheck
checks the same function. `train` makes one tape per call and runs each
minibatch's `batch_loss` inside a `with tape:` block, then one backward;
validation runs outside it. `eval_forwards` runs inference forwards in chunks
outside any block, so they record nothing.

A non-finite loss or gradient raises `NonFiniteError` before the optimizer
steps, as does an Adam step whose second moment overflows, with parameters and
optimizer state restored to the start of the epoch.

An optimizer is `step`, `state` and `load_state`, working on a model's
`FlatParameters`. Its state is a step count `t` and a (k, n) array of rows
laid out like the parameter vector: none for SGD, Adam's moments m and v.
`load_state(t, rows)` checks both by one rule for either optimizer and names a
bad entry `m.<name>` or `v.<name>`. Checkpoints, `--resume` and the epoch
rollback all save and restore through `state()` and `load_state`.

Shuffle and dropout RNGs are derived from (seed, epoch), so a run resumed at
an epoch boundary from a float64 checkpoint (parameters + optimizer state)
reproduces an unbroken run bit for bit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ConfigError, ManifestError, NonFiniteError
from .model import FusionModel
from .sequence import pad_batch

SamplePair = tuple[np.ndarray, np.ndarray, int]

# samples per forward in `eval_forwards`; results do not depend on it, only
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


class _Optimizer:
    """A step count `t` and state `rows`: a (k, n) array laid out like the
    parameter vector, one row per name in `ROWS`. Rows named in `NON_NEGATIVE`
    hold no negative entry."""

    ROWS: tuple[str, ...] = ()
    NON_NEGATIVE: tuple[str, ...] = ()

    def __init__(self, params: T.FlatParameters, lr: float):
        self.params = params
        self.lr = lr
        self.t = 0
        self.rows = np.zeros((len(self.ROWS), params.data.size))

    def state(self) -> tuple[int, np.ndarray]:
        """The step count and the state rows, which later steps update in place."""
        return self.t, self.rows

    def load_state(self, t, rows: np.ndarray) -> None:
        """Take step count `t` and a copy of `rows`; state that no run of this
        optimizer could reach is refused by name, and nothing is loaded."""
        # a float must hold t: Adam's bias correction takes b ** t
        if isinstance(t, bool) or not isinstance(t, numbers.Integral) or not 0 <= t < 2**63:
            raise ManifestError(f"optimizer state 't' must be an integer step count in [0, 2**63), got {t!r}")
        if np.shape(rows) != self.rows.shape:
            raise ManifestError(f"optimizer state of shape {np.shape(rows)} is not {type(self).__name__}'s "
                                f"{self.rows.shape}: rows {list(self.ROWS)} over the parameter vector")
        bad = ~np.isfinite(rows)
        for r in map(self.ROWS.index, self.NON_NEGATIVE):
            bad[r] |= rows[r] < 0
        if bad.any():
            r, index = divmod(int(bad.argmax()), rows.shape[1])
            key = f"{self.ROWS[r]}.{self.params.name_at(index)}"
            raise ManifestError(f"optimizer state {key!r} holds {rows[r, index]}; every entry must be finite, "
                                f"and those of rows {list(self.NON_NEGATIVE)} >= 0")
        self.t = int(t)
        self.rows[...] = rows


class SGD(_Optimizer):
    def step(self) -> None:
        self.t += 1
        self.params.data -= self.lr * self.params.grad


# moment decay rates and denominator epsilon (the defaults of Kingma & Ba)
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


class Adam(_Optimizer):
    # the first moment m and the second moment v
    ROWS = ("m", "v")
    NON_NEGATIVE = ("v",)

    def step(self) -> None:
        self.t += 1
        b1, b2 = _ADAM_BETA1, _ADAM_BETA2
        g = self.params.grad
        m, v = self.rows
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        finite = np.isfinite(v)
        if not finite.all():
            raise NonFiniteError(f"second moment of {self.params.name_at(int(finite.argmin()))} overflowed")
        m_hat = m / (1 - b1 ** self.t)
        v_hat = v / (1 - b2 ** self.t)
        self.params.data -= self.lr * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)


def make_optimizer(model: FusionModel, cfg: TrainConfig):
    cls = Adam if cfg.optimizer == "adam" else SGD
    return cls(model.parameters(), cfg.learning_rate)


def eval_forwards(model: FusionModel, pairs: list[SamplePair]):
    """Each chunk of `EVAL_CHUNK` pairs with its `ForwardResult` (dropout off)."""
    for lo in range(0, len(pairs), EVAL_CHUNK):
        chunk = pairs[lo : lo + EVAL_CHUNK]
        seqs_a, seqs_t, _ = zip(*chunk)
        yield chunk, model.forward(pad_batch(seqs_a), pad_batch(seqs_t))


def evaluate(model: FusionModel, pairs: list[SamplePair]) -> tuple[float, float, list[int]]:
    """Mean loss, accuracy, and predictions over a sample list (dropout off)."""
    total, correct, preds = 0.0, 0, []
    for chunk, result in eval_forwards(model, pairs):
        labels = [label for _, _, label in chunk]
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
    """Mean cross-entropy of a minibatch, and each sample's loss."""
    seqs_a, seqs_t, labels = zip(*batch)
    result = model.forward(pad_batch(seqs_a), pad_batch(seqs_t), dropout_rng)
    losses = T.cross_entropy(result.logits, labels)
    scale = T.constant([[1 / len(batch)]])
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
    tape = T.Tape()
    for epoch in range(start_epoch, cfg.epochs):
        snapshot = params.data.copy()
        opt_t, opt_rows = opt.state()
        opt_rows = opt_rows.copy()
        shuffle_rng = np.random.default_rng([cfg.seed, 7, epoch])
        dropout_rng = np.random.default_rng([cfg.seed, 11, epoch])
        order = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        try:
            for lo in range(0, n, cfg.batch_size):
                batch = [train_pairs[i] for i in order[lo : lo + cfg.batch_size]]
                model.zero_grad()
                with tape:
                    loss, losses = batch_loss(model, batch, dropout_rng=dropout_rng)
                tape.backward(loss)
                for sample_loss in losses:
                    epoch_loss += sample_loss
                finite = np.isfinite(params.grad)
                if not finite.all():
                    raise NonFiniteError(f"non-finite gradient of {params.name_at(int(finite.argmin()))}")
                opt.step()
        except NonFiniteError as e:
            params.data[...] = snapshot
            opt.load_state(opt_t, opt_rows)
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
