"""Mini-batch training loop with SGD/Adam and exact-resume semantics.

`batch_loss` is the one place a minibatch becomes a loss: one forward of the
padded minibatch on one tape, differentiated by one backward; the full-model
gradcheck checks the same function. `evaluate` runs forwards of
`EVAL_CHUNK` samples at a time under `tensor.no_grad()`, so they record no
tape.

A non-finite loss or gradient raises `NonFiniteError` before the optimizer
steps, with parameters and optimizer state restored to the start of the epoch.

Shuffle and dropout RNGs are derived from (seed, epoch), so a run resumed at
an epoch boundary from a float64 checkpoint (parameters + optimizer state)
reproduces an unbroken run bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ConfigError, ManifestError, NonFiniteError
from .model import FusionModel
from .sequence import pad_batch

SamplePair = tuple[np.ndarray, np.ndarray, int]

# samples per forward in `evaluate` (and `analysis.collect_traces`); results do
# not depend on it, only the padding per forward does
EVAL_CHUNK = 32


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    epochs: int = 30
    batch_size: int = 16
    weight_decay: float = 0.0
    optimizer: str = "adam"
    use_class_weights: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ConfigError(f"learning_rate must be >= 0, got {self.learning_rate}")
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
    def __init__(self, params: list[T.Parameter], lr: float, weight_decay: float = 0.0):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay

    def step(self) -> None:
        for p in self.params:
            g = p.grad + self.weight_decay * p.data
            p.data -= self.lr * g

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {}

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        pass


# moment decay rates and denominator epsilon (the defaults of Kingma & Ba)
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    def __init__(self, params: list[T.Parameter], lr: float, weight_decay: float = 0.0):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {p.name: np.zeros_like(p.data) for p in params}
        self.v = {p.name: np.zeros_like(p.data) for p in params}

    def step(self) -> None:
        self.t += 1
        b1, b2 = _ADAM_BETA1, _ADAM_BETA2
        for p in self.params:
            g = p.grad + self.weight_decay * p.data
            m = self.m[p.name] = b1 * self.m[p.name] + (1 - b1) * g
            v = self.v[p.name] = b2 * self.v[p.name] + (1 - b2) * g * g
            m_hat = m / (1 - b1 ** self.t)
            v_hat = v / (1 - b2 ** self.t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)

    def state_arrays(self) -> dict[str, np.ndarray]:
        out = {"t": np.array([[float(self.t)]])}
        for name in self.m:
            out[f"m.{name}"] = self.m[name]
            out[f"v.{name}"] = self.v[name]
        return out

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        shapes = {"t": (1, 1)}
        for p in self.params:
            shapes[f"m.{p.name}"] = shapes[f"v.{p.name}"] = p.data.shape
        for key, shape in shapes.items():
            if key not in arrays or arrays[key].shape != shape:
                raise ManifestError(f"optimizer state {key!r} is missing or not of shape {shape}")
        t = arrays["t"][0, 0]
        if not (np.isfinite(t) and t >= 0):
            raise ManifestError(f"optimizer state 't' must be a finite step count, got {t}")
        self.t = int(t)
        for name in self.m:
            self.m[name] = arrays[f"m.{name}"].copy()
            self.v[name] = arrays[f"v.{name}"].copy()


def make_optimizer(model: FusionModel, cfg: TrainConfig):
    cls = Adam if cfg.optimizer == "adam" else SGD
    return cls(model.parameters(), cfg.learning_rate, cfg.weight_decay)


def evaluate(model: FusionModel, pairs: list[SamplePair]) -> tuple[float, float, list[int]]:
    """Mean loss, accuracy, and predictions over a sample list (dropout off)."""
    total, correct, preds = 0.0, 0, []
    for lo in range(0, len(pairs), EVAL_CHUNK):
        seqs_a, seqs_t, labels = zip(*pairs[lo : lo + EVAL_CHUNK])
        with T.no_grad():
            logits = model.forward(pad_batch(seqs_a), pad_batch(seqs_t)).logits
            losses = T.cross_entropy(logits, labels).data[:, 0, 0]
        for loss, row, label in zip(losses, logits.data[:, 0], labels):
            total += float(loss)
            pred = int(np.argmax(row))
            preds.append(pred)
            correct += pred == label
    n = max(len(pairs), 1)
    return total / n, correct / n, preds


def batch_loss(model: FusionModel, batch: list[SamplePair], weights: np.ndarray | None = None,
               dropout_rng: np.random.Generator | None = None) -> tuple[T.Tensor, list[float]]:
    """Class-weighted mean loss of a minibatch on one tape, and each sample's unweighted loss.

    The loss is sum_i weights[label_i] / B * loss_i; no weights means 1 for
    every class.
    """
    seqs_a, seqs_t, labels = zip(*batch)
    result = model.forward(pad_batch(seqs_a), pad_batch(seqs_t), dropout_rng)
    losses = T.cross_entropy(result.logits, labels)
    w = np.ones(len(batch)) if weights is None else np.asarray(weights, dtype=np.float64)[list(labels)]
    scale = losses.tape.constant((w / len(batch)).reshape(-1, 1, 1))
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
    weights = None
    if cfg.use_class_weights:
        counts = np.bincount([l for _, _, l in train_pairs], minlength=model.cfg.n_classes)
        # total / (C * count_c); a class absent from training gets the weight of a singleton
        weights = len(train_pairs) / (model.cfg.n_classes * np.maximum(counts, 1))

    result = TrainResult()
    n = len(train_pairs)
    params = model.parameters()
    for epoch in range(start_epoch, cfg.epochs):
        snapshot = [p.data.copy() for p in params]
        opt_snapshot = {k: v.copy() for k, v in opt.state_arrays().items()}
        shuffle_rng = np.random.default_rng([cfg.seed, 7, epoch])
        dropout_rng = np.random.default_rng([cfg.seed, 11, epoch])
        order = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        try:
            for lo in range(0, n, cfg.batch_size):
                batch = [train_pairs[i] for i in order[lo : lo + cfg.batch_size]]
                model.zero_grad()
                loss, losses = batch_loss(model, batch, weights, dropout_rng)
                loss.tape.backward(loss)
                for sample_loss in losses:
                    epoch_loss += sample_loss
                for p in params:
                    if not np.isfinite(p.grad).all():
                        raise NonFiniteError(f"non-finite gradient of {p.name}")
                opt.step()
        except NonFiniteError as e:
            for p, saved in zip(params, snapshot):
                p.data[...] = saved
            opt.load_state(opt_snapshot)
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
