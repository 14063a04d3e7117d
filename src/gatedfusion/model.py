"""Dual-branch gated fusion classifier.

Pipeline per sample pair: linear input projection to a shared width, adaptive
gating (mode-dependent), sinusoidal positions, one transformer encoder per
modality, masked mean pooling per branch, concatenation, two-layer MLP head.
`forward` runs a padded minibatch of pairs as one op sequence on (B, T, d)
stacks; every sample's result is independent of its batchmates and padding.

One table, `_shape_tables`, declares every parameter's (name, shape, init).
The constructor builds the flat parameter vector from it, `parameter_count`
and the parameter budget read it, and `forward` reads each parameter by name
from `FusionModel.slots`. It is also the checkpoint layout.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, asdict

import numpy as np

from . import tensor as T
from .encoder import EncoderLayer, dropout_keep, sinusoidal_positions
from .errors import ConfigError, ShapeError
from .gating import GatingMode, gate_sequence, refine_sequence
from .sequence import PaddedBatch, masked_mean_pool, pad_batch

# More parameters are refused at construction: 181x the README model's 55,109,
# the largest any example, test or benchmark uses
MAX_PARAMETERS = 10_000_000


@dataclass
class ModelConfig:
    d_a: int
    d_t: int
    d_model: int = 32
    n_heads: int = 4
    n_layers: int = 2
    ff_mult: int = 4
    n_classes: int = 3
    gating_mode: GatingMode = GatingMode.CROSS_MODAL
    dropout_rate: float = 0.1
    use_positions: bool = True
    seed: int = 0

    def __post_init__(self):
        try:
            self.gating_mode = GatingMode(self.gating_mode)
        except ValueError:
            raise ConfigError(f"gating_mode must be one of {[m.value for m in GatingMode]}, "
                              f"got {self.gating_mode!r}") from None
        for name in ("d_a", "d_t", "d_model", "n_heads", "n_layers", "ff_mult"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.n_classes < 2:
            raise ConfigError(f"n_classes must be >= 2, got {self.n_classes}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        sizes = _group_sizes(self)
        counts = list(itertools.accumulate(size for _, size in sizes))
        if counts[-1] > MAX_PARAMETERS:
            past = next(name for (name, _), count in zip(sizes, counts) if count > MAX_PARAMETERS)
            raise ConfigError(f"{counts[-1]} parameters exceed the budget of {MAX_PARAMETERS} (model.MAX_PARAMETERS) "
                              f"from {past!r} on: d_a {self.d_a}, d_t {self.d_t}, d_model {self.d_model}, "
                              f"n_layers {self.n_layers}, ff_mult {self.ff_mult}, n_classes {self.n_classes}")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["gating_mode"] = self.gating_mode.value
        return d


def _shape_tables(cfg: ModelConfig):
    """The (name, shape, init) rows before the encoders, of one encoder layer
    (unprefixed), and after: the one declaration of the model's parameters.

    `init` names an entry of `_INIT`: Xavier draws come from the seed's
    generator in table order.
    """
    d, f, c = cfg.d_model, cfg.d_model * cfg.ff_mult, cfg.n_classes
    x, z, o = "xavier", "zeros", "ones"
    # zero gate init: gates start exactly neutral (0.5) with no accidental
    # frame preference; a single output unit has no symmetry to break
    before = [("proj_a.w", (cfg.d_a, d), x), ("proj_a.b", (1, d), z), ("proj_t.w", (cfg.d_t, d), x),
              ("proj_t.b", (1, d), z), ("gate.w_a", (2 * d, 1), z), ("gate.w_t", (2 * d, 1), z),
              ("gate.b_a", (1, 1), z), ("gate.b_t", (1, 1), z)]
    layer = [("wq", (d, d), x), ("wk", (d, d), x), ("wv", (d, d), x), ("wo", (d, d), x), ("bq", (1, d), z),
             ("bv", (1, d), z), ("bo", (1, d), z), ("ln1_g", (1, d), o), ("ln1_b", (1, d), z),
             ("ffn_w1", (d, f), x), ("ffn_b1", (1, f), z), ("ffn_w2", (f, d), x), ("ffn_b2", (1, d), z),
             ("ln2_g", (1, d), o), ("ln2_b", (1, d), z)]
    after = [("head.w1", (2 * d, d), x), ("head.b1", (1, d), z), ("head.w2", (d, c), x), ("head.b2", (1, c), z)]
    return before, layer, after


def _group_sizes(cfg: ModelConfig) -> list[tuple[str, int]]:
    """(name, entry count) of each table row before and after the encoders, and
    of the encoder layers as one group: no walk over the layers."""
    before, layer, after = _shape_tables(cfg)
    sizes = [(name, r * c) for name, (r, c), _ in before]
    sizes.append(("the encoder layers", 2 * cfg.n_layers * sum(r * c for _, (r, c), _ in layer)))
    return sizes + [(name, r * c) for name, (r, c), _ in after]


def parameter_count(cfg: ModelConfig) -> int:
    """The length of `FusionModel(cfg)`'s parameter vector, allocating nothing."""
    return sum(size for _, size in _group_sizes(cfg))


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, (fan_in, fan_out))


_INIT = {"xavier": lambda rng, shape: xavier_uniform(rng, *shape),
         "zeros": lambda rng, shape: np.zeros(shape),
         "ones": lambda rng, shape: np.ones(shape)}


def parameter_table(cfg: ModelConfig):
    """Each parameter's (name, shape, init) in `FusionModel(cfg).parameters()` order."""
    before, layer, after = _shape_tables(cfg)
    yield from before
    for branch in ("enc_a", "enc_t"):
        for i in range(cfg.n_layers):
            yield from ((f"{branch}.{i}.{name}", shape, init) for name, shape, init in layer)
    yield from after


@dataclass
class ForwardResult:
    """Logits (B, 1, C); gates (B, T, 1) per modality, or None without gating."""

    logits: T.Tensor
    gates_a: np.ndarray | None
    gates_t: np.ndarray | None


class FusionModel:
    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        rng = np.random.default_rng(cfg.seed)
        self._params = T.FlatParameters([T.Parameter(name, _INIT[init](rng, shape))
                                         for name, shape, init in parameter_table(cfg)])
        # every parameter by name: forward, its gates and encoder layers read them from here
        self.slots = {p.name: p for p in self._params}
        self.enc_a = [EncoderLayer(f"enc_a.{i}", cfg.n_heads, self.slots) for i in range(cfg.n_layers)]
        self.enc_t = [EncoderLayer(f"enc_t.{i}", cfg.n_heads, self.slots) for i in range(cfg.n_layers)]

    def parameters(self) -> T.FlatParameters:
        """Every parameter, in checkpoint order, packed into one data and one grad vector."""
        return self._params

    def zero_grad(self) -> None:
        self._params.grad.fill(0.0)

    def _dropout_keeps(self, batch_a: PaddedBatch, batch_t: PaddedBatch,
                       rng: np.random.Generator | None) -> tuple:
        """Per branch, each layer's (attention, feedforward) keep masks as one
        (n_layers, 2, B, T, d) array, or n_layers Nones without dropout.

        One draw covers the minibatch, ordered sample by sample, then branch,
        layer and site, each at the sample's valid length, so a sample's draws do
        not depend on its batchmates' or its own padding. Padded rows keep 0.
        """
        cfg = self.cfg
        if rng is None or cfg.dropout_rate <= 0.0:
            return [None] * cfg.n_layers, [None] * cfg.n_layers
        lengths = [b.masks.shape[1] for b in (batch_a, batch_t)]
        # the valid rows in the draw's order, this layout's C order:
        # (B, branch, layer and site, T_max), each row d draws
        valid = np.zeros((len(batch_a.masks), 2, 2 * cfg.n_layers, max(lengths)), dtype=bool)
        valid[:, 0, :, : lengths[0]] = (batch_a.masks > 0)[:, None]
        valid[:, 1, :, : lengths[1]] = (batch_t.masks > 0)[:, None]
        keep = np.zeros((*valid.shape, cfg.d_model))
        keep[valid] = dropout_keep(rng, cfg.dropout_rate, (int(valid.sum()), cfg.d_model))
        return tuple(np.moveaxis(keep[:, j, :, :t], 0, 1).reshape(cfg.n_layers, 2, -1, t, cfg.d_model)
                     for j, t in enumerate(lengths))

    def forward(
        self,
        batch_a: PaddedBatch,
        batch_t: PaddedBatch,
        dropout_rng: np.random.Generator | None = None,
    ) -> ForwardResult:
        """Logits and gates of a padded minibatch of pairs.

        Dropout is on exactly when `dropout_rng` is given.
        """
        (n_a, t_a, width_a), (n_t, t_t, width_t) = batch_a.features.shape, batch_t.features.shape
        if width_a != self.cfg.d_a or width_t != self.cfg.d_t:
            raise ShapeError(
                f"input widths ({width_a}, {width_t}) do not match "
                f"configured ({self.cfg.d_a}, {self.cfg.d_t})"
            )
        if n_a != n_t:
            raise ShapeError(f"batch sizes differ: {n_a} acoustic vs {n_t} textual")
        keeps_a, keeps_t = self._dropout_keeps(batch_a, batch_t, dropout_rng)
        mask_a, mask_t = batch_a.masks, batch_t.masks

        s = self.slots
        xa = T.matmul(T.constant(batch_a.features), s["proj_a.w"], s["proj_a.b"])
        xt = T.matmul(T.constant(batch_t.features), s["proj_t.w"], s["proj_t.b"])

        gates_a = gates_t = None
        mode = self.cfg.gating_mode
        if mode is not GatingMode.NONE:
            means = masked_mean_pool(xa, mask_a), masked_mean_pool(xt, mask_t)
            ctx_a, ctx_t = means[::-1] if mode is GatingMode.CROSS_MODAL else means
            ga = gate_sequence(xa, mask_a, ctx_a, s["gate.w_a"], s["gate.b_a"])
            gt = gate_sequence(xt, mask_t, ctx_t, s["gate.w_t"], s["gate.b_t"])
            xa = refine_sequence(xa, ga)
            xt = refine_sequence(xt, gt)
            gates_a, gates_t = ga.data, gt.data

        if self.cfg.use_positions:
            xa = T.add(xa, T.constant(sinusoidal_positions(t_a, self.cfg.d_model)))
            xt = T.add(xt, T.constant(sinusoidal_positions(t_t, self.cfg.d_model)))
        for layer, keep in zip(self.enc_a, keeps_a):
            xa = layer.forward(xa, mask_a, keep)
        for layer, keep in zip(self.enc_t, keeps_t):
            xt = layer.forward(xt, mask_t, keep)

        pooled = T.concat_cols(masked_mean_pool(xa, mask_a), masked_mean_pool(xt, mask_t))
        hidden = T.relu(T.matmul(pooled, s["head.w1"], s["head.b1"]))
        logits = T.matmul(hidden, s["head.w2"], s["head.b2"])
        return ForwardResult(logits, gates_a, gates_t)

    def loss(self, seq_a: np.ndarray, seq_t: np.ndarray, label: int) -> tuple[T.Tensor, ForwardResult]:
        """Cross-entropy of one pair, run as a batch of one (dropout off)."""
        result = self.forward(pad_batch([seq_a]), pad_batch([seq_t]))
        return T.cross_entropy(result.logits, [label]), result
