"""Dual-branch gated fusion classifier.

Pipeline per sample pair: linear input projection to a shared width, adaptive
gating (mode-dependent), sinusoidal positions, one transformer encoder per
modality, masked mean pooling per branch, concatenation, two-layer MLP head.
`forward` runs a padded minibatch of pairs as one op sequence on (B, T, d)
stacks; every sample's result is independent of its batchmates and padding.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, asdict

import numpy as np

from . import tensor as T
from .encoder import EncoderLayer, dropout_keep, xavier_uniform, sinusoidal_positions
from .errors import ConfigError, ShapeError
from .gating import GatingMode, GatingParams, gate_sequence, refine_sequence
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
        before, layer, after = _shape_tables(self)
        parts = [*before, ("the encoder layers", (2 * self.n_layers, sum(r * c for _, (r, c) in layer))), *after]
        counts = list(itertools.accumulate(r * c for _, (r, c) in parts))
        if counts[-1] > MAX_PARAMETERS:
            past = next(name for (name, _), count in zip(parts, counts) if count > MAX_PARAMETERS)
            raise ConfigError(f"{counts[-1]} parameters exceed the budget of {MAX_PARAMETERS} (model.MAX_PARAMETERS) "
                              f"from {past!r} on: d_a {self.d_a}, d_t {self.d_t}, d_model {self.d_model}, "
                              f"n_layers {self.n_layers}, ff_mult {self.ff_mult}, n_classes {self.n_classes}")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["gating_mode"] = self.gating_mode.value
        return d


def _shape_tables(cfg: ModelConfig):
    """The (name, shape) lists before the encoders, of one encoder layer (unprefixed), and after."""
    d, f, c = cfg.d_model, cfg.d_model * cfg.ff_mult, cfg.n_classes
    before = [("proj_a.w", (cfg.d_a, d)), ("proj_a.b", (1, d)), ("proj_t.w", (cfg.d_t, d)),
              ("proj_t.b", (1, d)), ("gate.w_a", (2 * d, 1)), ("gate.w_t", (2 * d, 1)),
              ("gate.b_a", (1, 1)), ("gate.b_t", (1, 1))]
    layer = [("wq", (d, d)), ("wk", (d, d)), ("wv", (d, d)), ("wo", (d, d)), ("bq", (1, d)), ("bv", (1, d)),
             ("bo", (1, d)), ("ln1_g", (1, d)), ("ln1_b", (1, d)), ("ffn_w1", (d, f)), ("ffn_b1", (1, f)),
             ("ffn_w2", (f, d)), ("ffn_b2", (1, d)), ("ln2_g", (1, d)), ("ln2_b", (1, d))]
    after = [("head.w1", (2 * d, d)), ("head.b1", (1, d)), ("head.w2", (d, c)), ("head.b2", (1, c))]
    return before, layer, after


def parameter_shapes(cfg: ModelConfig):
    """Each parameter's (name, shape) in `FusionModel(cfg).parameters()` order,
    allocating nothing; it repeats the constructors' layout."""
    before, layer, after = _shape_tables(cfg)
    yield from before
    for branch in ("enc_a", "enc_t"):
        for i in range(cfg.n_layers):
            yield from ((f"{branch}.{i}.{name}", shape) for name, shape in layer)
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
        d = cfg.d_model
        p = T.Parameter
        self.proj_a_w = p("proj_a.w", xavier_uniform(rng, cfg.d_a, d))
        self.proj_a_b = p("proj_a.b", np.zeros((1, d)))
        self.proj_t_w = p("proj_t.w", xavier_uniform(rng, cfg.d_t, d))
        self.proj_t_b = p("proj_t.b", np.zeros((1, d)))
        self.gating = GatingParams.init(d)
        self.enc_a = [EncoderLayer(f"enc_a.{i}", d, cfg.n_heads, cfg.ff_mult, rng) for i in range(cfg.n_layers)]
        self.enc_t = [EncoderLayer(f"enc_t.{i}", d, cfg.n_heads, cfg.ff_mult, rng) for i in range(cfg.n_layers)]
        self.head_w1 = p("head.w1", xavier_uniform(rng, 2 * d, d))
        self.head_b1 = p("head.b1", np.zeros((1, d)))
        self.head_w2 = p("head.w2", xavier_uniform(rng, d, cfg.n_classes))
        self.head_b2 = p("head.b2", np.zeros((1, cfg.n_classes)))
        params = [self.proj_a_w, self.proj_a_b, self.proj_t_w, self.proj_t_b]
        params += self.gating.parameters()
        for layer in self.enc_a + self.enc_t:
            params += layer.parameters()
        params += [self.head_w1, self.head_b1, self.head_w2, self.head_b2]
        self._params = T.FlatParameters(params)

    def parameters(self) -> T.FlatParameters:
        """Every parameter, in checkpoint order, packed into one data and one grad vector."""
        return self._params

    def zero_grad(self) -> None:
        self._params.grad.fill(0.0)

    def _dropout_keeps(self, batch_a: PaddedBatch, batch_t: PaddedBatch,
                       rng: np.random.Generator | None) -> tuple[list, list]:
        """Per branch and layer, the (attention, feedforward) keep masks: a (2, B, T, d) array.

        One draw covers the minibatch, ordered sample by sample, then branch,
        layer and site, each at the sample's valid length, so a sample's draws do
        not depend on its batchmates' or its own padding. Padded rows keep 0.
        """
        cfg = self.cfg
        if rng is None or cfg.dropout_rate <= 0.0:
            return [None] * cfg.n_layers, [None] * cfg.n_layers
        batches = (batch_a, batch_t)
        valid = [b.masks.sum(axis=1).astype(int) for b in batches]
        stacks = [np.zeros((cfg.n_layers, 2, *b.masks.shape, cfg.d_model)) for b in batches]
        rows = sum(int(counts.sum()) for counts in valid)
        keep = dropout_keep(rng, cfg.dropout_rate, 2 * cfg.n_layers * rows * cfg.d_model)
        start = 0
        for i in range(len(batch_a.masks)):
            for stack, counts in zip(stacks, valid):
                # valid rows lead each sample
                block = stack[:, :, i, : counts[i]]
                block[...] = keep[start : start + block.size].reshape(block.shape)
                start += block.size
        return list(stacks[0]), list(stacks[1])

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

        xa = T.add(T.matmul(T.constant(batch_a.features), self.proj_a_w), self.proj_a_b)
        xt = T.add(T.matmul(T.constant(batch_t.features), self.proj_t_w), self.proj_t_b)

        gates_a = gates_t = None
        mode = self.cfg.gating_mode
        if mode is not GatingMode.NONE:
            g = self.gating
            means = masked_mean_pool(xa, mask_a), masked_mean_pool(xt, mask_t)
            ctx_a, ctx_t = means[::-1] if mode is GatingMode.CROSS_MODAL else means
            ga = gate_sequence(xa, mask_a, ctx_a, g.w_a, g.b_a)
            gt = gate_sequence(xt, mask_t, ctx_t, g.w_t, g.b_t)
            xa = refine_sequence(xa, ga)
            xt = refine_sequence(xt, gt)
            gates_a, gates_t = ga.data.copy(), gt.data.copy()

        if self.cfg.use_positions:
            xa = T.add(xa, T.constant(sinusoidal_positions(t_a, self.cfg.d_model)))
            xt = T.add(xt, T.constant(sinusoidal_positions(t_t, self.cfg.d_model)))
        for layer, keep in zip(self.enc_a, keeps_a):
            xa = layer.forward(xa, mask_a, keep)
        for layer, keep in zip(self.enc_t, keeps_t):
            xt = layer.forward(xt, mask_t, keep)

        pooled = T.concat_cols(masked_mean_pool(xa, mask_a), masked_mean_pool(xt, mask_t))
        hidden = T.relu(T.add(T.matmul(pooled, self.head_w1), self.head_b1))
        logits = T.add(T.matmul(hidden, self.head_w2), self.head_b2)
        return ForwardResult(logits, gates_a, gates_t)

    def loss(self, seq_a: np.ndarray, seq_t: np.ndarray, label: int) -> tuple[T.Tensor, ForwardResult]:
        """Cross-entropy of one pair, run as a batch of one (dropout off)."""
        result = self.forward(pad_batch([seq_a]), pad_batch([seq_t]))
        return T.cross_entropy(result.logits, [label]), result
