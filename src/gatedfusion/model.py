"""Dual-branch gated fusion classifier.

Pipeline per sample pair: linear input projection to a shared width, adaptive
gating (mode-dependent), sinusoidal positions, one transformer encoder per
modality, masked mean pooling per branch, concatenation, two-layer MLP head.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from . import tensor as T
from .encoder import EncoderLayer, xavier_uniform, sinusoidal_positions
from .errors import ConfigError, ShapeError
from .gating import GatingMode, GatingParams, gate_sequence, refine_sequence
from .sequence import MaskedSequence, masked_mean_pool


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

    def to_dict(self) -> dict:
        d = asdict(self)
        d["gating_mode"] = self.gating_mode.value
        return d


@dataclass
class ForwardResult:
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
        self.gating = GatingParams.init(d, rng)
        self.enc_a = [EncoderLayer(f"enc_a.{i}", d, cfg.n_heads, cfg.ff_mult, rng) for i in range(cfg.n_layers)]
        self.enc_t = [EncoderLayer(f"enc_t.{i}", d, cfg.n_heads, cfg.ff_mult, rng) for i in range(cfg.n_layers)]
        self.head_w1 = p("head.w1", xavier_uniform(rng, 2 * d, d))
        self.head_b1 = p("head.b1", np.zeros((1, d)))
        self.head_w2 = p("head.w2", xavier_uniform(rng, d, cfg.n_classes))
        self.head_b2 = p("head.b2", np.zeros((1, cfg.n_classes)))

    def parameters(self) -> list[T.Parameter]:
        params = [self.proj_a_w, self.proj_a_b, self.proj_t_w, self.proj_t_b]
        params += self.gating.parameters()
        for layer in self.enc_a + self.enc_t:
            params += layer.parameters()
        params += [self.head_w1, self.head_b1, self.head_w2, self.head_b2]
        return params

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def forward(
        self,
        seq_a: MaskedSequence,
        seq_t: MaskedSequence,
        dropout_rng: np.random.Generator | None = None,
        tape: T.Tape | None = None,
    ) -> ForwardResult:
        """Logits and gates of one sample pair; dropout is on exactly when `dropout_rng` is given."""
        if seq_a.width != self.cfg.d_a or seq_t.width != self.cfg.d_t:
            raise ShapeError(
                f"input widths ({seq_a.width}, {seq_t.width}) do not match "
                f"configured ({self.cfg.d_a}, {self.cfg.d_t})"
            )
        if tape is None:
            tape = T.Tape()

        xa = T.add(T.matmul(tape.constant(seq_a.features), tape.leaf(self.proj_a_w)), tape.leaf(self.proj_a_b))
        xt = T.add(T.matmul(tape.constant(seq_t.features), tape.leaf(self.proj_t_w)), tape.leaf(self.proj_t_b))

        gates_a = gates_t = None
        mode = self.cfg.gating_mode
        if mode is not GatingMode.NONE:
            g = self.gating
            if mode is GatingMode.CROSS_MODAL:
                ctx_for_a, ctx_mask_a = xt, seq_t.mask
                ctx_for_t, ctx_mask_t = xa, seq_a.mask
            else:
                ctx_for_a, ctx_mask_a = xa, seq_a.mask
                ctx_for_t, ctx_mask_t = xt, seq_t.mask
            ga = gate_sequence(xa, seq_a.mask, ctx_for_a, ctx_mask_a, tape.leaf(g.w_a), tape.leaf(g.b_a))
            gt = gate_sequence(xt, seq_t.mask, ctx_for_t, ctx_mask_t, tape.leaf(g.w_t), tape.leaf(g.b_t))
            xa = refine_sequence(xa, ga)
            xt = refine_sequence(xt, gt)
            gates_a, gates_t = ga.data.copy(), gt.data.copy()

        if self.cfg.use_positions:
            xa = T.add(xa, tape.constant(sinusoidal_positions(seq_a.length, self.cfg.d_model)))
            xt = T.add(xt, tape.constant(sinusoidal_positions(seq_t.length, self.cfg.d_model)))
        for layer in self.enc_a:
            xa = layer.forward(xa, seq_a.mask, self.cfg.dropout_rate, dropout_rng)
        for layer in self.enc_t:
            xt = layer.forward(xt, seq_t.mask, self.cfg.dropout_rate, dropout_rng)

        pooled = T.concat_cols(masked_mean_pool(xa, seq_a.mask), masked_mean_pool(xt, seq_t.mask))
        hidden = T.relu(T.add(T.matmul(pooled, tape.leaf(self.head_w1)), tape.leaf(self.head_b1)))
        logits = T.add(T.matmul(hidden, tape.leaf(self.head_w2)), tape.leaf(self.head_b2))
        return ForwardResult(logits, gates_a, gates_t)

    def loss(self, seq_a: MaskedSequence, seq_t: MaskedSequence, label: int, **kw) -> tuple[T.Tensor, ForwardResult]:
        result = self.forward(seq_a, seq_t, **kw)
        return T.cross_entropy(result.logits, label), result
