"""End-to-end gradient verification for the full classifier.

Builds a deliberately tiny model (every parameter still present), a fixed
2-sample batch, and runs the finite-difference gradcheck over all parameters
of the loss the trainer minimises (`trainer.batch_loss`), with dropout off in
float64.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .gating import GatingMode
from .model import FusionModel, ModelConfig
from .trainer import batch_loss


def tiny_config(gating_mode: GatingMode, seed: int = 3) -> ModelConfig:
    return ModelConfig(
        d_a=5,
        d_t=4,
        d_model=8,
        n_heads=2,
        n_layers=1,
        ff_mult=2,
        n_classes=3,
        gating_mode=gating_mode,
        dropout_rate=0.0,
        seed=seed,
    )


def probe_batch(cfg: ModelConfig, seed: int = 11) -> list[tuple[np.ndarray, np.ndarray, int]]:
    rng = np.random.default_rng(seed)
    batch = []
    for label, (ta, tt) in zip((0, 2), ((5, 4), (3, 6))):
        batch.append((rng.normal(size=(ta, cfg.d_a)), rng.normal(size=(tt, cfg.d_t)), label))
    return batch


def full_model_gradcheck(gating_mode: GatingMode, step: float = 1e-5, tol: float = 1e-4) -> T.GradcheckReport:
    """Gradcheck of the mean loss `batch_loss` gives the trainer, on the probe batch."""
    cfg = tiny_config(gating_mode)
    model = FusionModel(cfg)
    batch = probe_batch(cfg)
    return T.gradcheck(lambda: batch_loss(model, batch)[0], model.parameters(), step=step, tol=tol)
