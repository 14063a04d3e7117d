"""End-to-end gradient verification for the full classifier.

Builds a deliberately tiny model (every parameter still present), a fixed
2-sample batch, and runs the finite-difference gradcheck over all parameters
of the loss the trainer minimises (`trainer.batch_loss`), with dropout off in
float64.

The probes run through `grouped_probe`: one forward per parameter gives all
of its probe losses. The batch is tiled K = 2 x size times, and the parameter
is replaced by a (K, m, n) stack whose j-th matrix carries probe j's one moved
entry; the stack stands in the parameter's slot in `FusionModel.slots`, where
`forward` reads parameters by name. Under the stack rule of `tensor`, matrix j
serves the j-th copy of the batch, so each op does per copy exactly what it
does for the batch alone (one GEMM over a copy's rows, like the batch's own),
and every probe loss equals the one-at-a-time probe's bit for bit.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from . import tensor as T
from .errors import ConfigError
from .gating import GatingMode
from .model import FusionModel, ModelConfig
from .trainer import batch_loss


def tiny_config(gating_mode: GatingMode) -> ModelConfig:
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
        seed=3,
    )


def probe_batch(cfg: ModelConfig) -> list[tuple[np.ndarray, np.ndarray, int]]:
    rng = np.random.default_rng(11)
    batch = []
    for label, (ta, tt) in zip((0, 2), ((5, 4), (3, 6))):
        batch.append((rng.normal(size=(ta, cfg.d_a)), rng.normal(size=(tt, cfg.d_t)), label))
    return batch


@contextmanager
def _standing_in(model: FusionModel, p: T.Parameter, stand_in: T.Tensor):
    """`stand_in` in the model's slot for `p`; `p` is put back on leaving, also
    on an exception."""
    if model.slots.get(p.name) is not p:
        raise ConfigError(f"parameter {p.name!r} is not one of the model's")
    model.slots[p.name] = stand_in
    try:
        yield
    finally:
        model.slots[p.name] = p


def grouped_probe(model: FusionModel, batch):
    """A `tensor.gradcheck` probe of `batch_loss(model, batch)` that runs one
    forward per parameter (see the module docstring).

    Probe j's loss is its copy's per-sample losses from `batch_loss` times 1/B,
    summed as `batch_loss` sums its batch. The parameter itself is never
    written.
    """
    n = len(batch)

    def probe(p: T.Parameter, step: float) -> np.ndarray:
        size, flat = p.data.size, p.data.reshape(-1)
        k = 2 * size
        # row j < size moves entry j by +step, row size + j moves it by -step
        stack = np.tile(flat, (k, 1))
        entries = np.arange(size)
        stack[entries, entries] = flat + step
        stack[size + entries, entries] = flat - step
        with _standing_in(model, p, T.Tensor(stack.reshape(k, *p.data.shape))):
            losses = batch_loss(model, batch * k)[1]
        return (np.reshape(losses, (k, n)) * (1 / n)).sum(axis=1).reshape(2, size)

    return probe


def full_model_gradcheck(gating_mode: GatingMode, step: float = 1e-5, tol: float = 1e-4) -> T.GradcheckReport:
    """Gradcheck of the mean loss `batch_loss` gives the trainer, on the probe batch."""
    cfg = tiny_config(gating_mode)
    model = FusionModel(cfg)
    batch = probe_batch(cfg)
    return T.gradcheck(lambda: batch_loss(model, batch)[0], model.parameters(), step=step, tol=tol,
                       probe=grouped_probe(model, batch))
