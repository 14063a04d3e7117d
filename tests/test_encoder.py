"""The encoder layer against a plain-numpy oracle, and the tape cost of its heads."""

import numpy as np
import pytest

from gatedfusion import tensor as T
from gatedfusion.encoder import sinusoidal_positions
from gatedfusion.gating import GatingMode
from gatedfusion.model import FusionModel, ModelConfig, parameter_table, xavier_uniform
from gatedfusion.sequence import pad_batch
from gatedfusion.trainer import batch_loss


def lone_layer(n_heads, rng):
    """enc_a.0 of a one-layer d_model 8 model, its Xavier weights drawn from
    `rng` in table order, and its parameters by unprefixed name."""
    cfg = ModelConfig(d_a=8, d_t=8, d_model=8, n_heads=n_heads, n_layers=1, ff_mult=2, n_classes=2,
                      dropout_rate=0.0)
    model = FusionModel(cfg)
    params = {}
    for name, shape, init in parameter_table(cfg):
        if name.startswith("enc_a.0."):
            params[name.removeprefix("enc_a.0.")] = p = model.slots[name]
            if init == "xavier":
                p.data[...] = xavier_uniform(rng, *shape)
    return model.enc_a[0], params


def numpy_layer(p, n_heads, x):
    """One unpadded T x d sample through a layer with parameters `p`, one head
    at a time, in plain numpy."""
    def ln(z, gain, bias):
        return (z - z.mean(axis=1, keepdims=True)) / np.sqrt(z.var(axis=1, keepdims=True) + 1e-5) \
            * gain.data + bias.data

    dh = x.shape[1] // n_heads
    q = x @ p["wq"].data + p["bq"].data
    k = x @ p["wk"].data
    v = x @ p["wv"].data + p["bv"].data
    heads = []
    for j in range(n_heads):
        cols = slice(j * dh, (j + 1) * dh)
        scores = q[:, cols] @ k[:, cols].T * (1.0 / np.sqrt(dh))
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        heads.append(e / e.sum(axis=1, keepdims=True) @ v[:, cols])
    attn = np.concatenate(heads, axis=1) @ p["wo"].data + p["bo"].data
    x = ln(x + attn, p["ln1_g"], p["ln1_b"])
    ff = np.maximum(x @ p["ffn_w1"].data + p["ffn_b1"].data, 0.0) @ p["ffn_w2"].data + p["ffn_b2"].data
    return ln(x + ff, p["ln2_g"], p["ln2_b"])


@pytest.mark.parametrize("n_heads", [1, 2, 4])
def test_layer_matches_per_head_numpy_loop(n_heads):
    """Each sample of a mixed-length stack gets its own per-head attention output:
    the padding rows of shorter samples never reach its valid rows."""
    rng = np.random.default_rng(n_heads)
    layer, params = lone_layer(n_heads, rng)
    # random biases and layernorm affines, so every parameter shows in the output
    for p in params.values():
        p.data[...] = rng.normal(size=p.data.shape)
    samples = [rng.normal(size=(t, 8)) for t in (3, 7, 1, 5)]
    batch = pad_batch(samples)
    out = layer.forward(T.constant(batch.features), batch.masks).data
    for i, x in enumerate(samples):
        np.testing.assert_allclose(out[i, : len(x)], numpy_layer(params, n_heads, x), rtol=1e-12)


def test_batch_op_count_does_not_depend_on_heads():
    """Heads ride the stack axis: a 16-sample training batch of the ablation
    model, and of its 2-layer variant, records the same ops for 1, 2 and 4
    heads. A layer is 14 ops: its q, k, v and output maps, one attention op,
    two dropouts, two residual adds, two layernorms and the feedforward's two
    maps and relu."""
    rng = np.random.default_rng(0)
    batch = [(rng.normal(size=(int(rng.integers(3, 9)), 6)),
              rng.normal(size=(int(rng.integers(3, 9)), 5)), i % 3) for i in range(16)]
    counts = {}
    for n_layers in (1, 2):
        for mode in (GatingMode.NONE, GatingMode.CROSS_MODAL):
            for n_heads in (1, 2, 4):
                model = FusionModel(ModelConfig(d_a=6, d_t=5, d_model=8, n_heads=n_heads, n_layers=n_layers,
                                                ff_mult=2, n_classes=3, gating_mode=mode,
                                                dropout_rate=0.1, seed=0))
                with T.Tape() as tape:
                    batch_loss(model, batch, dropout_rng=np.random.default_rng(1))
                counts[n_layers, mode, n_heads] = len(tape._steps)
    want = {(1, GatingMode.NONE): 41, (1, GatingMode.CROSS_MODAL): 53,
            (2, GatingMode.NONE): 69, (2, GatingMode.CROSS_MODAL): 81}
    assert counts == {(n_layers, mode, h): n for (n_layers, mode), n in want.items() for h in (1, 2, 4)}


@pytest.mark.parametrize("t_len, d_model", [(1, 8), (14, 8), (9, 32), (64, 6)])
def test_position_table_is_cached_read_only_and_exact(t_len, d_model):
    """A forward's table is the one cached per (T, d): byte for byte a fresh
    computation, and writing into it raises."""
    cached = sinusoidal_positions(t_len, d_model)
    assert sinusoidal_positions(t_len, d_model) is cached
    fresh = sinusoidal_positions.__wrapped__(t_len, d_model)
    assert fresh is not cached
    assert (cached.dtype, cached.shape, cached.tobytes()) == (fresh.dtype, fresh.shape, fresh.tobytes())
    with pytest.raises(ValueError, match="read-only"):
        cached[0, 0] = 1.0
