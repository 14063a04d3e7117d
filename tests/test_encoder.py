"""The encoder layer against a plain-numpy oracle, and the tape cost of its heads."""

import numpy as np
import pytest

from gatedfusion import tensor as T
from gatedfusion.encoder import EncoderLayer
from gatedfusion.gating import GatingMode
from gatedfusion.model import FusionModel, ModelConfig
from gatedfusion.sequence import pad_batch
from gatedfusion.trainer import batch_loss


def numpy_layer(layer, x):
    """One unpadded T x d sample through `layer`, one head at a time, in plain numpy."""
    def ln(z, gain, bias):
        return (z - z.mean(axis=1, keepdims=True)) / np.sqrt(z.var(axis=1, keepdims=True) + 1e-5) \
            * gain.data + bias.data

    dh = layer.d_model // layer.n_heads
    q = x @ layer.wq.data + layer.bq.data
    k = x @ layer.wk.data
    v = x @ layer.wv.data + layer.bv.data
    heads = []
    for j in range(layer.n_heads):
        cols = slice(j * dh, (j + 1) * dh)
        scores = q[:, cols] @ k[:, cols].T * (1.0 / np.sqrt(dh))
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        heads.append(e / e.sum(axis=1, keepdims=True) @ v[:, cols])
    attn = np.concatenate(heads, axis=1) @ layer.wo.data + layer.bo.data
    x = ln(x + attn, layer.ln1_g, layer.ln1_b)
    ff = np.maximum(x @ layer.w1.data + layer.b1.data, 0.0) @ layer.w2.data + layer.b2.data
    return ln(x + ff, layer.ln2_g, layer.ln2_b)


@pytest.mark.parametrize("n_heads", [1, 2, 4])
def test_layer_matches_per_head_numpy_loop(n_heads):
    """Each sample of a mixed-length stack gets its own per-head attention output:
    the padding rows of shorter samples never reach its valid rows."""
    rng = np.random.default_rng(n_heads)
    layer = EncoderLayer("enc", 8, n_heads, 2, rng)
    # random biases and layernorm affines, so every parameter shows in the output
    for p in layer.parameters():
        p.data[...] = rng.normal(size=p.data.shape)
    samples = [rng.normal(size=(t, 8)) for t in (3, 7, 1, 5)]
    batch = pad_batch(samples)
    out = layer.forward(T.Tape().constant(batch.features), batch.masks).data
    for i, x in enumerate(samples):
        np.testing.assert_allclose(out[i, : len(x)], numpy_layer(layer, x), rtol=1e-12)


def test_batch_op_count_does_not_depend_on_heads():
    """Heads ride the stack axis: a 16-sample training batch of the ablation
    model records the same ops for 1, 2 and 4 heads."""
    rng = np.random.default_rng(0)
    batch = [(rng.normal(size=(int(rng.integers(3, 9)), 6)),
              rng.normal(size=(int(rng.integers(3, 9)), 5)), i % 3) for i in range(16)]
    counts = {}
    for mode in (GatingMode.NONE, GatingMode.CROSS_MODAL):
        for n_heads in (1, 2, 4):
            model = FusionModel(ModelConfig(d_a=6, d_t=5, d_model=8, n_heads=n_heads, n_layers=1,
                                            ff_mult=2, n_classes=3, gating_mode=mode,
                                            dropout_rate=0.1, seed=0))
            loss, _ = batch_loss(model, batch, dropout_rng=np.random.default_rng(1))
            counts[mode, n_heads] = len(loss.tape._steps)
    assert counts == {(mode, h): n for mode, n in ((GatingMode.NONE, 79), (GatingMode.CROSS_MODAL, 93))
                      for h in (1, 2, 4)}
