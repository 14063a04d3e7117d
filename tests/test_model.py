"""Classifier forward/train contracts, the batch loss, and checkpointing."""

import gc
import hashlib
import itertools
import json
import re
import struct

import numpy as np
import pytest

import gatedfusion
from gatedfusion import checkpoint, trainer
from gatedfusion import tensor as T
from gatedfusion.analysis import collect_traces
from gatedfusion.checkpoint import load_model, save_model
from gatedfusion.diagnostics import tiny_config
from gatedfusion.errors import (
    ChecksumError,
    ConfigError,
    GatedFusionError,
    ManifestError,
    NonFiniteError,
    ShapeError,
    UnsupportedVersionError,
)
from gatedfusion.gating import GatingMode
from gatedfusion.model import MAX_PARAMETERS, FusionModel, ModelConfig, parameter_count, parameter_table
from gatedfusion.sequence import pad_batch
from gatedfusion.synth import SynthSpec, generate
from gatedfusion.encoder import dropout_keep
from gatedfusion.trainer import Adam, TrainConfig, batch_loss, evaluate, make_optimizer, train
from checkpoint_bytes import digest, rewrite, split, stack
from padding import pad_extra
from reference_ops import softmax_rows


def tiny_cfg(**kw):
    base = dict(d_a=5, d_t=4, d_model=8, n_heads=2, n_layers=1, ff_mult=2,
                n_classes=3, gating_mode=GatingMode.CROSS_MODAL, dropout_rate=0.0, seed=7)
    base.update(kw)
    return ModelConfig(**base)


def parameter_shapes(cfg):
    """Each parameter's (name, shape), walked from the table row by row."""
    return [(name, shape) for name, shape, _ in parameter_table(cfg)]


def random_pair(rng, cfg, ta=6, tt=5):
    return rng.normal(size=(ta, cfg.d_a)), rng.normal(size=(tt, cfg.d_t))


class TestConfig:
    def test_rejects_indivisible_heads(self):
        with pytest.raises(ConfigError):
            tiny_cfg(d_model=9)

    def test_rejects_single_class(self):
        with pytest.raises(ConfigError):
            tiny_cfg(n_classes=1)

    def test_rejects_bad_dropout(self):
        with pytest.raises(ConfigError):
            tiny_cfg(dropout_rate=1.0)

    def test_parameter_budget(self):
        """d_a adds d_model = 1 parameters per unit: at the budget the config is
        accepted and one parameter past it refused, by construction alone."""
        small = tiny_cfg(d_model=1, n_heads=1)
        count = sum(rows * cols for _, (rows, cols) in parameter_shapes(small))
        d_a = small.d_a + MAX_PARAMETERS - count
        assert sum(rows * cols for _, (rows, cols) in parameter_shapes(tiny_cfg(d_a=d_a, d_model=1, n_heads=1))) \
            == MAX_PARAMETERS
        with pytest.raises(ConfigError, match=rf"{MAX_PARAMETERS + 1} parameters exceed the budget of "
                                              rf"{MAX_PARAMETERS} \(model.MAX_PARAMETERS\) from 'head.b2' on: "
                                              rf"d_a {d_a + 1},"):
            tiny_cfg(d_a=d_a + 1, d_model=1, n_heads=1)

    def test_parameter_budget_counts_every_encoder_layer(self):
        """A config of a billion layers is refused at once, by the product of
        the layer count and one layer's size."""
        with pytest.raises(ConfigError, match=r"from 'the encoder layers' on: .* n_layers 1000000000,"):
            tiny_cfg(n_layers=10**9)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), float("-inf"), -1e-3])
    def test_train_config_rejects_bad_learning_rate(self, lr):
        with pytest.raises(ConfigError, match="learning_rate must be finite and >= 0"):
            TrainConfig(learning_rate=lr)


class ReadNames(dict):
    """A slots mapping that records the names read from it."""

    def __init__(self, slots):
        super().__init__(slots)
        self.read = set()

    def __getitem__(self, name):
        self.read.add(name)
        return super().__getitem__(name)


class TestParameterTable:
    # SHA-256 of each config's initial parameter vector and of its names in
    # order: a moved table row or Xavier draw changes every checkpoint and the
    # ablation's accuracies (two rows of one shape and init swap names, not bytes)
    ONE_LAYER_NAMES = "87bb258fb71e2f7aafb5e29f8114667353e82f4f57bd562a3c7d9d267aea0035"
    INITIAL_DIGESTS = {
        "ablation": ("e5bdc2f906f6ca1728411173cc1fe58a54db2bb3330aac89ea88e5f20ac8afa8", ONE_LAYER_NAMES),
        "readme": ("f5957cb0dbf3704ed0f1f8e55172c46039e7daf12c508c67593059637b85a0a1",
                   "8fcfa42726bda05d1044eaeab7f56bd29e7b47317d50f0456b29489ca7933732"),
        "tiny": ("f32bb9b7ee4dadd65fd85d68908c42936a4f94855a7f941af0c9ed757864671e", ONE_LAYER_NAMES),
    }
    CONFIGS = {
        "ablation": ModelConfig(d_a=32, d_t=32, d_model=8, n_heads=2, n_layers=1, ff_mult=2, n_classes=3,
                                dropout_rate=0.1, seed=0),
        "readme": ModelConfig(d_a=32, d_t=32, d_model=32, n_heads=4, n_layers=2, dropout_rate=0.1, seed=0),
        "tiny": tiny_config(GatingMode.CROSS_MODAL),
    }

    @pytest.mark.parametrize("name", list(INITIAL_DIGESTS))
    def test_initial_parameters_are_pinned(self, name):
        params = FusionModel(self.CONFIGS[name]).parameters()
        names = " ".join(p.name for p in params).encode()
        assert (hashlib.sha256(params.data.tobytes()).hexdigest(),
                hashlib.sha256(names).hexdigest()) == self.INITIAL_DIGESTS[name]

    @pytest.mark.parametrize("mode", list(GatingMode))
    def test_forward_reads_every_declared_parameter(self, mode):
        """A declared parameter forward never reads would train silently with a
        zero gradient; without gating only the gate's four go unread."""
        cfg = tiny_cfg(gating_mode=mode, n_layers=2, dropout_rate=0.1)
        model = FusionModel(cfg)
        model.slots = ReadNames(model.slots)
        for layer in model.enc_a + model.enc_t:
            layer.slots = model.slots
        rng = np.random.default_rng(5)
        a, t = random_pair(rng, cfg)
        model.forward(pad_batch([a]), pad_batch([t]), dropout_rng=rng)
        declared = {name for name, _ in parameter_shapes(cfg)}
        unread = {"gate.w_a", "gate.w_t", "gate.b_a", "gate.b_t"} if mode is GatingMode.NONE else set()
        assert model.slots.read == declared - unread


def test_every_public_name_resolves():
    assert all(hasattr(gatedfusion, name) for name in gatedfusion.__all__)


class TestForward:
    def test_logits_shape_and_softmax(self):
        rng = np.random.default_rng(0)
        cfg = tiny_cfg()
        model = FusionModel(cfg)
        a, t = random_pair(rng, cfg)
        logits = model.forward(pad_batch([a]), pad_batch([t])).logits
        assert logits.shape == (1, 1, 3)
        probabilities = softmax_rows(logits).data[0]
        assert np.all(np.isfinite(probabilities))
        assert probabilities.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(probabilities >= 0)

    def test_deterministic_repeat(self):
        rng = np.random.default_rng(1)
        cfg = tiny_cfg()
        model = FusionModel(cfg)
        a, t = random_pair(rng, cfg)
        l1 = model.forward(pad_batch([a]), pad_batch([t])).logits.data[0]
        l2 = model.forward(pad_batch([a]), pad_batch([t])).logits.data[0]
        np.testing.assert_array_equal(l1, l2)

    def test_width_mismatch(self):
        rng = np.random.default_rng(2)
        cfg = tiny_cfg()
        model = FusionModel(cfg)
        a, t = random_pair(rng, cfg)
        with pytest.raises(ShapeError):
            model.forward(pad_batch([t]), pad_batch([a]))

    def test_gates_returned_only_when_gating(self):
        rng = np.random.default_rng(3)
        for mode, expect in [(GatingMode.NONE, False), (GatingMode.UNIMODAL, True),
                             (GatingMode.CROSS_MODAL, True)]:
            cfg = tiny_cfg(gating_mode=mode)
            model = FusionModel(cfg)
            a, t = random_pair(rng, cfg)
            res = model.forward(pad_batch([a]), pad_batch([t]))
            assert (res.gates_a is not None) == expect

    def test_zero_gate_weights_match_halved_projection_baseline(self):
        """Gates frozen at 0.5 = a no-gate model whose projection is halved."""
        rng = np.random.default_rng(4)
        cfg = tiny_cfg(gating_mode=GatingMode.CROSS_MODAL)
        gated = FusionModel(cfg)
        for name in ("gate.w_a", "gate.w_t", "gate.b_a", "gate.b_t"):
            gated.slots[name].data[...] = 0.0
        plain = FusionModel(tiny_cfg(gating_mode=GatingMode.NONE))
        for src, dst in zip(gated.parameters(), plain.parameters()):
            if dst.name.startswith("gate."):
                continue
            dst.data[...] = src.data
        for name in ("proj_a.w", "proj_a.b", "proj_t.w", "proj_t.b"):
            plain.slots[name].data *= 0.5
        a, t = random_pair(rng, cfg)
        np.testing.assert_allclose(gated.forward(pad_batch([a]), pad_batch([t])).logits.data[0],
                                   plain.forward(pad_batch([a]), pad_batch([t])).logits.data[0], atol=1e-12)

    @pytest.mark.parametrize("mode", list(GatingMode))
    @pytest.mark.parametrize("pad", [1, 16, 32])
    def test_padding_invariance_of_logits_and_gates(self, mode, pad):
        rng = np.random.default_rng(5)
        cfg = tiny_cfg(gating_mode=mode)
        model = FusionModel(cfg)
        a, t = random_pair(rng, cfg)
        base = model.forward(pad_batch([a]), pad_batch([t]))
        padded = model.forward(pad_extra(pad_batch([a]), pad), pad_extra(pad_batch([t]), pad))
        np.testing.assert_allclose(padded.logits.data[0], base.logits.data[0], atol=1e-10)
        if mode is not GatingMode.NONE:
            np.testing.assert_allclose(padded.gates_a[0, : len(a)], base.gates_a[0], atol=1e-10)

    def test_batch_independence(self):
        # per-sample forward passes share no state, so this is structural;
        # check a sample gives identical logits before and after other passes
        rng = np.random.default_rng(6)
        cfg = tiny_cfg()
        model = FusionModel(cfg)
        a, t = random_pair(rng, cfg)
        before = model.forward(pad_batch([a]), pad_batch([t])).logits.data[0]
        for _ in range(3):
            other_a, other_t = random_pair(rng, cfg)
            model.forward(pad_batch([other_a]), pad_batch([other_t]))
        np.testing.assert_array_equal(model.forward(pad_batch([a]), pad_batch([t])).logits.data[0], before)

    def test_positions_break_permutation_symmetry(self):
        rng = np.random.default_rng(7)
        cfg = tiny_cfg(gating_mode=GatingMode.NONE, use_positions=True)
        model = FusionModel(cfg)
        a, t = random_pair(rng, cfg)
        a_perm = a[np.random.default_rng(0).permutation(len(a))]
        l1 = model.forward(pad_batch([a]), pad_batch([t])).logits.data[0]
        l2 = model.forward(pad_batch([a_perm]), pad_batch([t])).logits.data[0]
        assert not np.allclose(l1, l2)

    def test_no_positions_no_gating_permutation_invariant(self):
        rng = np.random.default_rng(8)
        cfg = tiny_cfg(gating_mode=GatingMode.NONE, use_positions=False)
        model = FusionModel(cfg)
        a, t = random_pair(rng, cfg)
        a_perm = a[np.random.default_rng(1).permutation(len(a))]
        np.testing.assert_allclose(model.forward(pad_batch([a_perm]), pad_batch([t])).logits.data[0],
                                   model.forward(pad_batch([a]), pad_batch([t])).logits.data[0], atol=1e-10)

    @pytest.mark.parametrize("mode", list(GatingMode))
    def test_batch_composition_invariance(self, mode):
        """A sample's logits and gates do not depend on its batchmates, its place in
        the batch, or its padding."""
        rng = np.random.default_rng(9)
        cfg = tiny_cfg(gating_mode=mode)
        model = FusionModel(cfg)
        for p in model.parameters():
            p.data += 0.1 * rng.normal(size=p.data.shape)
        pairs, pads = [], []
        for _ in range(5):
            ta, tt = int(rng.integers(1, 10)), int(rng.integers(1, 10))
            pads.append((int(rng.integers(0, 4)), int(rng.integers(0, 4))))
            pairs.append(random_pair(rng, cfg, ta, tt))
        alone = [model.forward(pad_batch([a]), pad_batch([t])) for a, t in pairs]
        for order in ([0, 1, 2, 3, 4], [4, 2, 0, 3, 1], [3, 3, 1]):
            extra_a, extra_t = (max(pads[i][k] for i in order) for k in (0, 1))
            batch = model.forward(pad_extra(pad_batch([pairs[i][0] for i in order]), extra_a),
                                  pad_extra(pad_batch([pairs[i][1] for i in order]), extra_t))
            for pos, i in enumerate(order):
                a, t = pairs[i]
                np.testing.assert_allclose(batch.logits.data[pos], alone[i].logits.data[0], atol=1e-10)
                if mode is GatingMode.NONE:
                    continue
                for gates, ref, n in ((batch.gates_a, alone[i].gates_a, len(a)),
                                      (batch.gates_t, alone[i].gates_t, len(t))):
                    np.testing.assert_allclose(gates[pos, :n], ref[0], atol=1e-10)
                    np.testing.assert_array_equal(gates[pos, n:], 0.0)

    def test_batch_sizes_must_match(self):
        rng = np.random.default_rng(10)
        cfg = tiny_cfg()
        model = FusionModel(cfg)
        a, t = random_pair(rng, cfg)
        with pytest.raises(ShapeError):
            model.forward(pad_batch([a, a]), pad_batch([t]))

    def test_argmax_invariant_to_logit_shift(self):
        logits = np.array([0.2, -1.0, 0.9])
        assert np.argmax(logits) == np.argmax(logits + 100.0)


class LoopOptimizer:
    """The per-parameter SGD and Adam loops that the flat optimizers replaced,
    over named arrays: the reference they must match bit for bit."""

    def __init__(self, kind, arrays, lr):
        self.kind, self.lr, self.t = kind, lr, 0
        self.data = {k: v.copy() for k, v in arrays.items()}
        self.m = {k: np.zeros_like(v) for k, v in arrays.items()}
        self.v = {k: np.zeros_like(v) for k, v in arrays.items()}

    def step(self, grads):
        self.t += 1
        if self.kind == "sgd":
            for name, g in grads.items():
                self.data[name] -= self.lr * g
            return
        b1, b2, eps = trainer._ADAM_BETA1, trainer._ADAM_BETA2, trainer._ADAM_EPS
        for name, g in grads.items():
            m = self.m[name] = b1 * self.m[name] + (1 - b1) * g
            v = self.v[name] = b2 * self.v[name] + (1 - b2) * g * g
            m_hat = m / (1 - b1 ** self.t)
            v_hat = v / (1 - b2 ** self.t)
            self.data[name] -= self.lr * m_hat / (np.sqrt(v_hat) + eps)


def per_sample_dropout_keeps(cfg, batch_a, batch_t, rng):
    """The loop that drew `FusionModel._dropout_keeps` sample by sample, then
    branch, layer and site: the reference for the one-draw version."""
    batches = (batch_a, batch_t)
    stacks = [np.zeros((cfg.n_layers, 2, *b.masks.shape, cfg.d_model)) for b in batches]
    valid = [b.masks.sum(axis=1).astype(int) for b in batches]
    for i in range(len(batch_a.masks)):
        for stack, counts in zip(stacks, valid):
            n = counts[i]
            for layer in range(cfg.n_layers):
                for site in range(2):
                    stack[layer, site, i, :n] = dropout_keep(rng, cfg.dropout_rate, (n, cfg.d_model))
    return list(stacks[0]), list(stacks[1])


def make_training_pairs(rng, cfg, n, seed_labels=True):
    pairs = []
    for i in range(n):
        a, t = random_pair(rng, cfg, ta=int(rng.integers(3, 8)), tt=int(rng.integers(3, 8)))
        pairs.append((a, t, i % cfg.n_classes))
    return pairs


class TestTraining:
    def test_overfits_two_samples(self):
        rng = np.random.default_rng(10)
        cfg = tiny_cfg()
        model = FusionModel(cfg)
        pairs = make_training_pairs(rng, cfg, 2)
        result = train(model, pairs, TrainConfig(learning_rate=1e-2, epochs=200, batch_size=2))
        assert result.final_train_loss < 0.05

    def test_final_loss_below_initial(self):
        rng = np.random.default_rng(11)
        cfg = tiny_cfg()
        model = FusionModel(cfg)
        pairs = make_training_pairs(rng, cfg, 12)
        result = train(model, pairs, TrainConfig(learning_rate=3e-3, epochs=10, batch_size=4))
        assert result.history[-1]["train_loss"] < result.history[0]["train_loss"]

    def test_zero_learning_rate_keeps_parameters(self):
        rng = np.random.default_rng(12)
        cfg = tiny_cfg(dropout_rate=0.0)
        model = FusionModel(cfg)
        before = [p.data.copy() for p in model.parameters()]
        pairs = make_training_pairs(rng, cfg, 4)
        result = train(model, pairs, TrainConfig(learning_rate=0.0, epochs=3, batch_size=2))
        for p, b in zip(model.parameters(), before):
            np.testing.assert_array_equal(p.data, b)
        losses = [h["train_loss"] for h in result.history]
        assert losses[0] == pytest.approx(losses[-1], abs=1e-12)

    def test_same_seed_identical_history(self):
        rng = np.random.default_rng(13)
        cfg = tiny_cfg(dropout_rate=0.1)
        pairs = make_training_pairs(rng, cfg, 8)
        tc = TrainConfig(learning_rate=1e-3, epochs=5, batch_size=4, seed=3)
        h1 = train(FusionModel(cfg), pairs, tc).history
        h2 = train(FusionModel(cfg), pairs, tc).history
        assert h1 == h2

    def test_sgd_optimizer(self):
        rng = np.random.default_rng(14)
        cfg = tiny_cfg()
        model = FusionModel(cfg)
        pairs = make_training_pairs(rng, cfg, 4)
        result = train(model, pairs, TrainConfig(learning_rate=1e-2, epochs=5,
                                                 batch_size=2, optimizer="sgd"))
        assert len(result.history) == 5

    @pytest.mark.parametrize("key, replacement", [
        ("t", None), ("m.proj_a.w", None), ("v.head.b2", None),
        ("t", np.zeros((1, 2))), ("m.gate.w_a", np.zeros((3, 1))),
    ])
    def test_adam_load_state_rejects_missing_or_misshapen_arrays(self, key, replacement):
        """A step count that is missing or an array, or rows in which one
        parameter's block is missing or misshapen (in both rows, which stay one
        array), is refused, and nothing is loaded."""
        model = FusionModel(tiny_cfg())
        params = model.parameters()
        t, rows = make_optimizer(model, TrainConfig()).state()
        if key == "t":
            t = replacement
        else:
            name = key.split(".", 1)[1]

            def edited(row):
                blocks = [block.reshape(-1) for p, block in zip(params, params.split(row)) if p.name != name]
                return np.concatenate(blocks + ([] if replacement is None else [replacement.reshape(-1)]))

            rows = np.stack([edited(row) for row in rows])
        fresh = Adam(params, 1e-3)
        with pytest.raises(ManifestError):
            fresh.load_state(t, rows)
        assert fresh.t == 0 and not fresh.rows.any()

    @pytest.mark.parametrize("key, index, value, named", [
        ("t", 0, 1.5, "'t'"), ("t", 0, -1.0, "'t'"), ("t", 0, np.inf, "'t'"), ("t", 0, 2**63, "'t'"),
        ("m.proj_a.w", 0, np.nan, "'m.proj_a.w'"), ("m.head.b2", -1, -np.inf, "'m.head.b2'"),
        ("v.gate.b_t", 0, np.inf, "'v.gate.b_t'"), ("v.head.b2", -1, -1.0, "'v.head.b2'"),
        ("v.proj_a.b", -1, -1e-300, "'v.proj_a.b'"),
    ])
    def test_adam_load_state_rejects_bad_values(self, key, index, value, named):
        """A step count that is not an integer in [0, 2**63), a non-finite moment
        or a negative second moment is refused by name, and nothing is loaded."""
        rng = np.random.default_rng(30)
        cfg = tiny_cfg()
        model = FusionModel(cfg)
        opt = make_optimizer(model, TrainConfig())
        train(model, make_training_pairs(rng, cfg, 4), TrainConfig(epochs=1, batch_size=2), optimizer=opt)
        t, rows = opt.state()
        rows = rows.copy()
        if key == "t":
            t = value
        else:
            row, name = key.split(".", 1)
            model.parameters().split(rows["mv".index(row)])[list(model.slots).index(name)].reshape(-1)[index] = value
        fresh = Adam(model.parameters(), 1e-3)
        with pytest.raises(ManifestError, match=re.escape(named)):
            fresh.load_state(t, rows)
        assert fresh.t == 0 and not fresh.rows.any()

    def test_load_state_refuses_state_the_optimizer_does_not_keep(self):
        """Adam refuses a row besides m and v; SGD, which keeps no rows, refuses
        any, Adam's moments included. Each names the shape it keeps."""
        model = FusionModel(tiny_cfg())
        n = model.parameters().data.size
        t, rows = make_optimizer(model, TrainConfig()).state()
        fresh = Adam(model.parameters(), 1e-3)
        with pytest.raises(ManifestError, match=re.escape(f"shape (3, {n}) is not Adam's (2, {n})")):
            fresh.load_state(t, np.vstack([rows, np.zeros((1, n))]))
        assert fresh.t == 0 and not fresh.rows.any()
        sgd = make_optimizer(model, TrainConfig(optimizer="sgd"))
        with pytest.raises(ManifestError, match=re.escape(f"shape (2, {n}) is not SGD's (0, {n})")):
            sgd.load_state(t, rows)
        sgd.load_state(4, np.zeros((0, n)))
        assert sgd.t == 4

    def test_adam_load_state_takes_a_negative_first_moment(self):
        model = FusionModel(tiny_cfg())
        opt = make_optimizer(model, TrainConfig())
        rows = opt.state()[1].copy()
        model.parameters().split(rows[0])[-1][0, 0] = -0.5  # m.head.b2
        opt.load_state(3, rows)
        assert opt.t == 3 and model.parameters().split(opt.state()[1][0])[-1][0, 0] == -0.5

    @pytest.mark.parametrize("kind", ["adam", "sgd"])
    def test_flat_optimizer_matches_per_parameter_loop(self, kind):
        """Three steps, then a `state()` -> `load_state` round trip into a new
        model and optimizer, then two more, all bit for bit."""
        rng = np.random.default_rng(31)
        cfg = tiny_cfg(n_layers=2)
        tc = TrainConfig(learning_rate=1e-2, optimizer=kind)
        model = FusionModel(cfg)
        opt = make_optimizer(model, tc)
        ref = LoopOptimizer(kind, {p.name: p.data for p in model.parameters()}, tc.learning_rate)

        def step(model, opt):
            grads = {p.name: rng.normal(size=p.data.shape) * rng.choice([1e-6, 1.0, 1e3]) for p in model.parameters()}
            for p in model.parameters():
                p.grad[...] = grads[p.name]
            opt.step()
            ref.step(grads)
            for p in model.parameters():
                np.testing.assert_array_equal(p.data, ref.data[p.name])
            t, rows = opt.state()
            assert t == ref.t
            if kind == "adam":
                params = model.parameters()
                for p, m, v in zip(params, params.split(rows[0]), params.split(rows[1])):
                    np.testing.assert_array_equal(m, ref.m[p.name])
                    np.testing.assert_array_equal(v, ref.v[p.name])
            else:
                assert rows.shape == (0, model.parameters().data.size)

        for _ in range(3):
            step(model, opt)
        resumed = FusionModel(cfg)
        resumed.parameters().data[...] = model.parameters().data
        opt2 = make_optimizer(resumed, tc)
        opt2.load_state(*opt.state())
        for _ in range(2):
            step(resumed, opt2)

    def test_backward_passes_of_one_train_call_reuse_gradient_buffers(self, monkeypatch):
        """Passes over batches padded to different lengths run on one tape and
        share its gradient buffers, and each gives the parameter gradients of a
        fresh tape."""
        rng = np.random.default_rng(32)
        cfg = tiny_cfg()
        # distinct lengths: the batch holding the longest sample pads further
        pairs = [(*random_pair(rng, cfg, ta=3 + i, tt=10 - i), i % cfg.n_classes) for i in range(8)]
        model = FusionModel(cfg)
        batches, passes = [], []
        real_batch_loss, real_backward = trainer.batch_loss, T.Tape.backward

        def spy_batch_loss(model, batch, **kw):
            batches.append(batch)
            return real_batch_loss(model, batch, **kw)

        def spy_backward(tape, loss):
            data = model.parameters().data.copy()
            real_backward(tape, loss)
            passes.append((data, model.parameters().grad.copy(), tape, list(tape._buffers)))

        monkeypatch.setattr(trainer, "batch_loss", spy_batch_loss)
        monkeypatch.setattr(T.Tape, "backward", spy_backward)
        train(model, pairs, TrainConfig(learning_rate=1e-2, epochs=2, batch_size=4, seed=5))
        monkeypatch.undo()

        assert len(passes) == 4
        assert all(tape is passes[0][2] for _, _, tape, _ in passes)
        # both batches have run by the second pass, so the buffers have their final sizes
        lengths = [max(len(a) for a, _, _ in batch) for batch in batches]
        assert lengths[2] != lengths[3]
        for _, _, _, buffers in passes[2:]:
            assert all(np.shares_memory(a, b) for a, b in zip(passes[1][3], buffers))
        for batch, (data, grad, _, _) in zip(batches, passes):
            fresh = FusionModel(cfg)
            fresh.parameters().data[...] = data
            with T.Tape() as tape:
                loss, _ = batch_loss(fresh, batch)
            tape.backward(loss)
            np.testing.assert_array_equal(fresh.parameters().grad, grad)

    @pytest.mark.parametrize("mode", list(GatingMode))
    def test_divergence_restores_parameters_and_optimizer_state(self, mode):
        rng = np.random.default_rng(23)
        cfg = tiny_cfg(gating_mode=mode)
        model = FusionModel(cfg)
        pairs = make_training_pairs(rng, cfg, 6)
        tc = TrainConfig(learning_rate=1e-3, epochs=2, batch_size=2, seed=4)
        opt = make_optimizer(model, tc)
        train(model, pairs, TrainConfig(learning_rate=1e-3, epochs=1, batch_size=2, seed=4),
              optimizer=opt)
        params = [p.data.copy() for p in model.parameters()]
        steps, rows = opt.state()
        rows = rows.copy()
        # a NaN entry makes the loss non-finite in every mode (a huge finite one
        # can be gated away); put it in epoch 1's last batch, after two steps
        last = int(np.random.default_rng([tc.seed, 7, 1]).permutation(len(pairs))[-1])
        a, t, label = pairs[last]
        a = a.copy()
        a[0, 0] = np.nan
        pairs[last] = (a, t, label)
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError, match="epoch 1"):
            train(model, pairs, tc, start_epoch=1, optimizer=opt)
        for p, saved in zip(model.parameters(), params):
            np.testing.assert_array_equal(p.data, saved)
        assert opt.t == steps
        np.testing.assert_array_equal(opt.rows, rows)

    @pytest.mark.parametrize("mode", [GatingMode.UNIMODAL, GatingMode.CROSS_MODAL])
    def test_non_finite_gradient_stops_training_before_the_step(self, mode):
        """A huge finite input gives a finite loss but a non-finite gate gradient;
        training raises before the optimizer steps and keeps the starting state."""
        rng = np.random.default_rng(25)
        cfg = tiny_cfg(gating_mode=mode)
        model = FusionModel(cfg)
        pairs = make_training_pairs(rng, cfg, 4)
        for a, _, _ in pairs:
            a[:, 0] = 1e150
        tc = TrainConfig(learning_rate=1e-3, epochs=1, batch_size=4)
        opt = make_optimizer(model, tc)
        params = [p.data.copy() for p in model.parameters()]
        t, rows = opt.state()
        rows = rows.copy()
        with np.errstate(all="ignore"):
            assert np.isfinite(batch_loss(model, pairs)[0].item())
            with pytest.raises(NonFiniteError, match="non-finite gradient of gate.w_a"):
                train(model, pairs, tc, optimizer=opt)
        for p, saved in zip(model.parameters(), params):
            np.testing.assert_array_equal(p.data, saved)
        assert opt.t == t
        np.testing.assert_array_equal(opt.rows, rows)

    def test_second_moment_overflow_rolls_back(self):
        """An input of 1e60 keeps every gradient finite, but squaring the gate's
        overflows Adam's second moment: the step raises and the epoch rolls back."""
        rng = np.random.default_rng(25)
        cfg = tiny_cfg()
        model = FusionModel(cfg)
        pairs = make_training_pairs(rng, cfg, 4)
        for a, _, _ in pairs:
            a[:, 0] = 1e60
        tc = TrainConfig(learning_rate=1e-3, epochs=2, batch_size=2)
        opt = make_optimizer(model, tc)
        params = model.parameters().data.copy()
        t, rows = opt.state()
        rows = rows.copy()
        with np.errstate(all="ignore"), pytest.raises(
                NonFiniteError, match="epoch 0; .*second moment of gate.w_a overflowed"):
            train(model, pairs, tc, optimizer=opt)
        np.testing.assert_array_equal(model.parameters().data, params)
        assert opt.t == t
        np.testing.assert_array_equal(opt.rows, rows)

    def test_evaluate_matches_one_sample_at_a_time(self):
        """Chunked evaluation gives each sample's own loss and prediction. The
        loss is exactly the left-to-right sum of the chunks' per-sample
        cross-entropies over n, and each prediction its logit row's argmax."""
        rng = np.random.default_rng(21)
        cfg = tiny_cfg()
        model = FusionModel(cfg)
        pairs = make_training_pairs(rng, cfg, 40)
        loss, acc, preds = evaluate(model, pairs)
        alone = [model.loss(a, t, label) for a, t, label in pairs]
        assert preds == [int(np.argmax(result.logits.data[0, 0])) for _, result in alone]
        assert acc == np.mean([p == label for p, (_, _, label) in zip(preds, pairs)])
        assert loss == pytest.approx(np.mean([x.item() for x, _ in alone]), rel=1e-12)

        total, want_preds = 0.0, []
        for chunk, result in trainer.eval_forwards(model, pairs):
            losses = T.cross_entropy(result.logits, [label for _, _, label in chunk]).data[:, 0, 0]
            for x, row in zip(losses, result.logits.data[:, 0]):
                total += float(x)
                want_preds.append(int(np.argmax(row)))
        assert loss == total / len(pairs)
        assert preds == want_preds and all(type(p) is int for p in preds)
        assert acc == sum(p == label for p, (_, _, label) in zip(want_preds, pairs)) / len(pairs)

    def test_evaluate_returns_predictions(self):
        rng = np.random.default_rng(15)
        cfg = tiny_cfg()
        model = FusionModel(cfg)
        pairs = make_training_pairs(rng, cfg, 6)
        loss, acc, preds = evaluate(model, pairs)
        assert len(preds) == 6 and 0.0 <= acc <= 1.0 and loss > 0


class TestBatchLoss:
    def test_mean_of_per_sample_losses(self):
        rng = np.random.default_rng(17)
        cfg = tiny_cfg()
        model = FusionModel(cfg)
        batch = make_training_pairs(rng, cfg, 4)
        loss, losses = batch_loss(model, batch)
        # a sample sums in another order alone than in the batch: 1 ulp apart
        np.testing.assert_allclose(losses, [model.loss(a, t, label)[0].item() for a, t, label in batch],
                                   rtol=1e-12)
        assert loss.item() == pytest.approx(sum(losses) / len(batch), rel=1e-12)

    def test_takes_no_class_weights(self):
        """`dropout_rng` is keyword-only, so a stale positional weights vector
        cannot bind to it."""
        rng = np.random.default_rng(17)
        cfg = tiny_cfg()
        batch = make_training_pairs(rng, cfg, 3)
        with pytest.raises(TypeError):
            batch_loss(FusionModel(cfg), batch, np.array([0.5, 2.0, 1.25]))

    def test_dropout_draws_ignore_padding(self):
        """Dropout masks are drawn at each sample's valid length, so the padding a
        longer batchmate placed last brings leaves the other samples' losses as they were."""
        rng = np.random.default_rng(22)
        cfg = tiny_cfg(dropout_rate=0.3)
        model = FusionModel(cfg)
        batch = make_training_pairs(rng, cfg, 4)
        longer = (*random_pair(rng, cfg, ta=12, tt=11), 0)
        _, losses = batch_loss(model, batch, dropout_rng=np.random.default_rng(5))
        _, padded_losses = batch_loss(model, batch + [longer], dropout_rng=np.random.default_rng(5))
        np.testing.assert_allclose(padded_losses[:4], losses, rtol=1e-10)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dropout_keeps_match_per_sample_draws(self, seed):
        """One draw split in (sample, branch, layer, site) order gives the masks
        and leaves the generator where the per-sample draws did."""
        rng = np.random.default_rng(40 + seed)
        cfg = tiny_cfg(n_layers=2, dropout_rate=0.3)
        model = FusionModel(cfg)
        lengths_a, lengths_t = [3, 9, 1, 7, 9, 4], [5, 2, 8, 8, 1, 6]
        batch_a = pad_batch([rng.normal(size=(n, cfg.d_a)) for n in lengths_a])
        batch_t = pad_batch([rng.normal(size=(n, cfg.d_t)) for n in lengths_t])
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = model._dropout_keeps(batch_a, batch_t, got_rng)
        want = per_sample_dropout_keeps(cfg, batch_a, batch_t, want_rng)
        for got_branch, want_branch in zip(got, want):
            assert len(got_branch) == len(want_branch) == cfg.n_layers
            for g, w in zip(got_branch, want_branch):
                np.testing.assert_array_equal(g, w)
        assert got_rng.random() == want_rng.random()

    def test_one_op_sequence_per_minibatch(self):
        """The tape records as many ops for 16 samples as for 2."""
        rng = np.random.default_rng(23)
        cfg = tiny_cfg(dropout_rate=0.1)
        model = FusionModel(cfg)
        counts = []
        for n in (2, 16):
            with T.Tape() as tape:
                batch_loss(model, make_training_pairs(rng, cfg, n), dropout_rng=np.random.default_rng(0))
            counts.append(len(tape._steps))
        assert counts[0] == counts[1] <= 120

    def test_backward_leaves_nothing_for_the_cycle_collector(self):
        rng = np.random.default_rng(19)
        cfg = tiny_cfg()
        model = FusionModel(cfg)
        batch = make_training_pairs(rng, cfg, 4)
        gc.collect()
        gc.disable()
        try:
            with T.Tape() as tape:
                loss, _ = batch_loss(model, batch)
            tape.backward(loss)
            del loss
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_evaluate_leaves_nothing_for_the_cycle_collector(self):
        rng = np.random.default_rng(24)
        cfg = tiny_cfg()
        model = FusionModel(cfg)
        pairs = make_training_pairs(rng, cfg, 40)
        gc.collect()
        gc.disable()
        try:
            evaluate(model, pairs)
            assert gc.collect() == 0
        finally:
            gc.enable()


@pytest.fixture
def recorded_ops(monkeypatch):
    """Names of the ops `Tape.record` sees while the test runs."""
    names = []
    record = T.Tape.record

    def counting(tape, name, out, vjps):
        names.append(name)
        record(tape, name, out, vjps)

    monkeypatch.setattr(T.Tape, "record", counting)
    return names


class TestNoGrad:
    """A forward outside every `with tape:` block records nothing and takes no
    gradient, and gives the values of a recorded one."""

    @pytest.mark.parametrize("mode", list(GatingMode))
    def test_forward_matches_a_recording_forward_bit_for_bit(self, mode):
        rng = np.random.default_rng(25)
        cfg = tiny_cfg(gating_mode=mode)
        model = FusionModel(cfg)
        seqs_a, seqs_t, _ = zip(*make_training_pairs(rng, cfg, 5))
        with T.Tape():
            taped = model.forward(pad_batch(seqs_a), pad_batch(seqs_t))
        bare = model.forward(pad_batch(seqs_a), pad_batch(seqs_t))
        assert bare.logits.grad is None and taped.logits.grad is not None
        np.testing.assert_array_equal(bare.logits.data, taped.logits.data)
        for got, want in ((bare.gates_a, taped.gates_a), (bare.gates_t, taped.gates_t)):
            assert (got is None) == (want is None) == (mode is GatingMode.NONE)
            if want is not None:
                np.testing.assert_array_equal(got, want)

    def test_evaluate_and_collect_traces_record_nothing(self, recorded_ops):
        cfg = tiny_cfg()
        model = FusionModel(cfg)
        evaluate(model, make_training_pairs(np.random.default_rng(26), cfg, 40))
        corpus = generate(SynthSpec(n_samples=6, n_classes=3, d_a=cfg.d_a, d_t=cfg.d_t, seed=1))
        assert len(collect_traces(model, corpus.samples)) == 6
        assert recorded_ops == []

    def test_gradcheck_probes_record_nothing(self, recorded_ops):
        cfg = tiny_cfg()
        model = FusionModel(cfg)
        batch = make_training_pairs(np.random.default_rng(27), cfg, 2)
        per_call = []

        def loss_fn():
            before = len(recorded_ops)
            loss = batch_loss(model, batch)[0]
            per_call.append(len(recorded_ops) - before)
            return loss

        params = [p for p in model.parameters() if p.name == "head.b2"]
        assert T.gradcheck(loss_fn, params).passed
        assert len(per_call) == 1 + 2 * params[0].data.size
        assert per_call[0] > 0 and per_call[1:] == [0] * (len(per_call) - 1)

    def test_validation_during_training_leaves_the_run_unchanged(self):
        rng = np.random.default_rng(28)
        cfg = tiny_cfg(dropout_rate=0.1)
        pairs = make_training_pairs(rng, cfg, 10)
        tc = TrainConfig(learning_rate=1e-2, epochs=3, batch_size=4, seed=2)
        plain, validated = FusionModel(cfg), FusionModel(cfg)
        train(plain, pairs[:8], tc)
        history = train(validated, pairs[:8], tc, val_pairs=pairs[8:]).history
        assert all("val_loss" in entry for entry in history)
        for p, q in zip(plain.parameters(), validated.parameters()):
            np.testing.assert_array_equal(p.data, q.data)


def _set(section, key, value):
    def edit(header):
        (header[section] if section else header)[key] = value
        return header
    return edit


def _drop(key):
    def edit(header):
        del header[key]
        return header
    return edit


def _with_long_t(raw):
    """Checkpoint bytes whose header's t has more digits than Python parses."""
    header, blob = split(raw)
    head = json.dumps({**header, "t": "T"}, sort_keys=True).encode().replace(b'"T"', b"9" * 5000)
    return raw[:4] + struct.pack("<I", len(head)) + head + blob


MALFORMED_CHECKPOINTS = {
    "cut_to_6_bytes": lambda raw: raw[:6],
    "no_blob_length": lambda raw: rewrite(raw, _drop("blob_length")),
    "no_row_count": lambda raw: rewrite(raw, _drop("k")),
    "fractional_t": lambda raw: rewrite(raw, _set(None, "t", 1.5)),
    "unknown_config_key": lambda raw: rewrite(raw, _set("config", "colour", 1)),
    "string_d_model": lambda raw: rewrite(raw, _set("config", "d_model", "8")),
    "negative_rows": lambda raw: rewrite(raw, _set(None, "k", -2)),
    "unknown_gating_mode": lambda raw: rewrite(raw, _set("config", "gating_mode", "nope")),
    "header_is_a_list": lambda raw: rewrite(raw, lambda header: [header]),
    "header_nested_past_the_recursion_limit": lambda raw: raw[:4] + struct.pack("<I", 10**5) + b"[" * 10**5,
    "header_int_past_the_digit_limit": lambda raw: _with_long_t(raw),
    "f4_dtype": lambda raw: rewrite(raw, _set(None, "dtype", "<f4")),
}

# blobs that are not the (1 + k) x n float64 array their signed header describes
WRONG_LENGTHS = {
    "blob_8_bytes_long": lambda raw: rewrite(raw, blob=split(raw)[1] + bytes(8)),
    "blob_8_bytes_short": lambda raw: rewrite(raw, blob=split(raw)[1][:-8]),
    "k_1": lambda raw: rewrite(raw, _set(None, "k", 1)),
    "n_layers_2": lambda raw: rewrite(raw, _set("config", "n_layers", 2)),
    "d_model_16": lambda raw: rewrite(raw, _set("config", "d_model", 16)),
}
LENGTH_REFUSAL = r"blob of \d+ bytes is not the \(1 \+ k\) x n"


def adam_checkpoint(path, cfg):
    """Save an untrained model of `cfg` with its Adam state (k = 2); its bytes."""
    model = FusionModel(cfg)
    save_model(model, path, make_optimizer(model, TrainConfig()))
    return path.read_bytes()


class TestCheckpoint:
    # SHA-256 of the format-2 bytes of `diagnostics.tiny_config`'s model after
    # three fixed Adam steps, saved with the optimizer's state: a change to the
    # layout, the header or the optimizer's rows shows here
    PINNED_SHA256 = "945ea5fdad46552774c976db081191854f4c34adc176f6538f2bc58fd7394b28"

    def test_checkpoint_bytes_are_pinned(self, tmp_path):
        model = FusionModel(tiny_config(GatingMode.CROSS_MODAL))
        params = model.parameters()
        opt = Adam(params, 1e-2)
        for step in range(3):
            params.grad[...] = np.random.default_rng([61, step]).normal(size=params.data.size)
            opt.step()
        path = tmp_path / "model.gfck"
        save_model(model, path, opt, meta={"epochs_done": 3})
        raw = path.read_bytes()
        header, blob = split(raw)
        assert (header["t"], header["k"], len(blob)) == (3, 2, 3 * params.data.size * 8)
        assert hashlib.sha256(raw).hexdigest() == self.PINNED_SHA256

    @pytest.mark.parametrize("name", sorted(MALFORMED_CHECKPOINTS))
    def test_malformed_file_raises_typed_error(self, tmp_path, name):
        path = tmp_path / "model.gfck"
        raw = adam_checkpoint(path, tiny_cfg())
        path.write_bytes(MALFORMED_CHECKPOINTS[name](raw))
        with pytest.raises(GatedFusionError):
            load_model(path)

    def test_header_sizes_checked_before_the_model_is_built(self, tmp_path):
        path = tmp_path / "model.gfck"
        save_model(FusionModel(tiny_cfg()), path)
        edit = lambda header: _set("config", "d_model", 10**7)(_set("config", "d_a", 10**7)(header))
        path.write_bytes(rewrite(path.read_bytes(), edit))
        with pytest.raises(ManifestError, match="proj_a.w"):
            load_model(path)

    def test_layout_checked_before_anything_is_built(self, tmp_path, monkeypatch):
        """A signed header whose n_layers is raised from 1 to 3 is refused by the
        blob's length, without building."""
        path = tmp_path / "model.gfck"
        save_model(FusionModel(tiny_cfg()), path)
        path.write_bytes(rewrite(path.read_bytes(), _set("config", "n_layers", 3)))

        def refuse(cfg):
            raise AssertionError("FusionModel built before the layout was checked")

        monkeypatch.setattr(checkpoint, "FusionModel", refuse)
        n = parameter_count(tiny_cfg())
        with pytest.raises(ManifestError, match=re.escape(f"blob of {n * 8} bytes is not the (1 + k) x n = "
                                                          f"(1 + 0) x {parameter_count(tiny_cfg(n_layers=3))}")):
            load_model(path)

    @pytest.mark.parametrize("name", sorted(WRONG_LENGTHS))
    def test_blob_length_checked_before_the_model_is_built(self, tmp_path, monkeypatch, name):
        path = tmp_path / "model.gfck"
        path.write_bytes(WRONG_LENGTHS[name](adam_checkpoint(path, tiny_cfg())))

        def refuse(cfg):
            raise AssertionError("FusionModel built before the blob's length was checked")

        monkeypatch.setattr(checkpoint, "FusionModel", refuse)
        with pytest.raises(ManifestError, match=LENGTH_REFUSAL):
            load_model(path)

    def test_arrays_beyond_the_config_rejected(self, tmp_path):
        """A 2-layer checkpoint whose signed header says 1 layer would drop the
        second layer: its blob is longer than the header's layout."""
        path = tmp_path / "model.gfck"
        save_model(FusionModel(tiny_cfg(n_layers=2)), path)
        path.write_bytes(rewrite(path.read_bytes(), _set("config", "n_layers", 1)))
        with pytest.raises(ManifestError, match=LENGTH_REFUSAL):
            load_model(path)

    def test_swapped_widths_caught_by_the_digest(self, tmp_path):
        """d_a and d_t swapped keep the parameter count, so the blob's length
        still fits: the digest over the config refuses the header. Signed
        again, the same swap loads a model for other inputs."""
        path = tmp_path / "model.gfck"
        raw = adam_checkpoint(path, tiny_cfg())

        def swap(header):
            header["config"]["d_a"], header["config"]["d_t"] = header["config"]["d_t"], header["config"]["d_a"]
            return header

        path.write_bytes(rewrite(raw, swap, sign=False))
        with pytest.raises(ChecksumError, match="checksum of the config and blob mismatch"):
            load_model(path)
        path.write_bytes(rewrite(raw, swap))
        assert (load_model(path)[0].cfg.d_a, load_model(path)[0].cfg.d_t) == (4, 5)

    def test_version_1_file_refused(self, tmp_path):
        """A format-1 file, which named every array in its header, is refused
        with the advice to retrain."""
        model = FusionModel(tiny_cfg())
        blob = model.parameters().data.astype("<f8").tobytes()
        header = {"format_version": 1, "dtype": "<f8", "config": model.cfg.to_dict(), "meta": {},
                  "arrays": [{"name": p.name, "rows": p.data.shape[0], "cols": p.data.shape[1]}
                             for p in model.parameters()],
                  "blob_length": len(blob), "blob_sha256": hashlib.sha256(blob).hexdigest()}
        head = json.dumps(header, sort_keys=True).encode()
        path = tmp_path / "v1.gfck"
        path.write_bytes(b"GFCK" + struct.pack("<I", len(head)) + head + blob)
        with pytest.raises(UnsupportedVersionError, match="format_version 1 is not 2; retrain"):
            load_model(path)

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_parameter_shapes_match_the_model(self, n_layers):
        """Every row's shape by formula from the config fields, with one block
        of encoder rows per layer in each branch, and the model built to it."""
        for ff_mult, n_classes, d_model, n_heads in itertools.product((1, 4), (2, 4), (4, 8), (1, 2)):
            cfg = tiny_cfg(n_layers=n_layers, ff_mult=ff_mult, n_classes=n_classes, d_model=d_model,
                           n_heads=n_heads)
            d, f, c = d_model, d_model * ff_mult, n_classes
            square, row = (d, d), (1, d)
            layer = {"wq": square, "wk": square, "wv": square, "wo": square, "bq": row, "bv": row,
                     "bo": row, "ln1_g": row, "ln1_b": row, "ffn_w1": (d, f), "ffn_b1": (1, f),
                     "ffn_w2": (f, d), "ffn_b2": row, "ln2_g": row, "ln2_b": row}
            want = [("proj_a.w", (cfg.d_a, d)), ("proj_a.b", row), ("proj_t.w", (cfg.d_t, d)),
                    ("proj_t.b", row), ("gate.w_a", (2 * d, 1)), ("gate.w_t", (2 * d, 1)),
                    ("gate.b_a", (1, 1)), ("gate.b_t", (1, 1))]
            for branch in ("enc_a", "enc_t"):
                for i in range(n_layers):
                    want += [(f"{branch}.{i}.{name}", shape) for name, shape in layer.items()]
            want += [("head.w1", (2 * d, d)), ("head.b1", row), ("head.w2", (d, c)), ("head.b2", (1, c))]
            assert parameter_shapes(cfg) == want
            params = FusionModel(cfg).parameters()
            assert [(p.name, p.data.shape) for p in params] == want
            assert parameter_count(cfg) == params.data.size

    def test_parameter_shapes_are_pinned(self):
        """The checkpoint layout of the gradcheck's model, written out: a row
        moved, renamed or reshaped in the parameter table shows here."""
        assert list(parameter_shapes(tiny_config(GatingMode.CROSS_MODAL))) == [
            ("proj_a.w", (5, 8)), ("proj_a.b", (1, 8)), ("proj_t.w", (4, 8)), ("proj_t.b", (1, 8)),
            ("gate.w_a", (16, 1)), ("gate.w_t", (16, 1)), ("gate.b_a", (1, 1)), ("gate.b_t", (1, 1)),
            ("enc_a.0.wq", (8, 8)), ("enc_a.0.wk", (8, 8)), ("enc_a.0.wv", (8, 8)), ("enc_a.0.wo", (8, 8)),
            ("enc_a.0.bq", (1, 8)), ("enc_a.0.bv", (1, 8)), ("enc_a.0.bo", (1, 8)),
            ("enc_a.0.ln1_g", (1, 8)), ("enc_a.0.ln1_b", (1, 8)), ("enc_a.0.ffn_w1", (8, 16)),
            ("enc_a.0.ffn_b1", (1, 16)), ("enc_a.0.ffn_w2", (16, 8)), ("enc_a.0.ffn_b2", (1, 8)),
            ("enc_a.0.ln2_g", (1, 8)), ("enc_a.0.ln2_b", (1, 8)), ("enc_t.0.wq", (8, 8)),
            ("enc_t.0.wk", (8, 8)), ("enc_t.0.wv", (8, 8)), ("enc_t.0.wo", (8, 8)), ("enc_t.0.bq", (1, 8)),
            ("enc_t.0.bv", (1, 8)), ("enc_t.0.bo", (1, 8)), ("enc_t.0.ln1_g", (1, 8)),
            ("enc_t.0.ln1_b", (1, 8)), ("enc_t.0.ffn_w1", (8, 16)), ("enc_t.0.ffn_b1", (1, 16)),
            ("enc_t.0.ffn_w2", (16, 8)), ("enc_t.0.ffn_b2", (1, 8)), ("enc_t.0.ln2_g", (1, 8)),
            ("enc_t.0.ln2_b", (1, 8)), ("head.w1", (16, 8)), ("head.b1", (1, 8)), ("head.w2", (8, 3)),
            ("head.b2", (1, 3))]

    @pytest.mark.parametrize("name", ["head.b2", "opt.v.gate.w_a"])
    def test_save_refuses_a_non_finite_array(self, tmp_path, name):
        model = FusionModel(tiny_cfg())
        opt = make_optimizer(model, TrainConfig())
        if name == "head.b2":
            model.slots["head.b2"].data[0, 0] = np.inf
            entry = "parameter 'head.b2'"
        else:
            model.parameters().split(opt.rows[1])[list(model.slots).index("gate.w_a")][0, 0] = np.inf
            entry = "optimizer state row 1 at 'gate.w_a'"
        path = tmp_path / "model.gfck"
        path.write_bytes(b"old")
        with pytest.raises(ManifestError, match=re.escape(f"{entry} holds a non-finite value")):
            save_model(model, path, opt)
        assert path.read_bytes() == b"old"

    def test_1000_header_mutations_raise_typed_errors(self, tmp_path):
        """Criterion 10b's manifest fuzz, applied to the checkpoint header. A
        mutated header is signed again unless the mutation hit its digest, so
        that it reaches the field checks and not only the checksum."""
        path = tmp_path / "model.gfck"
        pristine = adam_checkpoint(path, tiny_cfg())
        pristine_header, blob = split(pristine)
        junk = [None, True, False, -1, 0, 1, 3.5, "x", [], {}, [1], 10**15, -(10**15),
                "offset", 2.0, float("inf")]
        rng = np.random.default_rng(53)
        typed, other = 0, []
        for _ in range(1000):
            header = json.loads(json.dumps(pristine_header))
            for _ in range(int(rng.integers(1, 4))):
                target = header
                if rng.random() >= 0.3:
                    cand = header.get("config")
                    if isinstance(cand, dict) and cand:  # prior edit may have junked it
                        target = cand
                keys = list(target.keys())
                key = keys[int(rng.integers(len(keys)))]
                roll = rng.random()
                if roll < 0.2:
                    del target[key]
                elif roll < 0.4 and isinstance(target[key], int):
                    target[key] = int(target[key] + rng.integers(-10**6, 10**6))
                else:
                    target[key] = junk[int(rng.integers(len(junk)))]
            if header.get("sha256") == pristine_header["sha256"]:
                header["sha256"] = digest(header.get("config"), blob)
            path.write_bytes(rewrite(pristine, lambda _: header, sign=False))
            try:
                load_model(path)
            except GatedFusionError:
                typed += 1
            except Exception as e:
                other.append(repr(e))
        assert other == []
        assert typed >= 900

    def test_round_trip_identical_logits(self, tmp_path):
        rng = np.random.default_rng(20)
        cfg = tiny_cfg()
        model = FusionModel(cfg)
        path = tmp_path / "model.gfck"
        save_model(model, path)
        loaded, ckpt = load_model(path)
        a, t = random_pair(rng, cfg)
        np.testing.assert_array_equal(loaded.forward(pad_batch([a]), pad_batch([t])).logits.data[0],
                                      model.forward(pad_batch([a]), pad_batch([t])).logits.data[0])
        assert loaded.cfg == cfg
        assert (ckpt.t, ckpt.rows.shape, ckpt.meta) == (0, (0, model.parameters().data.size), {})

    def test_load_writes_parameters_in_place(self, tmp_path):
        """A loaded model's parameters stay views of its flat vectors."""
        model = FusionModel(tiny_cfg(seed=3))
        path = tmp_path / "model.gfck"
        save_model(model, path)
        loaded, _ = load_model(path)
        flat = loaded.parameters()
        np.testing.assert_array_equal(flat.data, model.parameters().data)
        assert all(np.shares_memory(p.data, flat.data) and np.shares_memory(p.grad, flat.grad)
                   for p in flat)

    def test_truncated_blob_detected(self, tmp_path):
        model = FusionModel(tiny_cfg())
        path = tmp_path / "model.gfck"
        save_model(model, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(ChecksumError):
            load_model(path)

    def test_flipped_byte_detected(self, tmp_path):
        model = FusionModel(tiny_cfg())
        path = tmp_path / "model.gfck"
        save_model(model, path)
        raw = bytearray(path.read_bytes())
        raw[-5] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ChecksumError):
            load_model(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_array_rejected(self, tmp_path, bad):
        """A non-finite optimizer entry in a signed blob is refused on load,
        naming its row and parameter."""
        path = tmp_path / "model.gfck"
        raw = adam_checkpoint(path, tiny_cfg())
        rows = stack(raw)
        rows[1, 0] = bad
        path.write_bytes(rewrite(raw, blob=rows.astype("<f8").tobytes()))
        with pytest.raises(ManifestError, match="optimizer state row 0 at 'proj_a.w' holds a non-finite value"):
            load_model(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.gfck"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ManifestError):
            load_model(path)

    def test_unknown_version(self, tmp_path):
        path = tmp_path / "v.gfck"
        save_model(FusionModel(tiny_cfg()), path)
        path.write_bytes(rewrite(path.read_bytes(), _set(None, "format_version", 99)))
        with pytest.raises(UnsupportedVersionError):
            load_model(path)

    def test_resume_matches_unbroken_run(self, tmp_path):
        rng = np.random.default_rng(22)
        cfg = tiny_cfg(dropout_rate=0.1)
        pairs = make_training_pairs(rng, cfg, 8)

        full_cfg = TrainConfig(learning_rate=1e-3, epochs=6, batch_size=4, seed=5)
        unbroken = FusionModel(cfg)
        opt_u = make_optimizer(unbroken, full_cfg)
        train(unbroken, pairs, full_cfg, optimizer=opt_u)

        half_cfg = TrainConfig(learning_rate=1e-3, epochs=3, batch_size=4, seed=5)
        resumed = FusionModel(cfg)
        opt_r = make_optimizer(resumed, half_cfg)
        train(resumed, pairs, half_cfg, optimizer=opt_r)
        path = tmp_path / "mid.gfck"
        save_model(resumed, path, opt_r)

        restored, ckpt = load_model(path)
        opt2 = make_optimizer(restored, full_cfg)
        opt2.load_state(ckpt.t, ckpt.rows)
        train(restored, pairs, full_cfg, start_epoch=3, optimizer=opt2)

        for pu, pr in zip(unbroken.parameters(), restored.parameters()):
            np.testing.assert_array_equal(pu.data, pr.data)
