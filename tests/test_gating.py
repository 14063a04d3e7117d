"""Gating semantics: scalar-loop oracle equivalence, locality, padding.

Gates are read from `FusionModel.forward` with identity input projections, so
these tests check the same mode dispatch and gate the model trains with.
"""

import math

import numpy as np
import pytest

from gatedfusion import tensor as T
from gatedfusion.errors import ShapeError
from gatedfusion.gating import GatingMode, GatingParams, gate_sequence, refine_sequence
from gatedfusion.model import FusionModel, ModelConfig
from gatedfusion.sequence import masked_mean_pool, pad_batch
from padding import pad_extra


def scalar_loop_gates(features, ctx_features, w, b):
    """Per-frame oracle: sigmoid of an explicit scalar dot product."""
    n, d = ctx_features.shape
    ctx = [sum(ctx_features[i][j] for i in range(n)) / n for j in range(d)]
    out = []
    for i in range(features.shape[0]):
        concat = list(features[i]) + ctx
        z = sum(w[k, 0] * concat[k] for k in range(2 * d)) + b
        out.append(1.0 / (1.0 + math.exp(-z)))
    return np.array(out).reshape(-1, 1)


def make_params(rng, d):
    params = GatingParams.init(d)
    params.w_a.data[...] = rng.normal(size=params.w_a.data.shape)
    params.w_t.data[...] = rng.normal(size=params.w_t.data.shape)
    params.b_a.data[...] = rng.normal(size=(1, 1))
    params.b_t.data[...] = rng.normal(size=(1, 1))
    return params


def random_seq(rng, t_len, d):
    return rng.normal(size=(t_len, d))


def assert_gates(gates, expected):
    """Gates of the valid rows match `expected`; gates of padded rows are exactly 0."""
    np.testing.assert_allclose(gates[: len(expected)], expected, atol=1e-12)
    np.testing.assert_array_equal(gates[len(expected) :], 0.0)


def model_gates(seq_a, seq_t, params, mode=GatingMode.CROSS_MODAL, pad_a=0, pad_t=0):
    """(gates_a, gates_t) from forward, with identity projections so the gates see the inputs.

    Each sequence runs with `pad_a`/`pad_t` extra padded rows, whose gates are returned too.
    """
    d = params.w_a.data.shape[0] // 2
    model = FusionModel(ModelConfig(d_a=d, d_t=d, d_model=d, n_heads=1, n_layers=1, ff_mult=1,
                                    n_classes=2, gating_mode=mode, dropout_rate=0.0))
    for w, b in ((model.proj_a_w, model.proj_a_b), (model.proj_t_w, model.proj_t_b)):
        w.data[...] = np.eye(d)
        b.data[...] = 0.0
    model.gating = params
    result = model.forward(pad_extra(pad_batch([seq_a]), pad_a), pad_extra(pad_batch([seq_t]), pad_t))
    return result.gates_a[0], result.gates_t[0]


class TestCrossModal:
    def test_zero_weights_give_half_gates(self):
        rng = np.random.default_rng(0)
        d = 4
        params = GatingParams.init(d)
        for p in params.parameters():
            p.data[...] = 0.0
        seq_a, seq_t = random_seq(rng, 5, d), random_seq(rng, 3, d)
        gates_a, gates_t = model_gates(seq_a, seq_t, params)
        np.testing.assert_allclose(gates_a, 0.5)
        np.testing.assert_allclose(gates_t, 0.5)

    def test_identical_frames_get_identical_gates(self):
        rng = np.random.default_rng(1)
        d = 3
        params = make_params(rng, d)
        seq_a = np.tile(rng.normal(size=(1, d)), (6, 1))
        seq_t = random_seq(rng, 4, d)
        gates_a, _ = model_gates(seq_a, seq_t, params)
        np.testing.assert_allclose(gates_a, gates_a[0, 0], atol=1e-14)

    def test_two_frame_hand_oracle(self):
        rng = np.random.default_rng(2)
        d = 3
        params = make_params(rng, d)
        seq_a, seq_t = random_seq(rng, 2, d), random_seq(rng, 2, d)
        gates_a, gates_t = model_gates(seq_a, seq_t, params)
        assert_gates(gates_a, scalar_loop_gates(seq_a, seq_t, params.w_a.data, params.b_a.data[0, 0]))
        assert_gates(gates_t, scalar_loop_gates(seq_t, seq_a, params.w_t.data, params.b_t.data[0, 0]))


class TestUnimodal:
    def test_single_frame_context_is_frame_itself(self):
        rng = np.random.default_rng(4)
        d = 5
        params = make_params(rng, d)
        frame = rng.normal(size=(1, d))
        gates_a, _ = model_gates(frame, random_seq(rng, 3, d), params, GatingMode.UNIMODAL)
        z = np.concatenate([frame[0], frame[0]]) @ params.w_a.data[:, 0] + params.b_a.data[0, 0]
        assert gates_a[0, 0] == pytest.approx(1.0 / (1.0 + np.exp(-z)), abs=1e-14)

    def test_zero_weights(self):
        rng = np.random.default_rng(5)
        params = GatingParams.init(4)
        for p in params.parameters():
            p.data[...] = 0.0
        gates_a, gates_t = model_gates(random_seq(rng, 7, 4), random_seq(rng, 3, 4), params,
                                       GatingMode.UNIMODAL)
        np.testing.assert_allclose(gates_a, 0.5)
        np.testing.assert_allclose(gates_t, 0.5)

    def test_random_vs_scalar_loop(self):
        rng = np.random.default_rng(6)
        d = 4
        params = make_params(rng, d)
        seq_a, seq_t = random_seq(rng, 9, d), random_seq(rng, 5, d)
        gates_a, gates_t = model_gates(seq_a, seq_t, params, GatingMode.UNIMODAL, pad_a=3, pad_t=1)
        assert_gates(gates_a, scalar_loop_gates(seq_a, seq_a, params.w_a.data, params.b_a.data[0, 0]))
        assert_gates(gates_t, scalar_loop_gates(seq_t, seq_t, params.w_t.data, params.b_t.data[0, 0]))


@pytest.mark.parametrize("seed", range(100))
def test_oracle_equivalence_both_modes(seed):
    """The model's gates equal the per-frame scalar loop in both modes, 100 instances."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 7))
    params = make_params(rng, d)
    t_a, pad_a = int(rng.integers(1, 12)), int(rng.integers(0, 4))
    seq_a = random_seq(rng, t_a, d)
    t_t, pad_t = int(rng.integers(1, 12)), int(rng.integers(0, 4))
    seq_t = random_seq(rng, t_t, d)

    for mode, ctx_a, ctx_t in ((GatingMode.CROSS_MODAL, seq_t, seq_a),
                               (GatingMode.UNIMODAL, seq_a, seq_t)):
        gates_a, gates_t = model_gates(seq_a, seq_t, params, mode, pad_a, pad_t)
        assert_gates(gates_a, scalar_loop_gates(seq_a, ctx_a, params.w_a.data, params.b_a.data[0, 0]))
        assert_gates(gates_t, scalar_loop_gates(seq_t, ctx_t, params.w_t.data, params.b_t.data[0, 0]))


class TestRefine:
    def test_all_ones_identity(self):
        rng = np.random.default_rng(7)
        feats = pad_extra(pad_batch([random_seq(rng, 5, 3)]), 2).features[0]
        tape = T.Tape()
        out = refine_sequence(tape.constant(feats), tape.constant(np.ones((7, 1))))
        np.testing.assert_array_equal(out.data, feats)

    def test_all_zeros(self):
        rng = np.random.default_rng(8)
        tape = T.Tape()
        out = refine_sequence(tape.constant(random_seq(rng, 5, 3)), tape.constant(np.zeros((5, 1))))
        np.testing.assert_array_equal(out.data, 0.0)

    def test_length_mismatch(self):
        rng = np.random.default_rng(9)
        tape = T.Tape()
        with pytest.raises(ShapeError):
            refine_sequence(tape.constant(random_seq(rng, 5, 3)), tape.constant(np.ones((4, 1))))

    def test_gradcheck_through_gate_and_refine(self):
        rng = np.random.default_rng(10)
        d = 3
        params = make_params(rng, d)
        (feats_a,), (mask_a,) = pad_extra(pad_batch([random_seq(rng, 4, d)]), 1)
        seq_t = random_seq(rng, 3, d)
        h_param = T.Parameter("h_a", feats_a)

        def loss_fn():
            tape = T.Tape()
            feats = tape.leaf(h_param)
            context = masked_mean_pool(tape.constant(seq_t), np.ones(3))
            gates = gate_sequence(feats, mask_a, context, tape.leaf(params.w_a), tape.leaf(params.b_a))
            refined = refine_sequence(feats, gates)
            return T.sum_all(T.sigmoid(refined))

        report = T.gradcheck(loss_fn, [h_param, params.w_a, params.b_a], tol=1e-4)
        assert report.passed, f"{report}"


class TestStructuralInvariants:
    def test_gate_range_open_interval(self):
        rng = np.random.default_rng(11)
        d = 4
        params = make_params(rng, d)
        params.w_a.data *= 100  # drive sigmoid toward saturation
        (seq,), (mask,) = pad_extra(pad_batch([random_seq(rng, 20, d)]), 5)
        tape = T.Tape()
        feats = tape.constant(seq)
        context = masked_mean_pool(feats, mask)
        gates = gate_sequence(feats, mask, context, tape.leaf(params.w_a), tape.leaf(params.b_a))
        refined = refine_sequence(feats, gates)
        assert np.all(gates.data[:20] > 0.0) and np.all(gates.data[:20] < 1.0)
        np.testing.assert_array_equal(gates.data[20:], 0.0)
        np.testing.assert_array_equal(refined.data[20:], 0.0)

    def test_unimodal_invariant_to_other_modality(self):
        rng = np.random.default_rng(12)
        d = 4
        params = make_params(rng, d)
        seq_a = random_seq(rng, 6, d)
        g1, _ = model_gates(seq_a, random_seq(rng, 5, d), params, GatingMode.UNIMODAL)
        g2, _ = model_gates(seq_a, random_seq(rng, 8, d), params, GatingMode.UNIMODAL, pad_t=2)
        np.testing.assert_array_equal(g1, g2)

    def test_cross_modal_depends_on_other_context(self):
        rng = np.random.default_rng(13)
        d = 4
        params = make_params(rng, d)
        seq_a = random_seq(rng, 6, d)
        seq_t1 = random_seq(rng, 5, d)
        seq_t2 = seq_t1 + rng.normal(size=(5, d))
        g1, _ = model_gates(seq_a, seq_t1, params)
        g2, _ = model_gates(seq_a, seq_t2, params)
        assert not np.allclose(g1, g2)

    def test_zeroed_context_half_blocks_cross_dependence(self):
        rng = np.random.default_rng(14)
        d = 4
        params = make_params(rng, d)
        params.w_a.data[d:, :] = 0.0  # kill the context half of the projection
        seq_a = random_seq(rng, 6, d)
        g1, _ = model_gates(seq_a, random_seq(rng, 5, d), params)
        g2, _ = model_gates(seq_a, random_seq(rng, 8, d), params)
        np.testing.assert_allclose(g1, g2, atol=1e-14)

    def test_frame_change_is_local_given_fixed_context(self):
        rng = np.random.default_rng(15)
        d = 4
        params = make_params(rng, d)
        seq_t = random_seq(rng, 5, d)
        feats = rng.normal(size=(6, d))
        g1, _ = model_gates(feats, seq_t, params)
        feats2 = feats.copy()
        feats2[2] += 1.0
        g2, _ = model_gates(feats2, seq_t, params)
        changed = ~np.isclose(g1[:, 0], g2[:, 0], atol=1e-14)
        np.testing.assert_array_equal(changed, [False, False, True, False, False, False])

    @pytest.mark.parametrize("pad", [1, 8, 32])
    def test_padding_invariance(self, pad):
        rng = np.random.default_rng(16)
        d = 5
        params = make_params(rng, d)
        seq_a = random_seq(rng, 7, d)
        seq_t = random_seq(rng, 4, d)
        base_a, base_t = model_gates(seq_a, seq_t, params)
        padded_a, padded_t = model_gates(seq_a, seq_t, params, pad_a=pad, pad_t=pad)
        np.testing.assert_allclose(padded_a[:7], base_a, atol=1e-15)
        np.testing.assert_allclose(padded_t[:4], base_t, atol=1e-15)
        np.testing.assert_array_equal(padded_a[7:], 0.0)
        np.testing.assert_array_equal(padded_t[4:], 0.0)
