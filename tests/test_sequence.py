"""Masked sequences, pooling, context expansion, batching."""

import numpy as np
import pytest

from gatedfusion import tensor as T
from gatedfusion.errors import EmptySequenceError, ShapeError
from gatedfusion.sequence import (
    MaskedSequence,
    expand_context,
    masked_mean_pool,
    pad_batch,
)


def random_seq(rng, t_len, d, pad=0):
    feats = rng.normal(size=(t_len, d))
    return MaskedSequence.from_valid(feats).padded_to(t_len + pad)


def pool_constant(seq):
    return masked_mean_pool(T.Tape().constant(seq.features), seq.mask).data


class TestMaskedSequence:
    def test_rejects_empty(self):
        with pytest.raises(EmptySequenceError):
            MaskedSequence(np.zeros((2, 3)), np.zeros(2))

    def test_rejects_non_prefix_mask(self):
        with pytest.raises(ShapeError):
            MaskedSequence(np.zeros((3, 2)), np.array([1.0, 0.0, 1.0]))

    def test_rejects_nonzero_padding_rows(self):
        feats = np.ones((3, 2))
        with pytest.raises(ShapeError):
            MaskedSequence(feats, np.array([1.0, 1.0, 0.0]))

    def test_padded_to_roundtrip(self):
        rng = np.random.default_rng(0)
        seq = random_seq(rng, 5, 3)
        padded = seq.padded_to(9)
        assert padded.valid_count == 5
        np.testing.assert_array_equal(padded.valid_features(), seq.features)


class TestMaskedMeanPool:
    def test_plain_mean(self):
        seq = MaskedSequence.from_valid([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(pool_constant(seq), [[2.0, 3.0]])

    def test_padding_does_not_shift_mean(self):
        seq = MaskedSequence(
            np.array([[1.0, 2.0], [3.0, 4.0], [0.0, 0.0]]), np.array([1.0, 1.0, 0.0])
        )
        np.testing.assert_allclose(pool_constant(seq), [[2.0, 3.0]])

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(42)
        seq = random_seq(rng, 17, 8, pad=4)
        # brute-force loop over valid rows only
        acc = np.zeros(8)
        for i in range(seq.length):
            if seq.mask[i]:
                acc += seq.features[i]
        expected = acc / seq.valid_count
        np.testing.assert_allclose(pool_constant(seq)[0], expected, atol=1e-12)

    def test_gradient_zero_at_padded_rows(self):
        rng = np.random.default_rng(1)
        seq = random_seq(rng, 4, 3, pad=2)
        p = T.Parameter("h", seq.features)
        tape = T.Tape()
        pooled = masked_mean_pool(tape.leaf(p), seq.mask)
        loss = T.sum_all(pooled)
        tape.backward(loss)
        np.testing.assert_array_equal(p.grad[4:], 0.0)
        np.testing.assert_allclose(p.grad[:4], 0.25)


class TestExpandContext:
    def test_replicates(self):
        tape = T.Tape()
        out = expand_context(tape.constant([[1.0, 2.0]]), 3)
        np.testing.assert_array_equal(out.data, [[1, 2], [1, 2], [1, 2]])

    def test_length_one_is_identity(self):
        tape = T.Tape()
        out = expand_context(tape.constant([[5.0, -1.0]]), 1)
        np.testing.assert_array_equal(out.data, [[5.0, -1.0]])

    def test_invalid_length(self):
        tape = T.Tape()
        with pytest.raises(ShapeError):
            expand_context(tape.constant([[1.0]]), 0)

    def test_gradient_of_sum_is_t_times_ones(self):
        p = T.Parameter("ctx", np.array([[0.3, -0.8]]))

        def loss_fn():
            tape = T.Tape()
            return T.sum_all(expand_context(tape.leaf(p), 7))

        loss = loss_fn()
        loss.tape.backward(loss)
        np.testing.assert_allclose(p.grad, 7.0)
        assert T.gradcheck(loss_fn, [p], tol=1e-8).passed

    def test_pool_of_expansion_round_trip(self):
        tape = T.Tape()
        ctx = tape.constant([[1.0, -2.0, 0.5]])
        back = masked_mean_pool(expand_context(ctx, 6), np.ones(6))
        np.testing.assert_allclose(back.data, ctx.data, atol=1e-15)


class TestPadBatch:
    def test_mixed_lengths(self):
        rng = np.random.default_rng(2)
        seqs = [random_seq(rng, 2, 3), random_seq(rng, 3, 3)]
        feats, masks = pad_batch(seqs)
        assert feats.shape == (2, 3, 3)
        np.testing.assert_array_equal(masks[0], [1, 1, 0])
        np.testing.assert_array_equal(masks[1], [1, 1, 1])

    def test_single_sequence_unchanged(self):
        rng = np.random.default_rng(3)
        seq = random_seq(rng, 4, 2)
        feats, masks = pad_batch([seq])
        np.testing.assert_array_equal(feats[0], seq.features)

    def test_mixed_widths_rejected(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ShapeError):
            pad_batch([random_seq(rng, 2, 3), random_seq(rng, 2, 4)])
