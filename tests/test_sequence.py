"""Batching, masked pooling, context expansion."""

import numpy as np
import pytest

from gatedfusion import tensor as T
from gatedfusion.errors import EmptySequenceError, ShapeError
from gatedfusion.sequence import PaddedBatch, masked_mean_pool, pad_batch
from padding import pad_extra


def padded(feats, extra):
    """One sequence's (features, mask), followed by `extra` zero rows with mask 0."""
    (feats,), (mask,) = pad_extra(pad_batch([feats]), extra)
    return feats, mask


def pool_constant(feats, mask):
    return masked_mean_pool(T.Tape().constant(feats), mask).data


class TestMaskedMeanPool:
    def test_plain_mean(self):
        np.testing.assert_allclose(pool_constant(*padded([[1.0, 2.0], [3.0, 4.0]], 0)), [[2.0, 3.0]])

    def test_padding_does_not_shift_mean(self):
        np.testing.assert_allclose(pool_constant(*padded([[1.0, 2.0], [3.0, 4.0]], 1)), [[2.0, 3.0]])

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(42)
        feats = rng.normal(size=(17, 8))
        # brute-force loop over the valid rows
        acc = np.zeros(8)
        for row in feats:
            acc += row
        np.testing.assert_allclose(pool_constant(*padded(feats, 4))[0], acc / 17, atol=1e-12)

    def test_gradient_zero_at_padded_rows(self):
        rng = np.random.default_rng(1)
        feats, mask = padded(rng.normal(size=(4, 3)), 2)
        p = T.Parameter("h", feats)
        tape = T.Tape()
        pooled = masked_mean_pool(tape.leaf(p), mask)
        loss = T.sum_all(pooled)
        tape.backward(loss)
        np.testing.assert_array_equal(p.grad[4:], 0.0)
        np.testing.assert_allclose(p.grad[:4], 0.25)


class TestPadBatch:
    def test_mixed_lengths(self):
        rng = np.random.default_rng(2)
        seqs = [rng.normal(size=(2, 3)), rng.normal(size=(3, 3))]
        feats, masks = pad_batch(seqs)
        assert feats.shape == (2, 3, 3)
        np.testing.assert_array_equal(masks[0], [1, 1, 0])
        np.testing.assert_array_equal(masks[1], [1, 1, 1])
        np.testing.assert_array_equal(feats[0, 2], 0.0)

    def test_single_sequence_unchanged(self):
        rng = np.random.default_rng(3)
        seq = rng.normal(size=(4, 2))
        feats, masks = pad_batch([seq])
        np.testing.assert_array_equal(feats[0], seq)
        np.testing.assert_array_equal(masks[0], 1.0)

    def test_counts(self):
        batch = pad_batch([np.zeros((2, 3)), np.zeros((5, 3))])
        assert isinstance(batch, PaddedBatch)
        assert (batch.valid_count, batch.length) == (7, 10)

    def test_mixed_widths_rejected(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ShapeError):
            pad_batch([rng.normal(size=(2, 3)), rng.normal(size=(2, 4))])

    def test_rejects_empty(self):
        with pytest.raises(EmptySequenceError):
            pad_batch([np.zeros((2, 3)), np.zeros((0, 3))])

    @pytest.mark.parametrize("shape", [(3,), (2, 3, 4)])
    def test_rejects_arrays_that_are_not_2d(self, shape):
        with pytest.raises(ShapeError):
            pad_batch([np.zeros(shape)])

    def test_rejects_zero_sequences(self):
        with pytest.raises(ShapeError):
            pad_batch([])
