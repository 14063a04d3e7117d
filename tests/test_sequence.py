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


def pad_loop(seqs):
    """Reference padding: one sequence at a time into zeroed (B, T_max, d) and (B, T_max) arrays."""
    seqs = [np.asarray(s, dtype=np.float64) for s in seqs]
    t_max = max(len(s) for s in seqs)
    feats = np.zeros((len(seqs), t_max, seqs[0].shape[1]))
    masks = np.zeros((len(seqs), t_max))
    for i, s in enumerate(seqs):
        feats[i, : len(s)] = s
        masks[i, : len(s)] = 1.0
    return feats, masks


def pool_constant(feats, mask):
    return masked_mean_pool(T.constant(feats), mask).data


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
        with T.Tape() as tape:
            loss = T.sum_all(masked_mean_pool(p, mask))
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

    @pytest.mark.parametrize("case", ["mixed_lengths", "single", "float32", "int"])
    def test_matches_per_sample_loop_bit_for_bit(self, case):
        rng = np.random.default_rng(6)
        seqs = {
            "mixed_lengths": [rng.normal(size=(n, 5)) for n in (3, 9, 1, 9, 4)],
            "single": [rng.normal(size=(7, 3))],
            "float32": [rng.normal(size=(n, 4)).astype(np.float32) for n in (2, 6, 5)],
            "int": [rng.integers(-50, 50, size=(n, 3)) for n in (4, 1, 3)],
        }[case]
        feats, masks = pad_batch(seqs)
        ref_feats, ref_masks = pad_loop(seqs)
        for got, want in ((feats, ref_feats), (masks, ref_masks)):
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("faults, error, message", [
        ([np.zeros(3), np.zeros((0, 3)), np.zeros((2, 4))], ShapeError, "2-D"),
        ([np.zeros((0, 3)), np.zeros(3), np.zeros((2, 4))], EmptySequenceError, "no valid positions"),
        ([np.zeros((2, 4)), np.zeros(3), np.zeros((0, 3))], ShapeError, "mixed feature widths in batch: 4 vs 3"),
    ])
    def test_first_faulty_sequence_is_named(self, faults, error, message):
        """Each sequence is checked in list order, so the first fault raises."""
        with pytest.raises(error, match=message):
            pad_batch([np.zeros((2, 3))] + faults)
