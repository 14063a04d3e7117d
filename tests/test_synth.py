"""Corpus generator invariants and the generative-parameter accuracy ceiling."""

import itertools
import math

import numpy as np
import pytest

from gatedfusion import synth
from gatedfusion.errors import ConfigError
from gatedfusion.synth import (
    MAX_FEATURE_VALUES,
    SynthSpec,
    bayes_oracle_accuracy,
    bayes_predictions,
    generate,
    model_inputs,
)
import oracle_reference


def marginalized(spec, feats, ks):
    """Class `1`'s marginalized log-likelihood of `feats` (one modality) with
    `k` diagnostic frames, for each k in `ks`, from `synth._logliks`."""
    flags = [(np.arange(len(feats)) < k).astype(np.int64) for k in ks]
    return synth._logliks(spec, [feats] * len(ks), flags)[1][:, 1]


def small_spec(**kw):
    base = dict(n_samples=60, n_classes=3, d_a=6, d_t=6, len_range_a=(10, 20),
                len_range_t=(8, 16), sparsity=0.2, signal_gain=2.0, marker_gain=1.5,
                energy_coupling=1.0, noise_sigma=1.0, seed=0)
    base.update(kw)
    return SynthSpec(**base)


class TestSpecValidation:
    def test_sparsity_bounds(self):
        with pytest.raises(ConfigError):
            small_spec(sparsity=0.0)
        with pytest.raises(ConfigError):
            small_spec(sparsity=1.5)

    def test_sparsity_too_low_for_min_length(self):
        with pytest.raises(ConfigError, match="diagnostic"):
            small_spec(sparsity=0.05, len_range_a=(4, 20))

    def test_width_must_fit_class_and_marker_axes(self):
        with pytest.raises(ConfigError):
            small_spec(d_a=3)

    def test_bad_length_range(self):
        with pytest.raises(ConfigError):
            small_spec(len_range_a=(20, 10))

    def test_coupling_range(self):
        with pytest.raises(ConfigError):
            small_spec(energy_coupling=1.2)

    def test_round_trips_through_dict(self):
        spec = small_spec()
        assert SynthSpec(**spec.to_dict()) == spec

    @pytest.mark.parametrize("field", ["d_a", "n_samples"])
    def test_feature_value_budget(self, field):
        """A one-frame spec holds d_a + d_t values per sample: at the budget it
        is accepted, and one d_a or one sample past it refused, by construction
        alone."""
        kw = dict(n_classes=3, sparsity=1.0, len_range_a=(1, 1), len_range_t=(1, 1), d_t=4)
        at_budget = (dict(n_samples=1, d_a=MAX_FEATURE_VALUES - 4) if field == "d_a"
                     else dict(n_samples=MAX_FEATURE_VALUES // 8, d_a=4))
        assert SynthSpec(**kw, **at_budget).n_samples == at_budget["n_samples"]
        past = {**at_budget, field: at_budget[field] + 1}
        values = past["n_samples"] * (past["d_a"] + 4)
        with pytest.raises(ConfigError, match=rf"n_samples {past['n_samples']} x \(len_range_a\[1\] 1 x "
                                              rf"d_a {past['d_a']} \+ len_range_t\[1\] 1 x d_t 4\) = {values} "
                                              rf"feature values exceed the budget of {MAX_FEATURE_VALUES}"):
            SynthSpec(**kw, **past)

    def test_oracle_sample_budget(self, monkeypatch):
        spec = small_spec()  # 20 x 6 + 16 x 6 = 216 values per sample at the longest lengths
        spec.check_budget(MAX_FEATURE_VALUES // 216)

        def refuse(spec):
            raise AssertionError("a corpus was generated before the budget was checked")

        monkeypatch.setattr(synth, "generate", refuse)
        with pytest.raises(ConfigError, match=rf"n_samples {MAX_FEATURE_VALUES // 216 + 1} x .* exceed the budget"):
            bayes_oracle_accuracy(spec, n_eval=MAX_FEATURE_VALUES // 216 + 1)


class TestGenerate:
    def test_deterministic(self):
        c1, c2 = generate(small_spec()), generate(small_spec())
        for s1, s2 in zip(c1.samples, c2.samples):
            assert s1.label == s2.label
            np.testing.assert_array_equal(s1.acoustic, s2.acoustic)
            np.testing.assert_array_equal(s1.energy, s2.energy)

    def test_seed_changes_features(self):
        c1, c2 = generate(small_spec(seed=0)), generate(small_spec(seed=1))
        assert not np.array_equal(c1.samples[0].acoustic,
                                  c2.samples[0].acoustic)

    def test_shapes_and_length_ranges(self):
        spec = small_spec()
        corpus = generate(spec)
        assert len(corpus.samples) == spec.n_samples
        for s in corpus.samples:
            assert spec.len_range_a[0] <= len(s.acoustic) <= spec.len_range_a[1]
            assert spec.len_range_t[0] <= len(s.textual) <= spec.len_range_t[1]
            assert s.acoustic.shape[1] == spec.d_a and s.textual.shape[1] == spec.d_t
            assert s.acoustic.dtype == s.textual.dtype == np.float64
            assert s.energy.shape == (len(s.acoustic),)
            assert s.negative_token_flags.shape == (len(s.textual),)

    def test_labels_balanced(self):
        corpus = generate(small_spec(n_samples=61))
        counts = np.bincount(corpus.labels(), minlength=3)
        assert counts.max() - counts.min() <= 1

    def test_diagnostic_count_matches_sparsity(self):
        spec = small_spec()
        for s in generate(spec).samples:
            assert s.diagnostic_flags_a.sum() == math.ceil(spec.sparsity * len(s.acoustic))
            assert s.diagnostic_flags_t.sum() == math.ceil(spec.sparsity * len(s.textual))

    def test_contiguous_runs(self):
        for s in generate(small_spec(contiguous_runs=True)).samples:
            idx = np.flatnonzero(s.diagnostic_flags_a)
            assert idx[-1] - idx[0] == len(idx) - 1

    def test_diagnostic_rows_carry_planted_mean(self):
        spec = small_spec(n_samples=300, signal_gain=3.0, marker_gain=2.0)
        corpus = generate(spec)
        diag = np.concatenate([s.acoustic[s.diagnostic_flags_a == 1]
                               for s in corpus.samples if s.label == 1])
        noise = np.concatenate([s.acoustic[s.diagnostic_flags_a == 0]
                                for s in corpus.samples if s.label == 1])
        assert diag[:, 1].mean() == pytest.approx(3.0, abs=0.2)
        assert diag[:, 3].mean() == pytest.approx(2.0, abs=0.2)
        assert abs(noise.mean()) < 0.05

    def test_energy_separates_diagnostic_frames_at_full_coupling(self):
        corpus = generate(small_spec(energy_coupling=1.0))
        for s in corpus.samples:
            diag = s.energy[s.diagnostic_flags_a == 1]
            rest = s.energy[s.diagnostic_flags_a == 0]
            assert diag.max() < rest.min()  # 0.5 drop beats the 0.1 jitter

    def test_energy_uncoupled_at_zero(self):
        corpus = generate(small_spec(energy_coupling=0.0))
        diag = np.concatenate([s.energy[s.diagnostic_flags_a == 1] for s in corpus.samples])
        rest = np.concatenate([s.energy[s.diagnostic_flags_a == 0] for s in corpus.samples])
        assert abs(diag.mean() - rest.mean()) < 0.05

    def test_negative_flags_only_on_diagnostic_tokens_of_nonzero_labels(self):
        for s in generate(small_spec()).samples:
            if s.label == 0:
                assert s.negative_token_flags.sum() == 0
            else:
                np.testing.assert_array_equal(s.negative_token_flags, s.diagnostic_flags_t)

    def test_model_inputs_exclude_side_channels(self):
        s = generate(small_spec()).samples[0]
        a, t, label = model_inputs(s)
        assert a is s.acoustic and t is s.textual and label == s.label

    def test_class_names(self):
        corpus = generate(small_spec())
        assert corpus.class_names == ["healthy", "severity_1", "severity_2"]


class TestOracle:
    def test_deterministic(self):
        spec = small_spec()
        r1 = bayes_oracle_accuracy(spec, n_eval=60)
        r2 = bayes_oracle_accuracy(spec, n_eval=60)
        assert r1 == r2

    def test_separable_limit_is_perfect(self):
        report = bayes_oracle_accuracy(small_spec(signal_gain=8.0, noise_sigma=0.5), n_eval=90)
        assert report.revealed == 1.0
        assert report.marginalized > 0.95

    def test_null_limit_is_chance(self):
        # zero signal gain: class means coincide, only the marker axis is set
        report = bayes_oracle_accuracy(small_spec(signal_gain=0.0), n_eval=150)
        chance = 1.0 / 3.0
        assert abs(report.revealed - chance) < 0.12
        assert abs(report.marginalized - chance) < 0.12

    def test_contiguous_marginal_sums_over_runs(self):
        """With contiguous runs the marginal likelihood matches a brute-force sum
        over the T - k + 1 runs the generator can place, not over all k-subsets."""
        spec = small_spec(contiguous_runs=True, noise_sigma=0.8)
        rng = np.random.default_rng(12)
        mu = spec.class_mean(spec.d_a, 1)
        for t_len in range(3, 12):
            feats = rng.normal(size=(t_len, spec.d_a))
            log_r = (feats @ mu - 0.5 * mu @ mu) / spec.noise_sigma**2
            ks = range(1, t_len + 1)
            for k, value in zip(ks, marginalized(spec, feats, ks)):
                brute = np.logaddexp.reduce([log_r[s : s + k].sum() for s in range(t_len - k + 1)])
                assert value == pytest.approx(brute, abs=1e-10)

    def test_subset_marginal_sums_over_all_subsets(self):
        """Without contiguous runs the marginal likelihood matches a brute-force
        sum over every k-subset of the T frames."""
        spec = small_spec(noise_sigma=0.8)
        rng = np.random.default_rng(13)
        mu = spec.class_mean(spec.d_a, 1)
        for t_len in range(1, 10):
            feats = rng.normal(size=(t_len, spec.d_a))
            log_r = (feats @ mu - 0.5 * mu @ mu) / spec.noise_sigma**2
            ks = range(1, t_len + 1)
            for k, value in zip(ks, marginalized(spec, feats, ks)):
                brute = np.logaddexp.reduce([log_r[list(c)].sum()
                                             for c in itertools.combinations(range(t_len), k)])
                assert value == pytest.approx(brute, abs=1e-10)

    def test_marginalized_not_better_than_revealed(self):
        report = bayes_oracle_accuracy(small_spec(), n_eval=120)
        assert report.marginalized <= report.revealed + 0.05
        assert report.revealed > 1.0 / 3.0


class TestBayesPredictions:
    """The whole-array oracle against the per-sample, per-class, per-frame loops
    of `oracle_reference`."""

    @pytest.mark.parametrize("spec", [
        SynthSpec(n_samples=60),
        small_spec(contiguous_runs=True),
        small_spec(sparsity=1.0),
        small_spec(sparsity=1.0, len_range_a=(1, 6), len_range_t=(1, 4)),
        small_spec(n_classes=5, sparsity=0.35, len_range_a=(3, 20), len_range_t=(3, 20)),
        small_spec(signal_gain=0.0),
    ], ids=["default", "contiguous", "sparsity_1", "min_length_1", "five_classes", "no_signal"])
    def test_matches_scalar_reference(self, spec):
        samples = generate(spec).samples
        revealed, marg = bayes_predictions(spec, samples)
        ref_revealed, ref_marg = oracle_reference.predictions(spec, samples)
        np.testing.assert_array_equal(revealed, ref_revealed)
        np.testing.assert_array_equal(marg, ref_marg)
        logliks = [synth._logliks(spec, [getattr(s, field) for s in samples], [getattr(s, flags) for s in samples])
                   for field, flags in (("acoustic", "diagnostic_flags_a"), ("textual", "diagnostic_flags_t"))]
        (rev_a, marg_a), (rev_t, marg_t) = logliks
        for i, s in enumerate(samples):
            ref_rev, ref_marg_i = oracle_reference.logliks(spec, s)
            np.testing.assert_allclose(rev_a[i] + rev_t[i], ref_rev, rtol=0, atol=1e-10)
            np.testing.assert_allclose(marg_a[i] + marg_t[i], ref_marg_i, rtol=0, atol=1e-10)

    def test_accuracy_is_the_mean_of_fresh_predictions(self):
        spec = small_spec()
        report = bayes_oracle_accuracy(spec, n_eval=90)
        fresh = generate(SynthSpec(**{**spec.to_dict(), "n_samples": 90, "seed": spec.seed + 7919}))
        revealed, marg = bayes_predictions(spec, fresh.samples)
        labels = fresh.labels()
        assert (report.revealed, report.marginalized) == (np.mean(revealed == labels), np.mean(marg == labels))
