"""Metrics against brute-force oracles; k-fold protocol; gate studies."""

import dataclasses
import math
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from gatedfusion import tensor as T
from gatedfusion.analysis import (
    GateTrace,
    auroc,
    collect_traces,
    gate_diagnostic_alignment,
    gate_energy_correlation,
    kfold,
    make_folds,
    metrics,
    pearson,
    run_fold,
)
from gatedfusion.errors import ConfigError
from gatedfusion.gating import GatingMode
from gatedfusion.model import FusionModel, ModelConfig
from gatedfusion.synth import SIDE_CHANNELS, Sample, SynthSpec, generate, model_inputs
from gatedfusion.trainer import EVAL_CHUNK, TrainConfig, evaluate, train

ROOT = Path(__file__).resolve().parents[1]


def brute_force_metrics(preds, labels, n_classes):
    """Straight-from-definition macro scores, no vectorization."""
    acc = sum(p == l for p, l in zip(preds, labels)) / len(preds)
    precs, recs, f1s = [], [], []
    for c in range(n_classes):
        tp = sum(1 for p, l in zip(preds, labels) if p == c and l == c)
        fp = sum(1 for p, l in zip(preds, labels) if p == c and l != c)
        fn = sum(1 for p, l in zip(preds, labels) if p != c and l == c)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        precs.append(prec)
        recs.append(rec)
        f1s.append(f1)
    return acc, sum(precs) / n_classes, sum(recs) / n_classes, sum(f1s) / n_classes


class TestMetrics:
    def test_perfect(self):
        m = metrics([0, 1, 2], [0, 1, 2], 3)
        assert m.accuracy == 1.0 and m.macro_f1 == 1.0 and not m.warnings

    def test_hand_example(self):
        # confusion: label 0 -> preds (0,0,1); label 1 -> preds (1,0)
        m = metrics([0, 0, 1, 1, 0], [0, 0, 0, 1, 1], 2)
        assert m.accuracy == pytest.approx(0.6)
        np.testing.assert_array_equal(m.confusion, [[2, 1], [1, 1]])
        assert m.per_class[0]["precision"] == pytest.approx(2 / 3)
        assert m.per_class[0]["recall"] == pytest.approx(2 / 3)
        assert m.per_class[1]["precision"] == pytest.approx(1 / 2)
        assert m.per_class[1]["recall"] == pytest.approx(1 / 2)

    def test_never_predicted_class_warns(self):
        m = metrics([0, 0, 0], [0, 1, 0], 2)
        assert m.per_class[1]["precision"] == 0.0
        assert any("never predicted" in w for w in m.warnings)

    def test_absent_class_warns(self):
        m = metrics([0, 1, 0], [0, 0, 0], 2)
        assert m.per_class[1]["recall"] == 0.0
        assert any("absent" in w for w in m.warnings)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            metrics([], [], 2)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            metrics([0, 1], [0], 2)

    @pytest.mark.parametrize("preds, labels, n_classes, bad", [
        ([0, 2], [0, 1], 2, "predictions .*got 0..2"), ([0, 1], [0, -1], 2, "labels .*got -1..0"),
        ([-1, 0], [0, 0], None, "predictions .*got -1..0"), ([0, 1], [0, 3], 3, "labels .*got 0..3"),
    ])
    def test_class_outside_range_rejected(self, preds, labels, n_classes, bad):
        with pytest.raises(ConfigError, match=bad):
            metrics(preds, labels, n_classes)

    @pytest.mark.parametrize("seed", range(300))
    def test_randomized_vs_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n_classes = int(rng.integers(2, 6))
        n = int(rng.integers(1, 40))
        preds = rng.integers(0, n_classes, n).tolist()
        labels = rng.integers(0, n_classes, n).tolist()
        m = metrics(preds, labels, n_classes)
        acc, prec, rec, f1 = brute_force_metrics(preds, labels, n_classes)
        assert m.accuracy == pytest.approx(acc, abs=1e-15)
        assert m.macro_precision == pytest.approx(prec, abs=1e-15)
        assert m.macro_recall == pytest.approx(rec, abs=1e-15)
        assert m.macro_f1 == pytest.approx(f1, abs=1e-15)
        assert m.confusion.sum() == n


class TestPearson:
    def test_perfect_positive_and_negative(self):
        x = np.arange(10.0)
        assert pearson(x, 2 * x + 1) == pytest.approx(1.0, abs=1e-12)
        assert pearson(x, -x) == pytest.approx(-1.0, abs=1e-12)

    def test_zero_variance_returns_none(self):
        assert pearson([1.0, 1.0, 1.0], [0.0, 1.0, 2.0]) is None

    def test_shape_errors(self):
        with pytest.raises(ConfigError):
            pearson([1.0], [2.0])

    @pytest.mark.parametrize("seed", range(100))
    def test_matches_two_pass_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 50))
        x = rng.normal(size=n)
        y = rng.normal(size=n) + 0.3 * x
        xm, ym = x - x.mean(), y - y.mean()
        expected = (xm * ym).sum() / np.sqrt((xm * xm).sum() * (ym * ym).sum())
        assert pearson(x, y) == pytest.approx(expected, abs=1e-12)


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0
        assert auroc([0.9, 0.8, 0.1, 0.2], [0, 0, 1, 1]) == 0.0

    def test_all_tied_is_half(self):
        assert auroc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(ConfigError):
            auroc([0.1, 0.2], [1, 1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_rejected(self, bad):
        with pytest.raises(ConfigError, match="finite"):
            auroc([0.1, bad, 0.3], [1, 0, 1])

    @pytest.mark.parametrize("seed", range(100))
    def test_matches_pairwise_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 40))
        flags = rng.integers(0, 2, n)
        if flags.sum() in (0, n):
            flags[0] = 1 - flags[0]
        tied = rng.choice([0.1, 0.3, 0.5, 0.7], size=n)
        untied = rng.normal(size=n)
        for scores in (tied, untied):
            pos = scores[flags == 1, None]
            neg = scores[None, flags == 0]
            wins, ties = int((pos > neg).sum()), int((pos == neg).sum())
            assert auroc(scores, flags) == (2 * wins + ties) / (2 * pos.size * neg.size)

    def test_needs_no_third_party_module_but_numpy(self):
        """numpy is the only runtime dependency: with every other non-stdlib
        import refused, the CLI imports and `auroc` scores a tied case."""
        code = textwrap.dedent("""
            import sys
            allowed = sys.stdlib_module_names | {"numpy", "gatedfusion"}

            class OnlyNumpy:
                def find_spec(self, name, path=None, target=None):
                    if name.partition(".")[0] not in allowed:
                        raise ModuleNotFoundError(f"{name} is not a runtime dependency")

            sys.meta_path.insert(0, OnlyNumpy())
            import gatedfusion.cli
            from gatedfusion.analysis import auroc
            print(auroc([0.2, 0.5, 0.5, 0.9], [0, 1, 0, 1]))
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0.875\n"


def hand_trace(sample_id, label, gates_a, gates_t, **channels):
    """A trace over a hand-built sample with one feature row per gate."""
    sample = Sample(sample_id, label, np.zeros((len(gates_a), 1)), np.zeros((len(gates_t), 1)),
                    **channels)
    return GateTrace(sample, gates_a, gates_t)


class TestTraceUtilities:
    def test_correlation_hand_case(self):
        # gates fall exactly where energy falls: r = -1 impossible, so plant r = +1
        tr = hand_trace(0, 1, np.array([0.1, 0.5, 0.9]), np.zeros(2),
                        energy=np.array([1.0, 2.0, 3.0]))
        report = gate_energy_correlation([tr])
        assert report.overall == pytest.approx(1.0, abs=1e-12)
        assert report.per_class[1] == pytest.approx(1.0, abs=1e-12)

    def test_correlation_requires_energy(self):
        with pytest.raises(ConfigError):
            gate_energy_correlation([hand_trace(0, 0, np.zeros(3), np.zeros(3))])

    @pytest.mark.parametrize("name", list(SIDE_CHANNELS))
    @pytest.mark.parametrize("off_by", [-1, 1])
    def test_side_channel_length_must_match_its_gates(self, name, off_by):
        """A side channel one entry off its modality's gate count is refused when
        the trace is built, by hand or by `collect_traces`, and never reaches the
        gate studies or the plots."""
        gates = {"acoustic": np.array([0.1, 0.5, 0.9]), "textual": np.zeros(2)}
        modality, _ = SIDE_CHANNELS[name]
        channel = np.zeros(len(gates[modality]) + off_by, dtype=np.int64)
        with pytest.raises(ConfigError, match=f"sample 0: .* {name} values for"):
            hand_trace(0, 1, gates["acoustic"], gates["textual"], **{name: channel})

        sample = tiny_corpus(n=2).samples[0]
        frames = len(getattr(sample, modality))
        bad = dataclasses.replace(sample, **{name: np.zeros(frames + off_by, dtype=np.int64)})
        with pytest.raises(ConfigError, match=f"sample {sample.sample_id}: .* {name} values for"):
            collect_traces(FusionModel(tiny_cfgs()[0]), [bad])

    def test_alignment_hand_case(self):
        tr = hand_trace(0, 1, np.array([0.9, 0.1, 0.1]), np.array([0.2, 0.8]),
                        diagnostic_flags_a=np.array([1, 0, 0]), diagnostic_flags_t=np.array([0, 1]))
        rep = gate_diagnostic_alignment([tr])
        assert rep.auroc_a == 1.0 and rep.auroc_t == 1.0
        assert rep.mean_gate_diag_a == pytest.approx(0.9)
        assert rep.mean_gate_other_a == pytest.approx(0.1)

    def test_alignment_with_one_side_empty_is_undefined(self):
        """At sparsity 1.0 every frame is diagnostic: the other side's mean and
        the AUROC are None, and no empty-slice mean is taken."""
        tr = hand_trace(0, 1, np.array([0.9, 0.1]), np.array([0.2, 0.8]),
                        diagnostic_flags_a=np.array([1, 1]), diagnostic_flags_t=np.array([0, 0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = gate_diagnostic_alignment([tr])
        assert rep.to_dict() == {"mean_gate_diag_a": 0.5, "mean_gate_other_a": None, "auroc_a": None,
                                 "mean_gate_diag_t": None, "mean_gate_other_t": 0.5, "auroc_t": None}


def tiny_corpus(n=16, seed=0):
    return generate(SynthSpec(n_samples=n, n_classes=2, d_a=4, d_t=4,
                              len_range_a=(5, 8), len_range_t=(4, 7),
                              sparsity=0.3, seed=seed))


def tiny_cfgs(mode=GatingMode.CROSS_MODAL, epochs=1):
    mc = ModelConfig(d_a=4, d_t=4, d_model=8, n_heads=2, n_layers=1, ff_mult=2,
                     n_classes=2, gating_mode=mode, dropout_rate=0.0, seed=1)
    tc = TrainConfig(learning_rate=1e-3, epochs=epochs, batch_size=8, seed=2)
    return mc, tc


class TestFolds:
    def test_partition(self):
        corpus = tiny_corpus()
        folds = make_folds(corpus, 4, seed=0)
        all_idx = np.sort(np.concatenate(folds))
        np.testing.assert_array_equal(all_idx, np.arange(16))

    def test_deterministic(self):
        corpus = tiny_corpus()
        f1 = make_folds(corpus, 3, seed=5)
        f2 = make_folds(corpus, 3, seed=5)
        for a, b in zip(f1, f2):
            np.testing.assert_array_equal(a, b)


class TestKFold:
    def test_rejects_small_k_and_small_corpus(self):
        mc, tc = tiny_cfgs()
        with pytest.raises(ConfigError):
            kfold(tiny_corpus(), 1, tc, mc)
        with pytest.raises(ConfigError):
            kfold(tiny_corpus(n=6), 4, tc, mc)

    def test_smoke_run_structure(self):
        mc, tc = tiny_cfgs()
        report = kfold(tiny_corpus(), 2, tc, mc)
        assert len(report.folds) == 2
        assert 0.0 <= report.mean_accuracy <= 1.0
        assert len(report.traces) == 16  # every sample held out exactly once
        assert report.traces[0].gates_a.ndim == 1

    def test_no_traces_when_the_model_does_not_gate(self):
        mc, tc = tiny_cfgs(mode=GatingMode.NONE)
        assert kfold(tiny_corpus(), 2, tc, mc).traces is None

    def test_each_absent_class_is_warned_once_per_fold(self):
        """Three classes over four folds of two samples: every fold lacks a class,
        and its metrics say so once."""
        corpus = generate(SynthSpec(n_samples=8, n_classes=3, d_a=4, d_t=4, len_range_a=(5, 8),
                                    len_range_t=(4, 7), sparsity=0.3, seed=0))
        mc, tc = tiny_cfgs()
        report = kfold(corpus, 4, tc, dataclasses.replace(mc, n_classes=3))
        labels = corpus.labels()
        for fold, held_out in zip(report.folds, make_folds(corpus, 4, tc.seed)):
            absent = set(range(3)) - set(labels[held_out].tolist())
            assert absent
            for c in range(3):
                about_labels = [w for w in fold.metrics.warnings if f"class {c} " in w and "labels" in w]
                assert about_labels == ([f"class {c} absent from labels; recall set to 0"]
                                        if c in absent else [])

    def test_deterministic(self):
        mc, tc = tiny_cfgs()
        r1 = kfold(tiny_corpus(), 2, tc, mc)
        r2 = kfold(tiny_corpus(), 2, tc, mc)
        assert r1.to_dict() == r2.to_dict()


class TestRunFold:
    @pytest.mark.parametrize("mode", [GatingMode.NONE, GatingMode.CROSS_MODAL])
    def test_matches_the_fold_trained_and_scored_by_hand(self, mode):
        """Fold f trained by hand on the other folds with seeds + 1000·(f + 1),
        then scored by `trainer.evaluate` and `collect_traces`, gives exactly
        `run_fold`'s metrics and gate arrays."""
        corpus = tiny_corpus(n=18)
        mc, tc = tiny_cfgs(mode=mode, epochs=2)
        folds, f = make_folds(corpus, 3, tc.seed), 1
        held_out = [corpus.samples[i] for i in folds[f]]
        rest = [s for i, s in enumerate(corpus.samples) if i not in folds[f]]
        model = FusionModel(dataclasses.replace(mc, seed=mc.seed + 2000))
        train(model, [model_inputs(s) for s in rest], dataclasses.replace(tc, seed=tc.seed + 2000))
        _, _, preds = evaluate(model, [model_inputs(s) for s in held_out])

        got = run_fold(corpus, folds, f, tc, mc)
        assert got.fold == f
        assert got.metrics.to_dict() == metrics(preds, [s.label for s in held_out], 2).to_dict()
        if mode is GatingMode.NONE:
            assert got.traces is None
            return
        want = collect_traces(model, held_out)
        assert [t.sample for t in got.traces] == held_out == [t.sample for t in want]
        for g, w in zip(got.traces, want):
            assert g.gates_a.tobytes() == w.gates_a.tobytes()
            assert g.gates_t.tobytes() == w.gates_t.tobytes()

    def test_a_gated_fold_is_scored_in_one_walk(self, monkeypatch):
        """Predictions and gate traces of the held-out fold come from the same
        forwards: ceil(n_held / EVAL_CHUNK) of them, outside any tape."""
        corpus = tiny_corpus(n=2 * EVAL_CHUNK + 6)
        mc, tc = tiny_cfgs()
        folds = make_folds(corpus, 2, tc.seed)
        forward, untaped = FusionModel.forward, []

        def counted(self, *args, **kwargs):
            if T._open_tape.get() is None:
                untaped.append(len(args[0].masks))
            return forward(self, *args, **kwargs)

        monkeypatch.setattr(FusionModel, "forward", counted)
        result = run_fold(corpus, folds, 0, tc, mc)
        n_held = len(folds[0])
        assert n_held > EVAL_CHUNK and len(result.traces) == n_held
        assert len(untaped) == math.ceil(n_held / EVAL_CHUNK)
        assert sum(untaped) == n_held


def test_collect_traces_requires_gating(monkeypatch):
    """A model without gating is refused before any forward, even with no samples."""
    mc, _ = tiny_cfgs(mode=GatingMode.NONE)
    model = FusionModel(mc)
    calls = []
    monkeypatch.setattr(FusionModel, "forward", lambda *args, **kwargs: calls.append(1))
    for samples in (tiny_corpus(n=2).samples, []):
        with pytest.raises(ConfigError, match="gating disabled"):
            collect_traces(model, samples)
    assert calls == []
