"""Metrics against brute-force oracles; k-fold protocol; gate studies."""

import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

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
)
from gatedfusion.errors import ConfigError
from gatedfusion.gating import GatingMode
from gatedfusion.model import ModelConfig
from gatedfusion.plots import render_trace_svg
from gatedfusion.synth import SynthSpec, generate
from gatedfusion.trainer import TrainConfig

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


class TestTraceUtilities:
    def test_correlation_hand_case(self):
        # gates fall exactly where energy falls: r = -1 impossible, so plant r = +1
        tr = GateTrace(0, 1, np.array([0.1, 0.5, 0.9]), np.zeros(2),
                       energy=np.array([1.0, 2.0, 3.0]))
        report = gate_energy_correlation([tr])
        assert report.overall == pytest.approx(1.0, abs=1e-12)
        assert report.per_class[1] == pytest.approx(1.0, abs=1e-12)

    def test_correlation_requires_energy(self):
        with pytest.raises(ConfigError):
            gate_energy_correlation([GateTrace(0, 0, np.zeros(3), np.zeros(3))])

    @pytest.mark.parametrize("n_energy", [2, 4])
    def test_energy_length_must_match_acoustic_gates(self, n_energy):
        tr = GateTrace(0, 1, np.array([0.1, 0.5, 0.9]), np.zeros(2), energy=np.arange(float(n_energy)))
        with pytest.raises(ConfigError, match="energy values"):
            gate_energy_correlation([tr])
        with pytest.raises(ConfigError, match="energy values"):
            render_trace_svg(tr)

    def test_alignment_hand_case(self):
        tr = GateTrace(0, 1, np.array([0.9, 0.1, 0.1]), np.array([0.2, 0.8]),
                       diag_a=np.array([1, 0, 0]), diag_t=np.array([0, 1]))
        rep = gate_diagnostic_alignment([tr])
        assert rep.auroc_a == 1.0 and rep.auroc_t == 1.0
        assert rep.mean_gate_diag_a == pytest.approx(0.9)
        assert rep.mean_gate_other_a == pytest.approx(0.1)

    def test_alignment_with_one_side_empty_is_undefined(self):
        """At sparsity 1.0 every frame is diagnostic: the other side's mean and
        the AUROC are None, and no empty-slice mean is taken."""
        tr = GateTrace(0, 1, np.array([0.9, 0.1]), np.array([0.2, 0.8]),
                       diag_a=np.array([1, 1]), diag_t=np.array([0, 0]))
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

    def test_deterministic(self):
        mc, tc = tiny_cfgs()
        r1 = kfold(tiny_corpus(), 2, tc, mc)
        r2 = kfold(tiny_corpus(), 2, tc, mc)
        assert r1.to_dict() == r2.to_dict()


def test_collect_traces_requires_gating():
    from gatedfusion.model import FusionModel

    mc, _ = tiny_cfgs(mode=GatingMode.NONE)
    model = FusionModel(mc)
    with pytest.raises(ConfigError):
        collect_traces(model, tiny_corpus(n=2).samples)
