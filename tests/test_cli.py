"""End-to-end CLI runs: every subcommand, reproducibility, error paths."""

import argparse
import csv
import json
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

from gatedfusion import cli
from gatedfusion import tensor as T
from gatedfusion.checkpoint import load_model, save_model
from gatedfusion.cli import _configs, main
from gatedfusion.corpus_io import read_corpus, write_corpus
from gatedfusion.model import MAX_PARAMETERS, FusionModel, ModelConfig
from gatedfusion.synth import MAX_FEATURE_VALUES
from checkpoint_bytes import rewrite, stack


SPEC = {"n_samples": 18, "n_classes": 2, "d_a": 4, "d_t": 4,
        "len_range_a": [5, 9], "len_range_t": [4, 8], "sparsity": 0.3, "seed": 3}
CONFIG = {
    "model": {"d_model": 8, "n_heads": 2, "n_layers": 1, "ff_mult": 2,
              "dropout_rate": 0.0, "seed": 1},
    "train": {"learning_rate": 1e-3, "epochs": 2, "batch_size": 8, "seed": 2},
}


def write_json(path, payload):
    with open(path, "w") as f:
        json.dump(payload, f)
    return str(path)


def write_bytes(path, data: bytes):
    path.write_bytes(data)
    return str(path)


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    spec = write_json(root / "spec.json", SPEC)
    out = str(root / "corpus")
    assert main(["generate", "--spec", spec, "--out", out]) == 0
    return out


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, corpus_dir):
    root = tmp_path_factory.mktemp("train")
    cfg = write_json(root / "cfg.json", CONFIG)
    out = str(root / "run")
    assert main(["train", "--corpus", corpus_dir, "--config", cfg, "--out", out]) == 0
    return out


class TestGenerate:
    def test_outputs(self, corpus_dir):
        for name in ("manifest.json", "features.bin", "effective_config.json"):
            assert os.path.exists(os.path.join(corpus_dir, name))
        with open(os.path.join(corpus_dir, "effective_config.json")) as f:
            assert json.load(f)["synth"]["n_samples"] == 18

    def test_seed_flag_overrides_spec(self, tmp_path):
        spec = write_json(tmp_path / "spec.json", SPEC)
        main(["generate", "--spec", spec, "--out", str(tmp_path / "c"), "--seed", "99"])
        with open(tmp_path / "c" / "effective_config.json") as f:
            assert json.load(f)["synth"]["seed"] == 99

    def test_byte_identical_reruns(self, tmp_path):
        spec = write_json(tmp_path / "spec.json", SPEC)
        for name in ("c1", "c2"):
            main(["generate", "--spec", spec, "--out", str(tmp_path / name)])
        for fname in ("manifest.json", "features.bin", "effective_config.json"):
            assert (tmp_path / "c1" / fname).read_bytes() == (tmp_path / "c2" / fname).read_bytes()

    def test_unknown_spec_key_rejected(self, tmp_path, capsys):
        spec = write_json(tmp_path / "spec.json", {**SPEC, "bogus": 1})
        assert main(["generate", "--spec", spec, "--out", str(tmp_path / "c")]) == 1
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [("n_samples", "5"), ("seed", -1),
                                              ("noise_sigma", float("nan")), ("n_samples", 0)])
    def test_bad_spec_field_is_typed_error(self, tmp_path, capsys, field, value):
        spec = write_json(tmp_path / "spec.json", {**SPEC, field: value})
        assert main(["generate", "--spec", spec, "--out", str(tmp_path / "c")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err

    def test_oracle_flag_prints(self, tmp_path, capsys):
        spec = write_json(tmp_path / "spec.json", SPEC)
        main(["generate", "--spec", spec, "--out", str(tmp_path / "c"), "--oracle", "30"])
        assert "bayes oracle accuracy" in capsys.readouterr().out

    def test_oracle_over_the_feature_value_budget_is_typed_error(self, tmp_path, capsys):
        spec = write_json(tmp_path / "spec.json", SPEC)
        n_eval = MAX_FEATURE_VALUES + 1  # at least one value per sample
        assert main(["generate", "--spec", spec, "--out", str(tmp_path / "c"), "--oracle", str(n_eval)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: --oracle {n_eval} x") and "budget" in err and "Traceback" not in err
        assert not os.path.exists(tmp_path / "c")

    def test_negative_oracle_is_typed_error(self, tmp_path, capsys):
        spec = write_json(tmp_path / "spec.json", SPEC)
        assert main(["generate", "--spec", spec, "--out", str(tmp_path / "c"), "--oracle", "-3"]) == 1
        assert capsys.readouterr().err.startswith("error: --oracle")
        assert not os.path.exists(tmp_path / "c")


class TestTrain:
    def test_outputs(self, trained_dir):
        for name in ("checkpoint.gfck", "history.csv", "effective_config.json"):
            assert os.path.exists(os.path.join(trained_dir, name))
        with open(os.path.join(trained_dir, "history.csv")) as f:
            lines = f.read().strip().splitlines()
        assert lines[0] == "epoch,train_loss" and len(lines) == 3

    def test_byte_identical_reruns(self, tmp_path, corpus_dir):
        cfg = write_json(tmp_path / "cfg.json", CONFIG)
        for name in ("r1", "r2"):
            assert main(["train", "--corpus", corpus_dir, "--config", cfg,
                         "--out", str(tmp_path / name)]) == 0
        for fname in ("checkpoint.gfck", "history.csv", "effective_config.json"):
            assert (tmp_path / "r1" / fname).read_bytes() == (tmp_path / "r2" / fname).read_bytes()

    def test_resume_matches_unbroken(self, tmp_path, corpus_dir):
        long_cfg = write_json(tmp_path / "long.json",
                              {**CONFIG, "train": {**CONFIG["train"], "epochs": 4}})
        short_cfg = write_json(tmp_path / "short.json", CONFIG)
        main(["train", "--corpus", corpus_dir, "--config", long_cfg,
              "--out", str(tmp_path / "full")])
        main(["train", "--corpus", corpus_dir, "--config", short_cfg,
              "--out", str(tmp_path / "half")])
        assert main(["train", "--corpus", corpus_dir, "--config", long_cfg,
                     "--resume", str(tmp_path / "half" / "checkpoint.gfck"),
                     "--out", str(tmp_path / "resumed")]) == 0
        full = (tmp_path / "full" / "checkpoint.gfck").read_bytes()
        resumed = (tmp_path / "resumed" / "checkpoint.gfck").read_bytes()
        assert full == resumed

    def test_resume_from_checkpoint_recording_removed_train_keys(self, tmp_path, corpus_dir):
        """A checkpoint whose meta.train still records weight_decay and
        use_class_weights resumes to the bytes of an unbroken run."""
        long_cfg = write_json(tmp_path / "long.json",
                              {**CONFIG, "train": {**CONFIG["train"], "epochs": 4}})
        short_cfg = write_json(tmp_path / "short.json", CONFIG)
        main(["train", "--corpus", corpus_dir, "--config", long_cfg,
              "--out", str(tmp_path / "full")])
        main(["train", "--corpus", corpus_dir, "--config", short_cfg,
              "--out", str(tmp_path / "half")])

        def record_removed_keys(header):
            header["meta"]["train"].update(weight_decay=0.0, use_class_weights=False)
            return header

        old = write_bytes(tmp_path / "old.gfck",
                          rewrite((tmp_path / "half" / "checkpoint.gfck").read_bytes(), record_removed_keys))
        assert main(["train", "--corpus", corpus_dir, "--config", long_cfg, "--resume", old,
                     "--out", str(tmp_path / "resumed")]) == 0
        full = (tmp_path / "full" / "checkpoint.gfck").read_bytes()
        assert (tmp_path / "resumed" / "checkpoint.gfck").read_bytes() == full

    @pytest.mark.parametrize("key, value", [("weight_decay", 0.0), ("use_class_weights", False)])
    def test_removed_train_key_is_unknown(self, tmp_path, corpus_dir, capsys, key, value):
        cfg = write_json(tmp_path / "cfg.json", {**CONFIG, "train": {**CONFIG["train"], key: value}})
        out = tmp_path / "o"
        assert main(["train", "--corpus", corpus_dir, "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: train config: unknown keys") and key in err
        assert "Traceback" not in err and not out.exists()

    def test_model_over_the_parameter_budget_is_typed_error(self, tmp_path, corpus_dir, capsys, monkeypatch):
        def refuse(cfg):
            raise AssertionError("a model was built before the budget was checked")

        monkeypatch.setattr(cli, "FusionModel", refuse)
        cfg = write_json(tmp_path / "cfg.json", {"model": {"d_model": 200_000_000, "n_heads": 1, "n_layers": 1},
                                                 "train": {"epochs": 1}})
        out = tmp_path / "o"
        assert main(["train", "--corpus", corpus_dir, "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "d_model 200000000" in err and f"budget of {MAX_PARAMETERS}" in err
        assert "Traceback" not in err and not out.exists()

    def test_readme_example_config_loads(self, tmp_path, corpus_dir):
        """Every key of README's example config.json is a config field, and its
        "train" section lists every train field."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        example = json.loads(readme.split("Example `config.json`:", 1)[1]
                             .split("```json\n", 1)[1].split("```", 1)[0])
        args = argparse.Namespace(config=write_json(tmp_path / "config.json", example),
                                  gating_mode=None, seed=None)
        model_cfg, train_cfg = _configs(args, read_corpus(corpus_dir))
        assert train_cfg.to_dict() == example["train"]
        assert model_cfg.to_dict().items() >= example["model"].items()

    @staticmethod
    def half_trained_without_optimizer_state(tmp_path, corpus_dir, train_cfg):
        """A 2-epoch checkpoint of `train_cfg`, saved again without its optimizer
        state rows (k = 0), its step count kept."""
        cfg = write_json(tmp_path / "half.json", {**CONFIG, "train": train_cfg})
        assert main(["train", "--corpus", corpus_dir, "--config", cfg,
                     "--out", str(tmp_path / "half")]) == 0
        raw = (tmp_path / "half" / "checkpoint.gfck").read_bytes()
        return write_bytes(tmp_path / "stateless.gfck",
                           rewrite(raw, lambda header: {**header, "k": 0}, blob=stack(raw)[0].tobytes()))

    def test_sgd_resumes_without_optimizer_state(self, tmp_path, corpus_dir):
        """SGD keeps no state, so a checkpoint without any resumes to the bytes
        of an unbroken run."""
        train_cfg = {**CONFIG["train"], "optimizer": "sgd"}
        stateless = self.half_trained_without_optimizer_state(tmp_path, corpus_dir, train_cfg)
        long_cfg = write_json(tmp_path / "long.json", {**CONFIG, "train": {**train_cfg, "epochs": 4}})
        assert main(["train", "--corpus", corpus_dir, "--config", long_cfg,
                     "--out", str(tmp_path / "full")]) == 0
        assert main(["train", "--corpus", corpus_dir, "--config", long_cfg, "--resume", stateless,
                     "--out", str(tmp_path / "resumed")]) == 0
        full = (tmp_path / "full" / "checkpoint.gfck").read_bytes()
        assert (tmp_path / "resumed" / "checkpoint.gfck").read_bytes() == full

    def test_adam_resume_without_optimizer_state_refused(self, tmp_path, corpus_dir, capsys):
        """Adam does not silently restart its moments: the resume fails before --out is made."""
        stateless = self.half_trained_without_optimizer_state(tmp_path, corpus_dir, CONFIG["train"])
        long_cfg = write_json(tmp_path / "long.json",
                              {**CONFIG, "train": {**CONFIG["train"], "epochs": 4}})
        out = tmp_path / "resumed"
        capsys.readouterr()
        assert main(["train", "--corpus", corpus_dir, "--config", long_cfg, "--resume", stateless,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: optimizer state of shape (0, ")
        assert not out.exists()

    def test_resume_config_mismatch_rejected(self, tmp_path, corpus_dir, capsys):
        cfg = write_json(tmp_path / "cfg.json", CONFIG)
        main(["train", "--corpus", corpus_dir, "--config", cfg, "--out", str(tmp_path / "a")])
        other = write_json(tmp_path / "other.json",
                           {**CONFIG, "model": {**CONFIG["model"], "d_model": 16, "n_heads": 4}})
        assert main(["train", "--corpus", corpus_dir, "--config", other,
                     "--resume", str(tmp_path / "a" / "checkpoint.gfck"),
                     "--out", str(tmp_path / "b")]) == 1
        assert "does not match" in capsys.readouterr().err

    def test_resume_with_other_optimizer_rejected(self, tmp_path, corpus_dir, capsys):
        sgd = write_json(tmp_path / "sgd.json",
                         {**CONFIG, "train": {**CONFIG["train"], "optimizer": "sgd"}})
        assert main(["train", "--corpus", corpus_dir, "--config", sgd, "--out", str(tmp_path / "a")]) == 0
        adam = write_json(tmp_path / "adam.json", {**CONFIG, "train": {**CONFIG["train"], "epochs": 4}})
        assert main(["train", "--corpus", corpus_dir, "--config", adam,
                     "--resume", str(tmp_path / "a" / "checkpoint.gfck"),
                     "--out", str(tmp_path / "b")]) == 1
        assert "optimizer 'sgd'" in capsys.readouterr().err

    def test_unknown_gating_mode_in_config_is_typed_error(self, tmp_path, corpus_dir, capsys):
        cfg = write_json(tmp_path / "cfg.json", {"model": {"gating_mode": "nope"}})
        assert main(["train", "--corpus", corpus_dir, "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("field, value", [("learning_rate", "x"), ("seed", -1),
                                              ("learning_rate", float("nan"))])
    def test_bad_train_field_is_typed_error(self, tmp_path, corpus_dir, capsys, field, value):
        cfg = write_json(tmp_path / "cfg.json", {**CONFIG, "train": {field: value}})
        assert main(["train", "--corpus", corpus_dir, "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err

    @pytest.mark.parametrize("epochs_done", ["x", -1, 3, 1.0, True])
    def test_resume_rejects_bad_epochs_done(self, tmp_path, corpus_dir, trained_dir, capsys, epochs_done):
        bad = write_bytes(tmp_path / "bad.gfck", rewrite(
            Path(trained_dir, "checkpoint.gfck").read_bytes(),
            lambda header: {**header, "meta": {**header["meta"], "epochs_done": epochs_done}}))
        cfg = write_json(tmp_path / "cfg.json", CONFIG)
        assert main(["train", "--corpus", corpus_dir, "--config", cfg, "--resume", bad,
                     "--out", str(tmp_path / "o")]) == 1
        assert "epochs_done" in capsys.readouterr().err

    def test_gating_mode_flag(self, tmp_path, corpus_dir):
        cfg = write_json(tmp_path / "cfg.json", CONFIG)
        main(["train", "--corpus", corpus_dir, "--config", cfg,
              "--gating-mode", "none", "--out", str(tmp_path / "n")])
        with open(tmp_path / "n" / "effective_config.json") as f:
            assert json.load(f)["model"]["gating_mode"] == "none"

    def test_missing_corpus_is_typed_error(self, tmp_path, capsys):
        assert main(["train", "--corpus", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestEvaluate:
    def test_checkpoint_mode(self, tmp_path, corpus_dir, trained_dir, capsys):
        out = str(tmp_path / "eval")
        assert main(["evaluate", "--corpus", corpus_dir,
                     "--checkpoint", os.path.join(trained_dir, "checkpoint.gfck"),
                     "--out", out]) == 0
        assert "accuracy" in capsys.readouterr().out
        with open(os.path.join(out, "report.json")) as f:
            report = json.load(f)
        assert set(report) >= {"accuracy", "macro_f1", "confusion", "per_class"}
        assert os.path.exists(os.path.join(out, "report.csv"))
        with open(os.path.join(out, "report.csv"), newline="") as f:
            header, *rows = csv.reader(f)
        assert header == ["class", "precision", "recall", "f1", "support"]
        assert len(rows) == len(report["per_class"])
        for row, c in zip(rows, report["per_class"]):
            assert [float(v) for v in row[1:4]] == [c["precision"], c["recall"], c["f1"]]
            assert int(row[0]) == c["class"] and int(row[4]) == c["support"]

    def test_kfold_mode(self, tmp_path, corpus_dir, capsys):
        cfg = write_json(tmp_path / "cfg.json", CONFIG)
        out = str(tmp_path / "kf")
        assert main(["evaluate", "--corpus", corpus_dir, "--kfold", "2",
                     "--config", cfg, "--out", out]) == 0
        assert "2-fold accuracy" in capsys.readouterr().out
        with open(os.path.join(out, "report.json")) as f:
            assert len(json.load(f)["folds"]) == 2
        with open(os.path.join(out, "folds.csv")) as f:
            assert len(f.read().strip().splitlines()) == 3

    def test_kfold_byte_identical_reruns(self, tmp_path, corpus_dir):
        cfg = write_json(tmp_path / "cfg.json", CONFIG)
        for name in ("k1", "k2"):
            main(["evaluate", "--corpus", corpus_dir, "--kfold", "2",
                  "--config", cfg, "--out", str(tmp_path / name)])
        for fname in ("report.json", "folds.csv", "effective_config.json"):
            assert (tmp_path / "k1" / fname).read_bytes() == (tmp_path / "k2" / fname).read_bytes()

    def test_needs_checkpoint_or_kfold(self, tmp_path, corpus_dir, capsys):
        assert main(["evaluate", "--corpus", corpus_dir, "--out", str(tmp_path / "e")]) == 1
        assert "checkpoint" in capsys.readouterr().err

    def test_checkpoint_class_count_must_match_corpus(self, tmp_path, corpus_dir, capsys):
        """A 3-class checkpoint on the 2-class corpus is a typed error, not an IndexError."""
        ckpt = str(tmp_path / "three.gfck")
        save_model(FusionModel(ModelConfig(d_a=4, d_t=4, d_model=8, n_heads=2, n_layers=1,
                                           ff_mult=2, n_classes=3)), ckpt)
        out = tmp_path / "e"
        assert main(["evaluate", "--corpus", corpus_dir, "--checkpoint", ckpt,
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "3 classes" in err and "has 2" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag, args", [
        ("--config", ["--checkpoint", "CKPT", "--config", "nope.json"]),
        ("--gating-mode", ["--checkpoint", "CKPT", "--gating-mode", "none"]),
        ("--seed", ["--checkpoint", "CKPT", "--seed", "1"]),
        ("--checkpoint", ["--kfold", "2", "--checkpoint", "CKPT"]),
        ("--checkpoint", ["--kfold", "0", "--checkpoint", "CKPT"]),
    ])
    def test_flag_the_mode_does_not_use_is_rejected(self, tmp_path, corpus_dir, trained_dir,
                                                    capsys, flag, args):
        ckpt = os.path.join(trained_dir, "checkpoint.gfck")
        out = tmp_path / "e"
        assert main(["evaluate", "--corpus", corpus_dir, "--out", str(out),
                     *[ckpt if a == "CKPT" else a for a in args]]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and flag in err
        assert not out.exists()


class TestAnalyzeGating:
    def test_outputs(self, tmp_path, corpus_dir, trained_dir, capsys):
        out = str(tmp_path / "gates")
        assert main(["analyze-gating", "--corpus", corpus_dir,
                     "--checkpoint", os.path.join(trained_dir, "checkpoint.gfck"),
                     "--out", out, "--samples", "2"]) == 0
        captured = capsys.readouterr().out
        assert "gate-energy r" in captured and "AUROC" in captured
        assert os.path.exists(os.path.join(out, "gate_energy_correlation.csv"))
        assert os.path.exists(os.path.join(out, "gate_alignment.json"))
        svgs = [f for f in os.listdir(out) if f.endswith(".svg")]
        assert len(svgs) == 2

    def test_negative_samples_is_typed_error(self, tmp_path, corpus_dir, trained_dir, capsys):
        out = tmp_path / "gates"
        assert main(["analyze-gating", "--corpus", corpus_dir,
                     "--checkpoint", os.path.join(trained_dir, "checkpoint.gfck"),
                     "--out", str(out), "--samples", "-1"]) == 1
        assert capsys.readouterr().err.startswith("error: --samples")
        assert not os.path.exists(out)

    def test_checkpoint_without_gating_is_rejected(self, tmp_path, corpus_dir, capsys):
        """A `gating_mode: none` checkpoint has no gates to analyze; it fails before --out is made."""
        ckpt = str(tmp_path / "plain.gfck")
        save_model(FusionModel(ModelConfig(d_a=4, d_t=4, d_model=8, n_heads=2, n_layers=1,
                                           ff_mult=2, n_classes=2, gating_mode="none")), ckpt)
        out = tmp_path / "gates"
        assert main(["analyze-gating", "--corpus", corpus_dir, "--checkpoint", ckpt,
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "gating disabled" in err
        assert not out.exists()

    def test_corpus_without_energy_is_rejected(self, tmp_path, corpus_dir, trained_dir, capsys):
        """With no energy channel there is no correlation to report; it fails before --out is made."""
        corpus = read_corpus(corpus_dir)
        for s in corpus.samples:
            s.energy = None
        write_corpus(corpus, str(tmp_path / "corpus"))
        out = tmp_path / "gates"
        assert main(["analyze-gating", "--corpus", str(tmp_path / "corpus"), "--out", str(out),
                     "--checkpoint", os.path.join(trained_dir, "checkpoint.gfck")]) == 1
        assert capsys.readouterr().err.startswith("error: no traces carry an energy side channel")
        assert not out.exists()

    def test_corpus_without_textual_flags_is_rejected(self, tmp_path, corpus_dir, trained_dir,
                                                      capsys):
        """Acoustic diagnostic flags without textual ones leave no alignment to report; it
        fails before --out is made."""
        corpus = read_corpus(corpus_dir)
        for s in corpus.samples:
            s.diagnostic_flags_t = None
        write_corpus(corpus, str(tmp_path / "corpus"))
        out = tmp_path / "gates"
        assert main(["analyze-gating", "--corpus", str(tmp_path / "corpus"), "--out", str(out),
                     "--checkpoint", os.path.join(trained_dir, "checkpoint.gfck")]) == 1
        assert capsys.readouterr().err.startswith("error: no traces carry diagnostic flags")
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_every_frame_diagnostic(self, tmp_path, capsys):
        """At sparsity 1.0 no frame is non-diagnostic: the AUROCs and the
        other-frame means are undefined, written as null and printed as such."""
        spec = write_json(tmp_path / "spec.json", {**SPEC, "sparsity": 1.0})
        cfg = write_json(tmp_path / "cfg.json", {**CONFIG, "train": {**CONFIG["train"], "epochs": 1}})
        corpus, run, out = (str(tmp_path / name) for name in ("corpus", "run", "gates"))
        assert main(["generate", "--spec", spec, "--out", corpus]) == 0
        assert main(["train", "--corpus", corpus, "--config", cfg, "--out", run]) == 0
        assert main(["analyze-gating", "--corpus", corpus, "--out", out, "--samples", "1",
                     "--checkpoint", os.path.join(run, "checkpoint.gfck")]) == 0
        assert "AUROC: acoustic undefined textual undefined" in capsys.readouterr().out
        with open(os.path.join(out, "gate_alignment.json")) as f:
            alignment = json.load(f)
        for side in ("a", "t"):
            assert alignment[f"auroc_{side}"] is None and alignment[f"mean_gate_other_{side}"] is None
            assert 0.0 < alignment[f"mean_gate_diag_{side}"] < 1.0

    def test_class_with_one_frame(self, tmp_path, capsys):
        """A class whose samples hold one acoustic frame between them has no
        correlation: written empty and printed as undefined, the others still
        reported."""
        spec = write_json(tmp_path / "spec.json", {
            "n_samples": 4, "n_classes": 3, "d_a": 5, "d_t": 5, "len_range_a": [1, 3],
            "len_range_t": [2, 3], "sparsity": 1.0, "seed": 3})
        cfg = write_json(tmp_path / "cfg.json", {**CONFIG, "train": {**CONFIG["train"], "epochs": 1}})
        corpus, run, out = (str(tmp_path / name) for name in ("corpus", "run", "gates"))
        assert main(["generate", "--spec", spec, "--out", corpus]) == 0
        assert [len(s.acoustic) for s in read_corpus(corpus).samples if s.label == 1] == [1]
        assert main(["train", "--corpus", corpus, "--config", cfg, "--out", run]) == 0
        capsys.readouterr()
        assert main(["analyze-gating", "--corpus", corpus, "--out", out,
                     "--checkpoint", os.path.join(run, "checkpoint.gfck")]) == 0
        printed = capsys.readouterr().out
        assert "gate-energy r [severity_1]: undefined\n" in printed
        assert "zero variance" not in printed
        with open(os.path.join(out, "gate_energy_correlation.csv")) as f:
            rows = dict(line.strip().split(",") for line in f)
        assert rows["severity_1"] == ""
        assert all(-1.0 <= float(rows[c]) <= 1.0 for c in ("healthy", "severity_2", "overall"))

    def test_byte_identical_reruns(self, tmp_path, corpus_dir, trained_dir):
        ckpt = os.path.join(trained_dir, "checkpoint.gfck")
        for name in ("g1", "g2"):
            main(["analyze-gating", "--corpus", corpus_dir, "--checkpoint", ckpt,
                  "--out", str(tmp_path / name), "--samples", "2"])
        for fname in sorted(os.listdir(tmp_path / "g1")):
            assert (tmp_path / "g1" / fname).read_bytes() == (tmp_path / "g2" / fname).read_bytes()


class TestUnusableInputsAndOutputs:
    """A missing or poisoned checkpoint and an --out that is a file end in
    `error: ...` and exit 1, never in a raw traceback."""

    @pytest.mark.parametrize("command", ["evaluate", "analyze-gating", "train"])
    def test_missing_checkpoint(self, tmp_path, corpus_dir, capsys, command):
        missing = str(tmp_path / "missing.gfck")
        flag = "--resume" if command == "train" else "--checkpoint"
        assert main([command, "--corpus", corpus_dir, flag, missing,
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "missing.gfck" in err

    @pytest.mark.parametrize("command, name", [("evaluate", "head.b2"),
                                               ("analyze-gating", "gate.w_a")])
    def test_non_finite_checkpoint_array(self, tmp_path, corpus_dir, trained_dir, capsys,
                                         command, name):
        raw = Path(trained_dir, "checkpoint.gfck").read_bytes()
        model, _ = load_model(os.path.join(trained_dir, "checkpoint.gfck"))
        model.slots[name].data[0, 0] = np.nan
        rows = stack(raw)
        rows[0] = model.parameters().data
        bad = write_bytes(tmp_path / "bad.gfck", rewrite(raw, blob=rows.tobytes()))
        out = tmp_path / "o"
        assert main([command, "--corpus", corpus_dir, "--checkpoint", bad,
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(name) in err and "non-finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("name, value", [("opt.v.head.b2", -1.0), ("opt.t", 1.5)])
    def test_bad_optimizer_state_refused_on_resume(self, tmp_path, corpus_dir, trained_dir, capsys,
                                                   name, value):
        """Impossible Adam state is refused by name before training: a second
        moment by `--resume`'s `load_state`, a fractional step count already by
        the header."""
        raw = Path(trained_dir, "checkpoint.gfck").read_bytes()
        if name == "opt.t":
            forged = rewrite(raw, lambda header: {**header, "t": value})
        else:
            rows = stack(raw)
            model, _ = load_model(os.path.join(trained_dir, "checkpoint.gfck"))
            model.parameters().split(rows[2])[-1][0, 0] = value  # v.head.b2
            forged = rewrite(raw, blob=rows.tobytes())
        bad = write_bytes(tmp_path / "bad.gfck", forged)
        cfg = write_json(tmp_path / "cfg.json", CONFIG)
        assert main(["train", "--corpus", corpus_dir, "--config", cfg, "--resume", bad,
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(name[len("opt."):]) in err and "diverged" not in err

    def test_stray_optimizer_state_refused_on_resume(self, tmp_path, corpus_dir, trained_dir, capsys):
        """A checkpoint with a state row Adam does not keep (k = 3) loads, and
        `--resume` refuses its shape before --out is made."""
        raw = Path(trained_dir, "checkpoint.gfck").read_bytes()
        rows = stack(raw)
        n = rows.shape[1]
        bad = write_bytes(tmp_path / "stray.gfck", rewrite(raw, lambda header: {**header, "k": 3},
                                                           blob=np.vstack([rows, np.zeros((1, n))]).tobytes()))
        assert load_model(bad)[1].rows.shape == (3, n)
        cfg = write_json(tmp_path / "cfg.json", CONFIG)
        out = tmp_path / "o"
        capsys.readouterr()
        assert main(["train", "--corpus", corpus_dir, "--config", cfg, "--resume", bad,
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"shape (3, {n}) is not Adam's (2, {n})" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "analyze-gating"])
    def test_checkpoint_input_widths_must_match_corpus(self, tmp_path, corpus_dir, capsys, command):
        """A checkpoint built for other input widths fails before --out is made."""
        ckpt = str(tmp_path / "wide.gfck")
        save_model(FusionModel(ModelConfig(d_a=6, d_t=4, d_model=8, n_heads=2, n_layers=1,
                                           ff_mult=2, n_classes=2)), ckpt)
        out = tmp_path / "o"
        assert main([command, "--corpus", corpus_dir, "--checkpoint", ckpt, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "input widths (4, 4) do not match configured (6, 4)" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, args, message", [
        ("evaluate", ["--kfold", "1"], "k must be >= 2, got 1"),
        ("evaluate", ["--kfold", "10"], "corpus of 18 samples too small for k=10"),
        ("evaluate", ["--kfold", "2", "--config", "D_A_5"], "input widths (4, 4) do not match configured (5, 4)"),
        ("train", ["--config", "D_A_5"], "input widths (4, 4) do not match configured (5, 4)"),
        ("evaluate", ["--kfold", "2", "--config", "N_CLASSES_3"], "corpus has 2 classes, configured n_classes is 3"),
        ("train", ["--config", "N_CLASSES_3"], "corpus has 2 classes, configured n_classes is 3"),
    ], ids=["kfold-1", "kfold-10", "kfold-widths", "train-widths", "kfold-classes", "train-classes"])
    def test_refused_run_makes_no_out(self, tmp_path, corpus_dir, capsys, command, args, message):
        """A fold count, or configured input widths or class count, the corpus
        cannot serve exit 1 before --out is made."""
        configs = {name: write_json(tmp_path / f"{name}.json", {**CONFIG, "model": {**CONFIG["model"], **model}})
                   for name, model in (("D_A_5", {"d_a": 5}), ("N_CLASSES_3", {"n_classes": 3}))}
        out = tmp_path / "o"
        assert main([command, "--corpus", corpus_dir, "--out", str(out),
                     *[configs.get(a, a) for a in args]]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["generate", "train"])
    @pytest.mark.parametrize("text", [b"[" * 100_000, b'{"seed": ' + b"9" * 5000 + b"}",
                                      b"\xff" + json.dumps(SPEC).encode(), b"[]"],
                             ids=["nested_past_the_recursion_limit", "seed_past_the_digit_limit",
                                  "starts_with_byte_0xff", "a_list"])
    def test_unreadable_json_file_is_typed_error(self, tmp_path, corpus_dir, capsys, command, text):
        """A --spec or --config file that does not parse to a JSON object exits 1
        with a typed error, not a traceback, before --out is made."""
        path = write_bytes(tmp_path / "in.json", text)
        out = tmp_path / "o"
        argv = (["generate", "--spec", path] if command == "generate"
                else ["train", "--corpus", corpus_dir, "--config", path])
        assert main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: config ") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["train"], ["evaluate", "--kfold", "2"]], ids=["train", "kfold"])
    @pytest.mark.parametrize("out_exists", [False, True], ids=["new_out", "existing_out"])
    def test_diverging_run_reports_once_and_leaves_no_empty_out(self, tmp_path, capsys, argv, out_exists):
        """A run whose loss overflows exits 1 with the typed error and no numpy
        warning. An --out it made is removed; an --out that was there stays."""
        spec = write_json(tmp_path / "spec.json", {**SPEC, "n_samples": 24})
        corpus = str(tmp_path / "corpus")
        assert main(["generate", "--spec", spec, "--out", corpus]) == 0
        cfg = write_json(tmp_path / "cfg.json", {"train": {"learning_rate": 1e300, "epochs": 3, "batch_size": 8}})
        capsys.readouterr()
        out = tmp_path / "o"
        if out_exists:
            out.mkdir()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([*argv, "--corpus", corpus, "--config", cfg, "--out", str(out)]) == 1
        assert caught == []
        assert capsys.readouterr().err == (
            "error: training diverged in epoch 0; parameters and optimizer state restored to start of "
            "epoch: non-finite loss; first non-finite intermediate: 'matmul'\n")
        assert out.exists() == out_exists
        if out_exists:
            assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["generate", "evaluate"])
    def test_out_names_a_file(self, tmp_path, corpus_dir, capsys, command):
        afile = tmp_path / "afile"
        afile.write_text("keep me")
        argv = (["generate", "--out", str(afile)] if command == "generate" else
                ["evaluate", "--corpus", corpus_dir, "--kfold", "2",
                 "--config", write_json(tmp_path / "cfg.json", CONFIG), "--out", str(afile)])
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "afile" in err
        assert afile.read_text() == "keep me"


class TestGradcheck:
    def test_single_mode_passes(self, capsys):
        assert main(["gradcheck", "--mode", "none"]) == 0
        out = capsys.readouterr().out
        assert "gradcheck PASSED" in out and "worst relative error" in out

    @pytest.mark.parametrize("flag, value", [("--step", "nan"), ("--step", "0"), ("--step", "-1"),
                                             ("--step", "inf"), ("--tol", "nan"), ("--tol", "-1")])
    def test_bad_step_or_tol_is_an_error(self, capsys, flag, value):
        assert main(["gradcheck", "--mode", "none", flag, value]) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err and "PASSED" not in captured.out

    def test_corrupted_gradient_fails(self, monkeypatch, capsys):
        def relu_with_doubled_gradient(x):
            out_data = np.maximum(x.data, 0.0)
            return T._out("relu", out_data, (x, lambda g: 2.0 * g * (x.data > 0.0)))

        monkeypatch.setattr(T, "relu", relu_with_doubled_gradient)
        assert main(["gradcheck", "--mode", "none"]) == 1
        assert "gradcheck FAILED" in capsys.readouterr().out
