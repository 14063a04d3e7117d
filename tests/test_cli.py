"""End-to-end CLI runs: every subcommand, reproducibility, error paths."""

import argparse
import json
import os
from pathlib import Path

import numpy as np
import pytest

from gatedfusion import tensor as T
from gatedfusion.checkpoint import load_checkpoint, save_checkpoint, save_model
from gatedfusion.cli import _configs, main
from gatedfusion.corpus_io import read_corpus
from gatedfusion.model import FusionModel, ModelConfig


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
        ckpt = load_checkpoint(str(tmp_path / "half" / "checkpoint.gfck"))
        old = str(tmp_path / "old.gfck")
        save_checkpoint(old, ckpt.config, ckpt.arrays,
                        {**ckpt.meta, "train": {**ckpt.meta["train"], "weight_decay": 0.0,
                                                "use_class_weights": False}})
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
        ckpt = load_checkpoint(os.path.join(trained_dir, "checkpoint.gfck"))
        bad = str(tmp_path / "bad.gfck")
        save_checkpoint(bad, ckpt.config, ckpt.arrays, {**ckpt.meta, "epochs_done": epochs_done})
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
        ckpt = load_checkpoint(os.path.join(trained_dir, "checkpoint.gfck"))
        ckpt.arrays[name][0, 0] = np.nan
        bad = str(tmp_path / "bad.gfck")
        save_checkpoint(bad, ckpt.config, ckpt.arrays, ckpt.meta)
        out = tmp_path / "o"
        assert main([command, "--corpus", corpus_dir, "--checkpoint", bad,
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(name) in err and "non-finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("name, value", [("opt.v.head.b2", -1.0), ("opt.t", 1.5)])
    def test_bad_optimizer_state_refused_on_resume(self, tmp_path, corpus_dir, trained_dir, capsys,
                                                   name, value):
        """Finite but impossible Adam state loads as a checkpoint, and `--resume`
        refuses it by name before training."""
        ckpt = load_checkpoint(os.path.join(trained_dir, "checkpoint.gfck"))
        ckpt.arrays[name][0, 0] = value
        bad = str(tmp_path / "bad.gfck")
        save_checkpoint(bad, ckpt.config, ckpt.arrays, ckpt.meta)
        cfg = write_json(tmp_path / "cfg.json", CONFIG)
        assert main(["train", "--corpus", corpus_dir, "--config", cfg, "--resume", bad,
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(name[len("opt."):]) in err and "diverged" not in err

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

            def backward(g):
                if x.grad is not None:
                    x.grad += 2.0 * g * (x.data > 0.0)

            return T._out(x.tape, "relu", out_data, backward)

        monkeypatch.setattr(T, "relu", relu_with_doubled_gradient)
        assert main(["gradcheck", "--mode", "none"]) == 1
        assert "gradcheck FAILED" in capsys.readouterr().out
