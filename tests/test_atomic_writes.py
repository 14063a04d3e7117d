"""Every writer replaces its file whole or not at all."""

import json
import os
import struct

import numpy as np
import pytest

from gatedfusion import cli
from gatedfusion.atomic import atomic_write
from gatedfusion.checkpoint import save_model
from gatedfusion.corpus_io import BLOB_NAME, MANIFEST_NAME, write_corpus
from gatedfusion.model import FusionModel, ModelConfig
from gatedfusion.synth import SynthSpec, generate


class Broken(RuntimeError):
    pass


def snapshot(directory):
    return {name: (directory / name).read_bytes() for name in sorted(os.listdir(directory))}


def half_json_dump(payload, f, **kwargs):
    f.write(json.dumps(payload, **kwargs)[:10])
    raise Broken


def corpus(seed):
    return generate(SynthSpec(n_samples=4, n_classes=3, d_a=5, d_t=4, seed=seed))


def test_failed_write_keeps_the_old_file_and_leaves_no_temp(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    with pytest.raises(Broken):
        with atomic_write(path) as f:
            f.write("new, half written")
            raise Broken
    assert snapshot(tmp_path) == {"out.txt": b"old\n"}


def test_corpus_rewrite_failing_in_the_manifest_keeps_both_files(tmp_path, monkeypatch):
    write_corpus(corpus(0), str(tmp_path))
    before = snapshot(tmp_path)
    assert sorted(before) == sorted([BLOB_NAME, MANIFEST_NAME])
    monkeypatch.setattr(json, "dump", half_json_dump)
    with pytest.raises(Broken):
        write_corpus(corpus(1), str(tmp_path))
    assert snapshot(tmp_path) == before


def test_checkpoint_rewrite_failing_part_way_keeps_the_old_file(tmp_path, monkeypatch):
    cfg = ModelConfig(d_a=5, d_t=4, d_model=8, n_heads=2, n_layers=1, n_classes=3, seed=1)
    save_model(FusionModel(cfg), tmp_path / "model.gfck")
    before = snapshot(tmp_path)

    def broken_pack(*args):
        raise Broken

    monkeypatch.setattr(struct, "pack", broken_pack)
    with pytest.raises(Broken):
        save_model(FusionModel(ModelConfig(**{**cfg.to_dict(), "seed": 2})), tmp_path / "model.gfck")
    assert snapshot(tmp_path) == before


def test_cli_json_rewrite_failing_part_way_keeps_the_old_file(tmp_path, monkeypatch):
    cli._write_json(str(tmp_path / "report.json"), {"accuracy": 0.5})
    before = snapshot(tmp_path)
    monkeypatch.setattr(json, "dump", half_json_dump)
    with pytest.raises(Broken):
        cli._write_json(str(tmp_path / "report.json"), {"accuracy": 0.75})
    assert snapshot(tmp_path) == before


def test_cli_csv_rewrite_failing_part_way_keeps_the_old_file(tmp_path):
    class Unprintable:
        def __str__(self):
            raise Broken

    cli._write_csv(str(tmp_path / "history.csv"), ["epoch", "loss"], [[0, 1.5]])
    before = snapshot(tmp_path)
    with pytest.raises(Broken):
        cli._write_csv(str(tmp_path / "history.csv"), ["epoch", "loss"], [[0, 1.25], [1, Unprintable()]])
    assert snapshot(tmp_path) == before
    assert before["history.csv"] == b"epoch,loss\r\n0,1.5\r\n"
