"""Corpus serialization: round trips and hostile-manifest handling."""

import hashlib
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from gatedfusion.corpus_io import BLOB_NAME, MANIFEST_NAME, read_corpus, write_corpus
from gatedfusion.errors import (
    BoundsError,
    ChecksumError,
    CorpusFormatError,
    ManifestError,
    UnsupportedVersionError,
)
from gatedfusion.synth import SynthSpec, generate


def small_corpus(seed=0, n=8):
    return generate(SynthSpec(n_samples=n, n_classes=3, d_a=5, d_t=4,
                              len_range_a=(6, 12), len_range_t=(5, 9),
                              sparsity=0.25, seed=seed))


def assert_corpora_close(a, b):
    assert a.class_names == b.class_names
    assert a.d_a == b.d_a and a.d_t == b.d_t
    assert len(a.samples) == len(b.samples)
    for sa, sb in zip(a.samples, b.samples):
        assert sa.sample_id == sb.sample_id and sa.label == sb.label
        np.testing.assert_allclose(sb.acoustic, sa.acoustic, rtol=1e-6)
        np.testing.assert_allclose(sb.textual, sa.textual, rtol=1e-6)
        np.testing.assert_allclose(sb.energy, sa.energy, atol=1e-6)
        np.testing.assert_array_equal(sb.negative_token_flags, sa.negative_token_flags)
        np.testing.assert_array_equal(sb.diagnostic_flags_a, sa.diagnostic_flags_a)
        np.testing.assert_array_equal(sb.diagnostic_flags_t, sa.diagnostic_flags_t)


class TestRoundTrip:
    def test_basic(self, tmp_path):
        corpus = small_corpus()
        write_corpus(corpus, str(tmp_path / "c"))
        assert_corpora_close(corpus, read_corpus(str(tmp_path / "c")))

    def test_write_returns_the_blob_checksum(self, tmp_path):
        checksum = write_corpus(small_corpus(), str(tmp_path / "c"))
        with open(tmp_path / "c" / MANIFEST_NAME) as f:
            assert checksum == json.load(f)["blob_sha256"]
        assert checksum == hashlib.sha256((tmp_path / "c" / BLOB_NAME).read_bytes()).hexdigest()

    def test_write_is_deterministic(self, tmp_path):
        corpus = small_corpus()
        write_corpus(corpus, str(tmp_path / "c1"))
        write_corpus(corpus, str(tmp_path / "c2"))
        for name in (MANIFEST_NAME, BLOB_NAME):
            assert (tmp_path / "c1" / name).read_bytes() == (tmp_path / "c2" / name).read_bytes()

    def test_missing_side_channels(self, tmp_path):
        corpus = small_corpus(n=3)
        for s in corpus.samples:
            s.energy = None
            s.diagnostic_flags_a = None
        write_corpus(corpus, str(tmp_path / "c"))
        back = read_corpus(str(tmp_path / "c"))
        assert back.samples[0].energy is None
        assert back.samples[0].diagnostic_flags_a is None
        assert back.samples[0].diagnostic_flags_t is not None

    @pytest.mark.parametrize("seed", range(10))
    def test_randomized_round_trips(self, tmp_path, seed):
        corpus = small_corpus(seed=seed, n=5)
        write_corpus(corpus, str(tmp_path / "c"))
        assert_corpora_close(corpus, read_corpus(str(tmp_path / "c")))


def written(tmp_path, name="c"):
    path = str(tmp_path / name)
    write_corpus(small_corpus(n=4), path)
    return path


def edit_manifest(path, fn):
    mpath = os.path.join(path, MANIFEST_NAME)
    with open(mpath) as f:
        manifest = json.load(f)
    fn(manifest)
    with open(mpath, "w") as f:
        json.dump(manifest, f)


class TestCorruption:
    def test_missing_manifest(self, tmp_path):
        path = written(tmp_path)
        os.remove(os.path.join(path, MANIFEST_NAME))
        with pytest.raises(ManifestError):
            read_corpus(path)

    def test_invalid_json(self, tmp_path):
        path = written(tmp_path)
        with open(os.path.join(path, MANIFEST_NAME), "w") as f:
            f.write("{not json")
        with pytest.raises(ManifestError):
            read_corpus(path)

    def test_wrong_version(self, tmp_path):
        path = written(tmp_path)
        edit_manifest(path, lambda m: m.update(format_version=2))
        with pytest.raises(UnsupportedVersionError):
            read_corpus(path)

    def test_missing_blob(self, tmp_path):
        path = written(tmp_path)
        os.remove(os.path.join(path, BLOB_NAME))
        with pytest.raises(ChecksumError):
            read_corpus(path)

    def test_truncated_blob(self, tmp_path):
        path = written(tmp_path)
        bpath = Path(path) / BLOB_NAME
        raw = bpath.read_bytes()
        bpath.write_bytes(raw[:-8])
        with pytest.raises(ChecksumError):
            read_corpus(path)

    def test_flipped_blob_byte(self, tmp_path):
        path = written(tmp_path)
        bpath = Path(path) / BLOB_NAME
        raw = bytearray(bpath.read_bytes())
        raw[10] ^= 0xFF
        bpath.write_bytes(bytes(raw))
        with pytest.raises(ChecksumError):
            read_corpus(path)

    def test_offset_past_end(self, tmp_path):
        path = written(tmp_path)
        edit_manifest(path, lambda m: m["samples"][0].update(offset_a=10**9))
        with pytest.raises(BoundsError):
            read_corpus(path)

    def test_negative_offset(self, tmp_path):
        path = written(tmp_path)
        edit_manifest(path, lambda m: m["samples"][1].update(offset_t=-4))
        with pytest.raises(BoundsError):
            read_corpus(path)

    def test_oversized_length_field(self, tmp_path):
        path = written(tmp_path)
        edit_manifest(path, lambda m: m["samples"][0].update(T_a=10**6))
        with pytest.raises(BoundsError):
            read_corpus(path)

    def test_zero_length_field(self, tmp_path):
        path = written(tmp_path)
        edit_manifest(path, lambda m: m["samples"][0].update(T_t=0))
        with pytest.raises(ManifestError):
            read_corpus(path)

    def test_overlapping_regions(self, tmp_path):
        path = written(tmp_path)

        def overlap(m):
            m["samples"][1]["offset_a"] = m["samples"][0]["offset_a"] + 4

        edit_manifest(path, overlap)
        with pytest.raises(BoundsError):
            read_corpus(path)

    def test_label_out_of_range(self, tmp_path):
        path = written(tmp_path)
        edit_manifest(path, lambda m: m["samples"][2].update(label=7))
        with pytest.raises(ManifestError):
            read_corpus(path)

    def test_missing_field(self, tmp_path):
        path = written(tmp_path)
        edit_manifest(path, lambda m: m["samples"][0].pop("offset_a"))
        with pytest.raises(ManifestError):
            read_corpus(path)

    def test_wrong_field_type(self, tmp_path):
        path = written(tmp_path)
        edit_manifest(path, lambda m: m["samples"][0].update(T_a="five"))
        with pytest.raises(ManifestError):
            read_corpus(path)

    def test_bool_masquerading_as_int(self, tmp_path):
        path = written(tmp_path)
        edit_manifest(path, lambda m: m["samples"][0].update(label=True))
        with pytest.raises(ManifestError):
            read_corpus(path)

    def test_subject_id_key_rejected(self, tmp_path):
        path = written(tmp_path)
        edit_manifest(path, lambda m: m["samples"][1].update(subject_id=0))
        with pytest.raises(ManifestError, match="subject_id"):
            read_corpus(path)

    @pytest.mark.parametrize("channel, region, value", [
        ("acoustic", "offset_a", np.nan), ("textual", "offset_t", np.inf), ("energy", "offset_energy", np.nan),
    ])
    def test_non_finite_value_rejected(self, tmp_path, channel, region, value):
        """A non-finite value stored in the blob (the writer refuses to store one)."""
        path = written(tmp_path)
        bpath = Path(path) / BLOB_NAME
        raw = bytearray(bpath.read_bytes())
        with open(os.path.join(path, MANIFEST_NAME)) as f:
            start = json.load(f)["samples"][2][region] + 3 * 4
        raw[start : start + 4] = np.array([value], dtype="<f4").tobytes()
        bpath.write_bytes(bytes(raw))
        edit_manifest(path, lambda m: m.update(blob_sha256=hashlib.sha256(raw).hexdigest()))
        with pytest.raises(ManifestError, match=rf"sample\[2\]: region '{region}' holds a non-finite value"):
            read_corpus(path)

    @pytest.mark.parametrize("channel, region, value", [
        ("acoustic", "offset_a", 1e150), ("textual", "offset_t", np.nan), ("energy", "offset_energy", np.inf),
    ])
    def test_writer_refuses_a_value_float32_cannot_hold(self, tmp_path, channel, region, value):
        corpus = small_corpus(n=4)
        getattr(corpus.samples[1], channel).flat[2] = value
        with pytest.raises(ManifestError, match=rf"sample\[1\] \(id 1\): region '{region}' holds a value "
                                                rf"that is not a finite float32"):
            write_corpus(corpus, str(tmp_path / "c"))
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("field, edit, region, message", [
        ("acoustic", lambda x: x[:, :-1], "offset_a", r"must be a \(T, 5\) array with T >= 1, got shape \(\d+, 4\)"),
        ("textual", lambda x: x[:, 0], "offset_t", r"must be a \(T, 4\) array with T >= 1, got shape \(\d+,\)"),
        ("acoustic", lambda x: x[:0], "offset_a", r"must be a \(T, 5\) array with T >= 1, got shape \(0, 5\)"),
        ("energy", lambda x: np.append(x, 1.0), "offset_energy", r"not one value per acoustic frame"),
        ("energy", lambda x: x[:-1], "offset_energy", r"not one value per acoustic frame"),
        ("negative_token_flags", lambda x: x[:-1], "offset_negative_flags", r"not one value per textual frame"),
        ("diagnostic_flags_a", lambda x: x[:-1], "offset_diag_a", r"not one value per acoustic frame"),
        ("diagnostic_flags_t", lambda x: x[:-1], "offset_diag_t", r"not one value per textual frame"),
        ("negative_token_flags", lambda x: x * 2, "offset_negative_flags", r"a value other than 0 or 1"),
        ("diagnostic_flags_a", lambda x: x - 0.5, "offset_diag_a", r"a value other than 0 or 1"),
        ("diagnostic_flags_t", lambda x: x + 1e-6, "offset_diag_t", r"a value other than 0 or 1"),
    ], ids=["acoustic-narrow", "textual-1d", "acoustic-empty", "energy-long", "energy-short",
            "negative-short", "diag_a-short", "diag_t-short", "negative-2", "diag_a-half", "diag_t-off"])
    def test_writer_refuses_a_misshapen_sample(self, tmp_path, field, edit, region, message):
        """A sample the reader would refuse, or read back changed, is refused
        before any file is written."""
        corpus = small_corpus(n=4)
        setattr(corpus.samples[1], field, edit(getattr(corpus.samples[1], field)))
        with pytest.raises(ManifestError, match=rf"sample\[1\] \(id 1\): region '{region}' .*{message}"):
            write_corpus(corpus, str(tmp_path / "c"))
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("label", [-1, 3])
    def test_writer_refuses_a_label_outside_the_class_names(self, tmp_path, label):
        corpus = small_corpus(n=4)
        corpus.samples[1].label = label
        with pytest.raises(ManifestError, match=rf"sample\[1\] \(id 1\): label {label} outside \[0, 3\)"):
            write_corpus(corpus, str(tmp_path / "c"))
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("field", ["label", "sample_id"])
    def test_writer_writes_a_numpy_integer_as_an_int(self, tmp_path, field):
        corpus = small_corpus(n=4)
        setattr(corpus.samples[1], field, np.int64(getattr(corpus.samples[1], field)))
        write_corpus(corpus, str(tmp_path / "c"))
        assert_corpora_close(small_corpus(n=4), read_corpus(str(tmp_path / "c")))

    @pytest.mark.parametrize("field", ["label", "sample_id"])
    @pytest.mark.parametrize("value", [1.0, True, "1", np.float64(1.0)], ids=["float", "bool", "str", "np-float"])
    def test_writer_refuses_a_label_or_id_that_is_not_an_integer(self, tmp_path, field, value):
        corpus = small_corpus(n=4)
        setattr(corpus.samples[1], field, value)
        with pytest.raises(ManifestError, match=rf"sample\[1\] \(id .+\): {field} must be an integer, "
                                                rf"got {re.escape(repr(value))}"):
            write_corpus(corpus, str(tmp_path / "c"))
        assert not (tmp_path / "c").exists()

    def test_writer_refuses_a_repeated_id(self, tmp_path):
        corpus = small_corpus(n=4)
        corpus.samples[3].sample_id = corpus.samples[1].sample_id
        with pytest.raises(ManifestError, match=r"sample\[3\] \(id 1\): id 1 repeats sample\[1\]'s"):
            write_corpus(corpus, str(tmp_path / "c"))
        assert not (tmp_path / "c").exists()

    def test_reader_refuses_a_repeated_id(self, tmp_path):
        path = written(tmp_path)
        edit_manifest(path, lambda m: m["samples"][2].update(id=0))
        with pytest.raises(ManifestError, match=r"sample\[2\]: id 0 repeats sample\[0\]'s"):
            read_corpus(path)

    def test_record_count_mismatch(self, tmp_path):
        path = written(tmp_path)
        edit_manifest(path, lambda m: m["samples"].pop())
        with pytest.raises(ManifestError):
            read_corpus(path)


def test_mutation_fuzz_raises_only_typed_errors(tmp_path):
    """Random manifest mutations: reads either succeed or fail typed."""
    rng = np.random.default_rng(0)
    path = written(tmp_path)
    with open(os.path.join(path, MANIFEST_NAME)) as f:
        pristine = f.read()
    junk = [None, True, False, -1, 0, 3.5, "x", [], {}, 10**12, "0"]
    failures = 0
    for trial in range(200):
        manifest = json.loads(pristine)
        target = manifest if rng.random() < 0.3 else manifest["samples"][int(rng.integers(4))]
        keys = list(target.keys())
        key = keys[int(rng.integers(len(keys)))]
        if rng.random() < 0.25:
            del target[key]
        else:
            target[key] = junk[int(rng.integers(len(junk)))]
        with open(os.path.join(path, MANIFEST_NAME), "w") as f:
            json.dump(manifest, f)
        try:
            read_corpus(path)
        except CorpusFormatError:
            failures += 1
    assert failures > 150  # most single-field mutations must be caught
