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


def region_bounds(path, index, region):
    """Value index range of sample `index`'s `region` in the blob at `path`,
    from the lengths the manifest states, in the order format 2 lays them out."""
    with open(os.path.join(path, MANIFEST_NAME)) as f:
        manifest = json.load(f)
    position = 0
    for i, rec in enumerate(manifest["samples"]):
        lengths = {"acoustic": rec["T_a"] * manifest["d_a"], "textual": rec["T_t"] * manifest["d_t"]}
        for name, key, frames in [("energy", "energy", "T_a"), ("negative_token_flags", "negative_flags", "T_t"),
                                  ("diagnostic_flags_a", "diag_a", "T_a"), ("diagnostic_flags_t", "diag_t", "T_t")]:
            if rec[f"has_{key}"]:
                lengths[name] = rec[frames]
        for name, length in lengths.items():
            if (i, name) == (index, region):
                return position, position + length
            position += length
    raise KeyError((index, region))


def store_in_blob(path, position, value):
    """Overwrite the blob's float32 value at `position` and record the new checksum."""
    bpath = Path(path) / BLOB_NAME
    raw = bytearray(bpath.read_bytes())
    raw[position * 4 : position * 4 + 4] = np.array([value], dtype="<f4").tobytes()
    bpath.write_bytes(bytes(raw))
    edit_manifest(path, lambda m: m.update(blob_sha256=hashlib.sha256(raw).hexdigest()))


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

    @pytest.mark.parametrize("text", [b"[" * 200_000, b'{"blob_length": ' + b"9" * 5000 + b"}",
                                      b"\xff{}", b"[]"],
                             ids=["nested_past_the_recursion_limit", "int_past_the_digit_limit",
                                  "starts_with_byte_0xff", "a_list"])
    def test_unreadable_manifest_json(self, tmp_path, text):
        path = written(tmp_path)
        with open(os.path.join(path, MANIFEST_NAME), "wb") as f:
            f.write(text)
        with pytest.raises(ManifestError, match="manifest"):
            read_corpus(path)

    def test_wrong_version(self, tmp_path):
        path = written(tmp_path)
        edit_manifest(path, lambda m: m.update(format_version=1))
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

    def test_length_past_the_blob_end(self, tmp_path):
        """One more acoustic frame in the last sample: its regions run past the
        end of the blob."""
        path = written(tmp_path)
        edit_manifest(path, lambda m: m["samples"][3].update(T_a=m["samples"][3]["T_a"] + 1))
        with pytest.raises(BoundsError, match=r"regions claim \d+ of the blob's \d+ bytes"):
            read_corpus(path)

    def test_has_flag_turned_off_leaves_bytes_unclaimed(self, tmp_path):
        path = written(tmp_path)
        edit_manifest(path, lambda m: m["samples"][1].update(has_energy=False))
        with pytest.raises(ManifestError, match=r"regions claim \d+ of the blob's \d+ bytes"):
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

    def test_lengths_moved_between_records(self, tmp_path):
        """An acoustic frame moved from sample 1 to sample 0 keeps the total, so
        every region of sample 0 but the first is read from the wrong bytes: the
        first that cannot hold what it reads is named."""
        path = written(tmp_path)

        def move_frame(m):
            m["samples"][0]["T_a"] += 1
            m["samples"][1]["T_a"] -= 1

        edit_manifest(path, move_frame)
        with pytest.raises(ManifestError, match=r"sample\[0\]: region 'diagnostic_flags_t' holds a value "
                                                r"other than 0 or 1"):
            read_corpus(path)

    def test_label_out_of_range(self, tmp_path):
        path = written(tmp_path)
        edit_manifest(path, lambda m: m["samples"][2].update(label=7))
        with pytest.raises(ManifestError):
            read_corpus(path)

    def test_missing_field(self, tmp_path):
        path = written(tmp_path)
        edit_manifest(path, lambda m: m["samples"][0].pop("T_a"))
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

    def test_stray_record_key_named(self, tmp_path):
        """A format-1 offset in a record is a key format 2 does not have."""
        path = written(tmp_path)
        edit_manifest(path, lambda m: m["samples"][2].update(offset_a=0))
        with pytest.raises(ManifestError, match=r"sample\[2\]: unknown key 'offset_a'"):
            read_corpus(path)

    def test_stray_header_key_named(self, tmp_path):
        path = written(tmp_path)
        edit_manifest(path, lambda m: m.update(spec={"seed": 0}))
        with pytest.raises(ManifestError, match=r"manifest: unknown key 'spec'"):
            read_corpus(path)

    @pytest.mark.parametrize("key", ["has_energy", "has_negative_flags", "has_diag_a", "has_diag_t"])
    def test_missing_has_key_named(self, tmp_path, key):
        path = written(tmp_path)
        edit_manifest(path, lambda m: m["samples"][1].pop(key))
        with pytest.raises(ManifestError, match=rf"sample\[1\]: missing field '{key}'"):
            read_corpus(path)

    @pytest.mark.parametrize("region, value", [("acoustic", np.nan), ("textual", np.inf), ("energy", np.nan)])
    def test_non_finite_value_rejected(self, tmp_path, region, value):
        """A non-finite value stored in the blob (the writer refuses to store one)."""
        path = written(tmp_path)
        store_in_blob(path, region_bounds(path, 2, region)[0] + 3, value)
        with pytest.raises(ManifestError, match=rf"sample\[2\]: region '{region}' holds a non-finite value"):
            read_corpus(path)

    @pytest.mark.parametrize("region", ["acoustic", "textual", "energy", "diagnostic_flags_t"])
    @pytest.mark.parametrize("edge", ["first", "last"])
    def test_non_finite_value_at_a_region_edge_names_that_region(self, tmp_path, region, edge):
        """The value before a region's first one and the value after its last
        belong to its neighbours."""
        path = written(tmp_path)
        start, end = region_bounds(path, 2, region)
        store_in_blob(path, start if edge == "first" else end - 1, np.nan)
        with pytest.raises(ManifestError, match=rf"sample\[2\]: region '{region}' holds a non-finite value"):
            read_corpus(path)

    @pytest.mark.parametrize("region", ["negative_token_flags", "diagnostic_flags_a", "diagnostic_flags_t"])
    def test_reader_refuses_a_flag_other_than_0_or_1(self, tmp_path, region):
        path = written(tmp_path)
        store_in_blob(path, region_bounds(path, 2, region)[1] - 1, 0.5)
        with pytest.raises(ManifestError, match=rf"sample\[2\]: region '{region}' holds a value other than 0 or 1"):
            read_corpus(path)

    @pytest.mark.parametrize("region, value", [("acoustic", 1e150), ("textual", np.nan), ("energy", np.inf)])
    def test_writer_refuses_a_value_float32_cannot_hold(self, tmp_path, region, value):
        corpus = small_corpus(n=4)
        getattr(corpus.samples[1], region).flat[2] = value
        with pytest.raises(ManifestError, match=rf"sample\[1\] \(id 1\): region '{region}' holds a value "
                                                rf"that is not a finite float32"):
            write_corpus(corpus, str(tmp_path / "c"))
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("field, edit, region, message", [
        ("acoustic", lambda x: x[:, :-1], "acoustic", r"must be a \(T, 5\) array with T >= 1, got shape \(\d+, 4\)"),
        ("textual", lambda x: x[:, 0], "textual", r"must be a \(T, 4\) array with T >= 1, got shape \(\d+,\)"),
        ("acoustic", lambda x: x[:0], "acoustic", r"must be a \(T, 5\) array with T >= 1, got shape \(0, 5\)"),
        ("energy", lambda x: np.append(x, 1.0), "energy", r"not one value per acoustic frame"),
        ("energy", lambda x: x[:-1], "energy", r"not one value per acoustic frame"),
        ("negative_token_flags", lambda x: x[:-1], "negative_token_flags", r"not one value per textual frame"),
        ("diagnostic_flags_a", lambda x: x[:-1], "diagnostic_flags_a", r"not one value per acoustic frame"),
        ("diagnostic_flags_t", lambda x: x[:-1], "diagnostic_flags_t", r"not one value per textual frame"),
        ("negative_token_flags", lambda x: x * 2, "negative_token_flags", r"a value other than 0 or 1"),
        ("diagnostic_flags_a", lambda x: x - 0.5, "diagnostic_flags_a", r"a value other than 0 or 1"),
        ("diagnostic_flags_t", lambda x: x + 1e-6, "diagnostic_flags_t", r"a value other than 0 or 1"),
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

    def test_blob_bytes_no_region_claims(self, tmp_path):
        """Dropping the last record and counting it out of n_samples leaves its
        bytes in the blob unclaimed."""
        path = written(tmp_path)

        def drop_last(m):
            m["samples"].pop()
            m["n_samples"] -= 1

        edit_manifest(path, drop_last)
        with pytest.raises(ManifestError, match=r"regions claim \d+ of the blob's \d+ bytes"):
            read_corpus(path)

    @pytest.mark.parametrize("names", [["a", 1], [], ["a", None, "c"]], ids=["int", "empty", "none"])
    def test_writer_refuses_class_names_that_are_not_strings(self, tmp_path, names):
        corpus = small_corpus(n=4)
        corpus.class_names = names
        with pytest.raises(ManifestError, match="class_names must be a non-empty list of strings"):
            write_corpus(corpus, str(tmp_path / "c"))
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("field, width, message", [
        ("d_a", 0, r"feature widths must be >= 1, got 0, 4"),
        ("d_t", -1, r"feature widths must be >= 1, got 5, -1"),
        ("d_a", 5.0, r"corpus: d_a must be an integer, got 5\.0"),
    ], ids=["d_a-zero", "d_t-negative", "d_a-float"])
    def test_writer_refuses_a_width_the_reader_would(self, tmp_path, field, width, message):
        corpus = small_corpus(n=4)
        setattr(corpus, field, width)
        with pytest.raises(ManifestError, match=message):
            write_corpus(corpus, str(tmp_path / "c"))
        assert not (tmp_path / "c").exists()


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
