"""On-disk corpus format: JSON manifest + one checksummed float32 blob.

The manifest (`manifest.json`) is human-readable and records per-sample byte
offsets into `features.bin`, which holds row-major little-endian float32
regions in manifest order. The side channels of `synth.SIDE_CHANNELS` are
optional per sample; `_CHANNEL_KEYS` gives each its manifest key. The writer
refuses a sample the reader would refuse: a modality that is not a (T, d)
array of the corpus width, a side channel not one value per frame of its
modality, a flag channel holding anything but 0/1, a label outside the class
names, a label or id that is not an integer (a numpy integer is written as an
int, a bool is refused), an id that an earlier sample has, or a value that is
not a finite float32. The reader validates version, checksum and every
region's bounds before touching the blob, so a corrupted manifest produces a
typed error rather than an out-of-bounds read; a NaN or infinite stored value
or a repeated id is a `ManifestError` too. Each modality is written and read
back as its (T, d) array of valid rows. A record with a `subject_id` key is
rejected: there is no subject-level protocol, and the key is not silently
dropped.

Byte layout of `features.bin`: concatenation of the regions referenced by the
manifest; each region is `count * 4` bytes of `<f4`, where count is T_a*d_a
(acoustic), T_t*d_t (textual), or, for a side channel, the length T_a or T_t
of the modality it annotates. A sample's regions follow each other in that
order, its side channels in the order of `_CHANNEL_KEYS`.
"""

from __future__ import annotations

import hashlib
import json
import numbers
import os

import numpy as np

from .atomic import atomic_write
from .errors import BoundsError, ChecksumError, ManifestError, UnsupportedVersionError, need
from .synth import SIDE_CHANNELS, Corpus, Sample

FORMAT_VERSION = 1
MANIFEST_NAME = "manifest.json"
BLOB_NAME = "features.bin"
_ITEM = 4  # bytes per <f4
# Side-channel field of `Sample` -> the `has_<key>`/`offset_<key>` stem of its
# manifest entries, in blob order
_CHANNEL_KEYS = {
    "energy": "energy",
    "negative_token_flags": "negative_flags",
    "diagnostic_flags_a": "diag_a",
    "diagnostic_flags_t": "diag_t",
}


def _all_flags(arr: np.ndarray) -> bool:
    """Whether every value is 0 or 1. On a channel's few dozen values a set of
    them is cheaper than numpy's elementwise tests."""
    return set(np.asarray(arr).tolist()) <= {0, 1}


def _integer(value, label: str, field: str) -> int:
    """`value` as a Python int, for any integer but a bool; anything else is refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ManifestError(f"{label}: {field} must be an integer, got {value!r}")
    return int(value)


def _check_new_id(sample_id: int, index: int, first: dict[int, int], label: str) -> None:
    """Record that sample `index` has `sample_id`, refusing an id seen before."""
    if sample_id in first:
        raise ManifestError(f"{label}: id {sample_id} repeats sample[{first[sample_id]}]'s")
    first[sample_id] = index


def write_corpus(corpus: Corpus, path: str) -> str:
    """Write manifest + blob into directory `path` (created if missing) and
    return the blob's SHA-256 hex digest.

    A sample the reader would refuse raises `ManifestError` naming the sample
    and region before any file is written. A write that fails leaves the files
    at `path` as they were.
    """
    chunks: list[bytes] = []
    offset = 0

    def put(arr: np.ndarray, label: str, key: str) -> int:
        nonlocal offset
        with np.errstate(over="ignore"):
            cast = np.ascontiguousarray(arr, dtype="<f4")
        if not np.all(np.isfinite(cast)):
            raise ManifestError(f"{label}: region {key!r} holds a value that is not a finite float32")
        raw = cast.tobytes()
        start = offset
        chunks.append(raw)
        offset += len(raw)
        return start

    records = []
    first_with_id: dict[int, int] = {}
    for i, s in enumerate(corpus.samples):
        label = f"sample[{i}] (id {s.sample_id})"
        sample_id = _integer(s.sample_id, label, "sample_id")
        class_id = _integer(s.label, label, "label")
        _check_new_id(sample_id, i, first_with_id, label)
        if not 0 <= class_id < len(corpus.class_names):
            raise ManifestError(f"{label}: label {class_id} outside [0, {len(corpus.class_names)})")
        rec = {"id": sample_id, "label": class_id}
        for modality, m, width in (("acoustic", "a", corpus.d_a), ("textual", "t", corpus.d_t)):
            shape = np.shape(getattr(s, modality))
            if len(shape) != 2 or shape[0] < 1 or shape[1] != width:
                raise ManifestError(f"{label}: region 'offset_{m}' must be a (T, {width}) "
                                    f"array with T >= 1, got shape {shape}")
            rec[f"T_{m}"] = shape[0]
            rec[f"offset_{m}"] = put(getattr(s, modality), label, f"offset_{m}")
        for name, key in _CHANNEL_KEYS.items():
            channel = getattr(s, name)
            rec[f"has_{key}"] = channel is not None
            if channel is None:
                continue
            modality, is_flags = SIDE_CHANNELS[name]
            frames = len(getattr(s, modality))
            if np.shape(channel) != (frames,):
                raise ManifestError(f"{label}: region 'offset_{key}' has shape {np.shape(channel)}, "
                                    f"not one value per {modality} frame ({frames})")
            if is_flags and not _all_flags(channel):
                raise ManifestError(f"{label}: region 'offset_{key}' holds a value other than 0 or 1")
            rec[f"offset_{key}"] = put(channel, label, f"offset_{key}")
        records.append(rec)

    blob = b"".join(chunks)
    checksum = hashlib.sha256(blob).hexdigest()
    manifest = {
        "format_version": FORMAT_VERSION,
        "n_samples": len(corpus.samples),
        "d_a": corpus.d_a,
        "d_t": corpus.d_t,
        "class_names": list(corpus.class_names),
        "blob_length": len(blob),
        "blob_sha256": checksum,
        "samples": records,
    }
    try:
        os.makedirs(path, exist_ok=True)
        # both temp files are written before either replaces its target
        with atomic_write(os.path.join(path, BLOB_NAME), "wb") as fb, \
                atomic_write(os.path.join(path, MANIFEST_NAME)) as fm:
            fb.write(blob)
            json.dump(manifest, fm, indent=1, sort_keys=True)
            fm.write("\n")
    except OSError as e:
        raise ManifestError(f"cannot write corpus at {path}: {e}") from e
    return checksum


def _region(record: dict, key: str, count: int, blob_length: int, label: str) -> tuple[int, int]:
    start = need(record, key, int, label)
    length = count * _ITEM
    if start < 0 or start + length > blob_length:
        raise BoundsError(
            f"{label}: region {key!r} [{start}, {start + length}) outside blob of {blob_length} bytes"
        )
    return start, length


def read_corpus(path: str) -> Corpus:
    manifest_path = os.path.join(path, MANIFEST_NAME)
    blob_path = os.path.join(path, BLOB_NAME)
    try:
        with open(manifest_path) as f:
            manifest = json.load(f)
    except OSError as e:
        raise ManifestError(f"cannot read manifest at {manifest_path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ManifestError(f"{manifest_path}: invalid JSON: {e}") from e
    if not isinstance(manifest, dict):
        raise ManifestError(f"{manifest_path}: manifest must be a JSON object")

    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise UnsupportedVersionError(f"{manifest_path}: unsupported format_version {version!r}")
    n_samples = need(manifest, "n_samples", int, "manifest")
    d_a = need(manifest, "d_a", int, "manifest")
    d_t = need(manifest, "d_t", int, "manifest")
    if d_a < 1 or d_t < 1:
        raise ManifestError(f"{manifest_path}: feature widths must be >= 1, got {d_a}, {d_t}")
    class_names = need(manifest, "class_names", list, "manifest")
    if not class_names or not all(isinstance(c, str) for c in class_names):
        raise ManifestError(f"{manifest_path}: class_names must be a non-empty list of strings")
    blob_length = need(manifest, "blob_length", int, "manifest")
    declared_sha = need(manifest, "blob_sha256", str, "manifest")
    records = need(manifest, "samples", list, "manifest")
    if len(records) != n_samples:
        raise ManifestError(f"{manifest_path}: n_samples {n_samples} != {len(records)} records")

    try:
        with open(blob_path, "rb") as f:
            blob = f.read()
    except OSError as e:
        raise ChecksumError(f"cannot read blob at {blob_path}: {e}") from e
    if len(blob) != blob_length:
        raise ChecksumError(f"{blob_path}: blob length {len(blob)} != declared {blob_length}")
    if hashlib.sha256(blob).hexdigest() != declared_sha:
        raise ChecksumError(f"{blob_path}: blob checksum mismatch")

    regions: list[tuple[int, int]] = []

    def region_array(rec, key, count, label) -> np.ndarray:
        start, length = _region(rec, key, count, blob_length, label)
        regions.append((start, length))
        arr = np.frombuffer(blob[start : start + length], dtype="<f4").astype(np.float64)
        if not np.all(np.isfinite(arr)):
            raise ManifestError(f"{label}: region {key!r} holds a non-finite value")
        return arr

    samples = []
    first_with_id: dict[int, int] = {}
    for i, rec in enumerate(records):
        label_str = f"sample[{i}]"
        if not isinstance(rec, dict):
            raise ManifestError(f"{label_str}: record must be an object")
        if "subject_id" in rec:
            raise ManifestError(f"{label_str}: subject_id is not supported; folds are stratified by label")
        sample_id = need(rec, "id", int, label_str)
        _check_new_id(sample_id, i, first_with_id, label_str)
        label = need(rec, "label", int, label_str)
        if not 0 <= label < len(class_names):
            raise ManifestError(f"{label_str}: label {label} outside [0, {len(class_names)})")
        t_a = need(rec, "T_a", int, label_str)
        t_t = need(rec, "T_t", int, label_str)
        if t_a < 1 or t_t < 1:
            raise ManifestError(f"{label_str}: sequence lengths must be >= 1")

        feats_a = region_array(rec, "offset_a", t_a * d_a, label_str).reshape(t_a, d_a)
        feats_t = region_array(rec, "offset_t", t_t * d_t, label_str).reshape(t_t, d_t)

        frames = {"acoustic": t_a, "textual": t_t}
        channels = {}
        for name, key in _CHANNEL_KEYS.items():
            has = rec.get(f"has_{key}", False)
            if not isinstance(has, bool):
                raise ManifestError(f"{label_str}: has_{key} must be a boolean")
            if has:
                modality, is_flags = SIDE_CHANNELS[name]
                arr = region_array(rec, f"offset_{key}", frames[modality], label_str)
                if is_flags:
                    if not _all_flags(arr):
                        raise ManifestError(f"{label_str}: {key} values must be 0 or 1")
                    arr = arr.astype(np.int64)
                channels[name] = arr

        samples.append(Sample(sample_id, label, feats_a, feats_t, **channels))

    regions.sort()
    for (s1, l1), (s2, _) in zip(regions, regions[1:]):
        if s1 + l1 > s2:
            raise BoundsError(f"{manifest_path}: overlapping blob regions at offsets {s1} and {s2}")

    return Corpus(samples, class_names, d_a, d_t)
