"""On-disk corpus format: JSON manifest + one checksummed float32 blob.

The manifest (`manifest.json`) is human-readable and records per-sample byte
offsets into `features.bin`, which holds row-major little-endian float32
regions in manifest order. Side channels (energy, negative flags, diagnostic
flags) are optional per sample. The reader validates version, checksum and
every region's bounds before touching the blob, so a corrupted manifest
produces a typed error rather than an out-of-bounds read; a NaN or infinite
stored value is a `ManifestError` too. Each modality is written and read
back as its (T, d) array of valid rows. A record with a
`subject_id` key is rejected: there is no subject-level protocol, and the
key is not silently dropped.

Byte layout of `features.bin`: concatenation of the regions referenced by the
manifest; each region is `count * 4` bytes of `<f4`, where count is
T_a*d_a (acoustic), T_t*d_t (textual), T_a (energy), T_t (negative flags),
T_a (acoustic diagnostic flags) or T_t (textual diagnostic flags).
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from .atomic import atomic_write
from .errors import BoundsError, ChecksumError, ManifestError, UnsupportedVersionError, need
from .synth import Corpus, Sample

FORMAT_VERSION = 1
MANIFEST_NAME = "manifest.json"
BLOB_NAME = "features.bin"
_ITEM = 4  # bytes per <f4


def write_corpus(corpus: Corpus, path: str) -> None:
    """Write manifest + blob into directory `path` (created if missing).

    A value that is not a finite float32 raises `ManifestError` naming its
    sample and region before any file is written. A write that fails leaves
    the files at `path` as they were.
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
    for i, s in enumerate(corpus.samples):
        label = f"sample[{i}] (id {s.sample_id})"
        rec = {
            "id": s.sample_id,
            "label": s.label,
            "T_a": len(s.acoustic),
            "T_t": len(s.textual),
        }
        rec["offset_a"] = put(s.acoustic, label, "offset_a")
        rec["offset_t"] = put(s.textual, label, "offset_t")
        for name, channel in (
            ("energy", s.energy),
            ("negative_flags", s.negative_token_flags),
            ("diag_a", s.diagnostic_flags_a),
            ("diag_t", s.diagnostic_flags_t),
        ):
            rec[f"has_{name}"] = channel is not None
            if channel is not None:
                key = f"offset_{name}"
                rec[key] = put(np.asarray(channel, dtype=np.float64), label, key)
        records.append(rec)

    blob = b"".join(chunks)
    manifest = {
        "format_version": FORMAT_VERSION,
        "n_samples": len(corpus.samples),
        "d_a": corpus.d_a,
        "d_t": corpus.d_t,
        "class_names": list(corpus.class_names),
        "blob_length": len(blob),
        "blob_sha256": hashlib.sha256(blob).hexdigest(),
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
    for i, rec in enumerate(records):
        label_str = f"sample[{i}]"
        if not isinstance(rec, dict):
            raise ManifestError(f"{label_str}: record must be an object")
        if "subject_id" in rec:
            raise ManifestError(f"{label_str}: subject_id is not supported; folds are stratified by label")
        sample_id = need(rec, "id", int, label_str)
        label = need(rec, "label", int, label_str)
        if not 0 <= label < len(class_names):
            raise ManifestError(f"{label_str}: label {label} outside [0, {len(class_names)})")
        t_a = need(rec, "T_a", int, label_str)
        t_t = need(rec, "T_t", int, label_str)
        if t_a < 1 or t_t < 1:
            raise ManifestError(f"{label_str}: sequence lengths must be >= 1")

        feats_a = region_array(rec, "offset_a", t_a * d_a, label_str).reshape(t_a, d_a)
        feats_t = region_array(rec, "offset_t", t_t * d_t, label_str).reshape(t_t, d_t)

        channels = {}
        for name, count, as_int in (
            ("energy", t_a, False),
            ("negative_flags", t_t, True),
            ("diag_a", t_a, True),
            ("diag_t", t_t, True),
        ):
            has = rec.get(f"has_{name}", False)
            if not isinstance(has, bool):
                raise ManifestError(f"{label_str}: has_{name} must be a boolean")
            if has:
                arr = region_array(rec, f"offset_{name}", count, label_str)
                if as_int:
                    if not np.all(np.isin(arr, (0.0, 1.0))):
                        raise ManifestError(f"{label_str}: {name} values must be 0 or 1")
                    channels[name] = arr.astype(np.int64)
                else:
                    channels[name] = arr
            else:
                channels[name] = None

        samples.append(
            Sample(
                sample_id=sample_id,
                label=label,
                acoustic=feats_a,
                textual=feats_t,
                energy=channels["energy"],
                negative_token_flags=channels["negative_flags"],
                diagnostic_flags_a=channels["diag_a"],
                diagnostic_flags_t=channels["diag_t"],
            )
        )

    regions.sort()
    for (s1, l1), (s2, _) in zip(regions, regions[1:]):
        if s1 + l1 > s2:
            raise BoundsError(f"{manifest_path}: overlapping blob regions at offsets {s1} and {s2}")

    return Corpus(samples, class_names, d_a, d_t)
