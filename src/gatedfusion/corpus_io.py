"""On-disk corpus format 2: a JSON manifest and one checksummed float32 blob.

Layout: `features.bin` holds row-major little-endian float32 regions, per
sample in manifest order: acoustic (T_a*d_a values), textual (T_t*d_t), then
each side channel the sample has, in `_CHANNEL_KEYS` order, one value per
frame of its `synth.SIDE_CHANNELS` modality. A region starts where the one
before it ends and is named by the `Sample` field it holds. The manifest
keeps only what the blob cannot say. Key rule: a missing key, or one outside
`_HEADER_KEYS` in the header or `_RECORD_KEYS` in a record (`id`, `label`,
`T_a`, `T_t` and a `has_<key>` flag per side channel), is refused by name.

One parse path: `_parse` holds every rule on what a corpus holds, and both
`read_corpus` (after its file, version, length and checksum checks) and
`write_corpus` (before it opens a file) run it. Lengths past the blob's end
are a `BoundsError`; unclaimed bytes, a repeated id, a label outside the
class names, a non-finite value or a flag other than 0/1 are a `ManifestError`
naming the sample and region. The writer itself refuses only what stops it
building: an id, label or width that is not an integer, a modality that is
not a (T, width) array with T >= 1, a side channel not one value per frame.
A version-1 manifest, which stored offsets, is an `UnsupportedVersionError`.
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

FORMAT_VERSION = 2
MANIFEST_NAME = "manifest.json"
BLOB_NAME = "features.bin"
# Side-channel field of `Sample` -> the `has_<key>` flag of its manifest record, in blob order
_CHANNEL_KEYS = {"energy": "energy", "negative_token_flags": "negative_flags",
                 "diagnostic_flags_a": "diag_a", "diagnostic_flags_t": "diag_t"}
_HEADER_KEYS = frozenset({"format_version", "n_samples", "d_a", "d_t", "class_names",
                          "blob_length", "blob_sha256", "samples"})
_RECORD_KEYS = frozenset({"id", "label", "T_a", "T_t", *(f"has_{key}" for key in _CHANNEL_KEYS.values())})
_FLAG_FIELDS = frozenset(name for name, (_, is_flags) in SIDE_CHANNELS.items() if is_flags)


def _integer(value, label: str, field: str) -> int:
    """`value` as a Python int, for any integer but a bool; anything else is refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ManifestError(f"{label}: {field} must be an integer, got {value!r}")
    return int(value)


def _refuse_stray_keys(obj: dict, keys: frozenset, label: str) -> None:
    stray = obj.keys() - keys
    if stray:
        raise ManifestError(f"{label}: unknown key {min(stray)!r}; the keys are {sorted(keys)}")


def _parse(manifest: dict, blob: bytes, writing: bool = False) -> Corpus | None:
    """The corpus `manifest` and `blob` hold, or the typed error of the first
    rule they break. `writing` checks a corpus being written, builds nothing and
    words the refusals for it: a sample is named with its id, a non-finite
    value is one float32 cannot hold."""
    _refuse_stray_keys(manifest, _HEADER_KEYS, "manifest")
    n_samples, d_a, d_t = (need(manifest, key, int, "manifest") for key in ("n_samples", "d_a", "d_t"))
    if d_a < 1 or d_t < 1:
        raise ManifestError(f"manifest: feature widths must be >= 1, got {d_a}, {d_t}")
    class_names = need(manifest, "class_names", list, "manifest")
    if not class_names or not all(isinstance(c, str) for c in class_names):
        raise ManifestError(f"manifest: class_names must be a non-empty list of strings, got {class_names!r}")
    records = need(manifest, "samples", list, "manifest")
    if len(records) != n_samples:
        raise ManifestError(f"manifest: n_samples {n_samples} != {len(records)} records")

    def sample_name(i: int) -> str:
        return f"sample[{i}] (id {records[i]['id']})" if writing else f"sample[{i}]"

    fields = []  # per sample: its `Sample` fields
    regions, counts = [], []  # per region in blob order: (sample index, Sample field, shape); its value count
    first_with_id: dict[int, int] = {}
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise ManifestError(f"sample[{i}]: record must be an object")
        label = sample_name(i)
        _refuse_stray_keys(rec, _RECORD_KEYS, label)
        sample_id = need(rec, "id", int, label)
        if sample_id in first_with_id:
            raise ManifestError(f"{label}: id {sample_id} repeats sample[{first_with_id[sample_id]}]'s")
        first_with_id[sample_id] = i
        class_id = need(rec, "label", int, label)
        if not 0 <= class_id < len(class_names):
            raise ManifestError(f"{label}: label {class_id} outside [0, {len(class_names)})")
        frames = {"acoustic": need(rec, "T_a", int, label), "textual": need(rec, "T_t", int, label)}
        if frames["acoustic"] < 1 or frames["textual"] < 1:
            raise ManifestError(f"{label}: sequence lengths must be >= 1")
        fields.append({"sample_id": sample_id, "label": class_id})
        for modality, width in (("acoustic", d_a), ("textual", d_t)):
            regions.append((i, modality, (frames[modality], width)))
            counts.append(frames[modality] * width)
        for name, key in _CHANNEL_KEYS.items():
            if need(rec, f"has_{key}", bool, label):
                frame_count = frames[SIDE_CHANNELS[name][0]]
                regions.append((i, name, (frame_count,)))
                counts.append(frame_count)

    claimed = sum(counts) * 4  # bytes per <f4
    if claimed != len(blob):
        error = BoundsError if claimed > len(blob) else ManifestError
        raise error(f"manifest: regions claim {claimed} of the blob's {len(blob)} bytes")
    stored = np.frombuffer(blob, dtype="<f4")
    ends = np.cumsum(counts)

    def refuse(bad: np.ndarray, fault: str):
        i, name, _ = regions[int(np.searchsorted(ends, np.argmax(bad), side="right"))]
        raise ManifestError(f"{sample_name(i)}: region {name!r} holds {fault}")

    if not np.isfinite(stored).all():
        refuse(~np.isfinite(stored), "a value that is not a finite float32" if writing else "a non-finite value")
    is_flag = np.repeat(np.array([name in _FLAG_FIELDS for _, name, _ in regions], dtype=bool), counts)
    if not np.isin(stored[is_flag], (0, 1)).all():
        refuse(is_flag & ~np.isin(stored, (0, 1)), "a value other than 0 or 1")
    if writing:
        return None

    values = stored.astype(np.float64)
    start = 0
    for (i, name, shape), end in zip(regions, ends.tolist()):
        view = values[start:end].reshape(shape)
        fields[i][name] = view.astype(np.int64) if name in _FLAG_FIELDS else view
        start = end
    return Corpus([Sample(**f) for f in fields], class_names, d_a, d_t)


def write_corpus(corpus: Corpus, path: str) -> str:
    """Write manifest + blob into directory `path` (created if missing) and
    return the blob's SHA-256 hex digest. A corpus `read_corpus` would refuse
    raises before any file is written; a write that fails leaves the files at
    `path` as they were."""
    d_a, d_t = (_integer(getattr(corpus, key), "corpus", key) for key in ("d_a", "d_t"))
    if d_a < 1 or d_t < 1:
        raise ManifestError(f"feature widths must be >= 1, got {d_a}, {d_t}")
    records, regions = [], []
    for i, s in enumerate(corpus.samples):
        label = f"sample[{i}] (id {s.sample_id})"
        rec = {"id": _integer(s.sample_id, label, "sample_id"), "label": _integer(s.label, label, "label")}
        frames = {}
        for modality, key, width in (("acoustic", "T_a", d_a), ("textual", "T_t", d_t)):
            shape = np.shape(getattr(s, modality))
            if len(shape) != 2 or shape[0] < 1 or shape[1] != width:
                raise ManifestError(f"{label}: region {modality!r} must be a (T, {width}) "
                                    f"array with T >= 1, got shape {shape}")
            frames[modality] = rec[key] = shape[0]
            regions.append(np.ravel(getattr(s, modality)))
        for name, key in _CHANNEL_KEYS.items():
            channel = getattr(s, name)
            rec[f"has_{key}"] = channel is not None
            if channel is not None:
                modality = SIDE_CHANNELS[name][0]
                if np.shape(channel) != (frames[modality],):
                    raise ManifestError(f"{label}: region {name!r} has shape {np.shape(channel)}, "
                                        f"not one value per {modality} frame ({frames[modality]})")
                regions.append(channel)
        records.append(rec)

    with np.errstate(over="ignore"):
        blob = np.concatenate(regions or [np.empty(0)], dtype="<f4", casting="unsafe").tobytes()
    checksum = hashlib.sha256(blob).hexdigest()
    manifest = {"format_version": FORMAT_VERSION, "n_samples": len(records), "d_a": d_a, "d_t": d_t,
                "class_names": corpus.class_names, "blob_length": len(blob), "blob_sha256": checksum,
                "samples": records}
    _parse(manifest, blob, writing=True)
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


def read_corpus(path: str) -> Corpus:
    """The corpus written at `path`; its modalities and energy are views of one
    float64 copy of the blob. An unreadable file, a format version other than
    `FORMAT_VERSION`, or a blob whose length or SHA-256 is not the manifest's
    raises a typed error; then `_parse` checks the rest."""
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
        raise UnsupportedVersionError(f"{manifest_path}: format_version {version!r} is not {FORMAT_VERSION}; "
                                      "regenerate the corpus with `gatedfusion generate`")
    blob_length = need(manifest, "blob_length", int, "manifest")
    declared_sha = need(manifest, "blob_sha256", str, "manifest")
    try:
        with open(blob_path, "rb") as f:
            blob = f.read()
    except OSError as e:
        raise ChecksumError(f"cannot read blob at {blob_path}: {e}") from e
    if len(blob) != blob_length:
        raise ChecksumError(f"{blob_path}: blob length {len(blob)} != declared {blob_length}")
    if hashlib.sha256(blob).hexdigest() != declared_sha:
        raise ChecksumError(f"{blob_path}: blob checksum mismatch")
    return _parse(manifest, blob)
