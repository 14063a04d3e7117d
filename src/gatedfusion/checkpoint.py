"""Versioned binary checkpoint container.

Layout: 4-byte magic ``GFCK``, little-endian u32 header length, a UTF-8 JSON
header, then one contiguous blob of little-endian float64 (``<f8``) reals. The
header echoes the model config, lists every array's name/shape in blob order,
records the blob dtype (always ``<f8``; any other value is rejected) and its
SHA-256. A stored NaN or infinity, an array named twice, or a blob the arrays
do not exactly cover is rejected on load. Optimizer state rides along as extra
``opt.*`` arrays so training can resume exactly. `save_model` writes no
non-finite array; `load_model` checks every stored array against the header
config's `parameter_shapes`, refusing a missing, misshapen or stray one, before
it builds the model.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass

import numpy as np

from .atomic import atomic_write
from .errors import ChecksumError, ConfigError, ManifestError, UnsupportedVersionError, from_dict, need
from .model import FusionModel, ModelConfig, parameter_shapes

MAGIC = b"GFCK"
FORMAT_VERSION = 1
DTYPE = "<f8"
_OPT_PREFIX = "opt."


@dataclass
class Checkpoint:
    config: dict
    arrays: dict[str, np.ndarray]
    meta: dict

    @property
    def optimizer_state(self) -> dict[str, np.ndarray]:
        """The optimizer-state arrays `save_model` stored, under the optimizer's own names."""
        return {k[len(_OPT_PREFIX):]: v for k, v in self.arrays.items() if k.startswith(_OPT_PREFIX)}


def save_checkpoint(
    path,
    config: dict,
    arrays: dict[str, np.ndarray],
    meta: dict | None = None,
) -> None:
    blob = b"".join(np.ascontiguousarray(a, dtype=DTYPE).tobytes() for a in arrays.values())
    header = {
        "format_version": FORMAT_VERSION,
        "dtype": DTYPE,
        "config": config,
        "arrays": [{"name": n, "rows": a.shape[0], "cols": a.shape[1]} for n, a in arrays.items()],
        "blob_length": len(blob),
        "blob_sha256": hashlib.sha256(blob).hexdigest(),
        "meta": meta or {},
    }
    head = json.dumps(header, sort_keys=True).encode()
    with atomic_write(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", len(head)))
        f.write(head)
        f.write(blob)


def load_checkpoint(path) -> Checkpoint:
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as e:
        raise ManifestError(f"cannot read checkpoint at {path}: {e}") from e
    if raw[:4] != MAGIC:
        raise ManifestError(f"{path}: not a checkpoint file (bad magic)")
    if len(raw) < 8:
        raise ManifestError(f"{path}: checkpoint ends inside the header length")
    (head_len,) = struct.unpack("<I", raw[4:8])
    try:
        header = json.loads(raw[8 : 8 + head_len].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ManifestError(f"{path}: corrupt checkpoint header: {e}") from e
    if not isinstance(header, dict):
        raise ManifestError(f"{path}: checkpoint header must be a JSON object")
    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise UnsupportedVersionError(f"{path}: unsupported checkpoint version {version}")
    dtype = header.get("dtype")
    if dtype != DTYPE:
        raise ManifestError(f"{path}: unsupported dtype {dtype!r}; checkpoints hold {DTYPE}")
    label = f"{path}: header"
    blob_length = need(header, "blob_length", int, label)
    declared_sha = need(header, "blob_sha256", str, label)
    config = need(header, "config", dict, label)
    records = need(header, "arrays", list, label)
    meta = need(header, "meta", dict, label)
    blob = raw[8 + head_len :]
    if len(blob) != blob_length:
        raise ChecksumError(f"{path}: blob length {len(blob)} != declared {blob_length}")
    digest = hashlib.sha256(blob).hexdigest()
    if digest != declared_sha:
        raise ChecksumError(f"{path}: blob checksum mismatch")
    itemsize = np.dtype(DTYPE).itemsize
    arrays = {}
    offset = 0
    for i, rec in enumerate(records):
        rec_label = f"{path}: arrays[{i}]"
        if not isinstance(rec, dict):
            raise ManifestError(f"{rec_label}: record must be an object")
        name = need(rec, "name", str, rec_label)
        if name in arrays:
            raise ManifestError(f"{rec_label}: array {name!r} is named twice")
        rows = need(rec, "rows", int, rec_label)
        cols = need(rec, "cols", int, rec_label)
        if rows < 0 or cols < 0:
            raise ManifestError(f"{rec_label}: negative shape ({rows}, {cols})")
        end = offset + rows * cols * itemsize
        if end > len(blob):
            raise ChecksumError(f"{path}: array {name!r} exceeds blob bounds")
        arr = np.frombuffer(blob[offset:end], dtype=DTYPE).astype(np.float64)
        if not np.all(np.isfinite(arr)):
            raise ManifestError(f"{path}: array {name!r} holds a non-finite value")
        arrays[name] = arr.reshape(rows, cols)
        offset = end
    if offset != len(blob):
        raise ManifestError(f"{path}: arrays cover {offset} of the blob's {len(blob)} bytes")
    return Checkpoint(config, arrays, meta)


def save_model(model: FusionModel, path, optimizer_state: dict[str, np.ndarray] | None = None,
               meta: dict | None = None) -> None:
    arrays = {p.name: p.data for p in model.parameters()}
    if optimizer_state:
        arrays.update({f"{_OPT_PREFIX}{k}": v for k, v in optimizer_state.items()})
    for name, a in arrays.items():
        if not np.all(np.isfinite(a)):
            raise ManifestError(f"{path}: array {name!r} holds a non-finite value; nothing written")
    save_checkpoint(path, model.cfg.to_dict(), arrays, meta)


def load_model(path) -> tuple[FusionModel, Checkpoint]:
    ckpt = load_checkpoint(path)
    try:
        cfg = from_dict(ModelConfig, ckpt.config, "model config")
    except ConfigError as e:
        raise ManifestError(f"{path}: {e}") from e
    # the config sizes the model: check them against the stored arrays first,
    # so a forged header cannot make FusionModel allocate without bound
    names = set()
    for name, shape in parameter_shapes(cfg):
        if name not in ckpt.arrays or ckpt.arrays[name].shape != shape:
            raise ManifestError(f"{path}: model config needs array {name!r} of shape {shape}")
        names.add(name)
    stray = [n for n in ckpt.arrays if n not in names and not n.startswith(_OPT_PREFIX)]
    if stray:
        raise ManifestError(f"{path}: array {stray[0]!r} is neither a model parameter nor optimizer state")
    model = FusionModel(cfg)
    for p in model.parameters():
        p.data[...] = ckpt.arrays[p.name]
    return model, ckpt
