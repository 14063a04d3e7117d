"""Versioned binary checkpoints, format 2: the parameter vector and the
optimizer's state rows as they sit in memory.

Layout: 4-byte magic ``GFCK``, little-endian u32 header length, a UTF-8 JSON
header, then the blob: one (1 + k, n) array of little-endian float64 (``<f8``)
reals. Row 0 is `FusionModel.parameters().data`; rows 1..k are the optimizer's
state rows, laid out like it (k is 0 for SGD, 2 for Adam). The header's model
config fixes the layout through `model.parameter_table`, so no name or shape
is stored.

The header holds the format version, the dtype (always ``<f8``), the model
config, the optimizer's step count ``t`` and row count ``k``, ``meta``, the
blob length, and one SHA-256 over the canonical config JSON followed by the
blob. `load_model` checks the digest, then builds the config (whose parameter
budget bounds n), then requires a blob of exactly (1 + k)·n·8 bytes, all
before it builds the model. `save_model` writes, and `load_model` reads, no
non-finite value. The optimizer's `load_state` checks ``t`` and the rows when a
run resumes. A version-1 file, which listed every array by name, is an
`UnsupportedVersionError`.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass

import numpy as np

from .atomic import atomic_write
from .errors import ChecksumError, ConfigError, ManifestError, UnsupportedVersionError, from_dict, need
from .model import FusionModel, ModelConfig, parameter_count

MAGIC = b"GFCK"
FORMAT_VERSION = 2
DTYPE = "<f8"


@dataclass
class Checkpoint:
    """What a checkpoint holds besides the model: the optimizer's step count
    and (k, n) state rows, as its `load_state` takes them, and `meta`."""

    t: int
    rows: np.ndarray
    meta: dict


def _digest(config, blob) -> str:
    """SHA-256 of the canonical JSON of `config` followed by `blob`."""
    digest = hashlib.sha256(json.dumps(config, sort_keys=True).encode())
    digest.update(blob)
    return digest.hexdigest()


def _refuse_non_finite(stack: np.ndarray, model: FusionModel, path, outcome: str = "") -> None:
    finite = np.isfinite(stack)
    if not finite.all():
        row, index = divmod(int(finite.argmin()), stack.shape[1])
        name = model.parameters().name_at(index)
        entry = f"parameter {name!r}" if row == 0 else f"optimizer state row {row - 1} at {name!r}"
        raise ManifestError(f"{path}: {entry} holds a non-finite value{outcome}")


def save_model(model: FusionModel, path, optimizer=None, meta: dict | None = None) -> None:
    """Write `model`, with `optimizer`'s step count and state rows if one is
    given (else t = 0 and k = 0). A non-finite value is refused before anything
    is written; a failed write leaves the file at `path` as it was."""
    params = model.parameters().data
    t, rows = optimizer.state() if optimizer else (0, np.empty((0, params.size)))
    stack = np.vstack([params, rows])
    _refuse_non_finite(stack, model, path, "; nothing written")
    blob = np.ascontiguousarray(stack, dtype=DTYPE).tobytes()
    config = model.cfg.to_dict()
    header = {"format_version": FORMAT_VERSION, "dtype": DTYPE, "config": config, "t": t, "k": len(rows),
              "meta": meta or {}, "blob_length": len(blob), "sha256": _digest(config, blob)}
    head = json.dumps(header, sort_keys=True).encode()
    with atomic_write(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", len(head)))
        f.write(head)
        f.write(blob)


def load_model(path) -> tuple[FusionModel, Checkpoint]:
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
    except (ValueError, RecursionError) as e:  # ValueError: bad UTF-8, bad JSON, an over-long integer
        raise ManifestError(f"{path}: corrupt checkpoint header: {e}") from e
    if not isinstance(header, dict):
        raise ManifestError(f"{path}: checkpoint header must be a JSON object")
    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise UnsupportedVersionError(f"{path}: checkpoint format_version {version!r} is not {FORMAT_VERSION}; "
                                      "retrain the model with `gatedfusion train`")
    dtype = header.get("dtype")
    if dtype != DTYPE:
        raise ManifestError(f"{path}: unsupported dtype {dtype!r}; checkpoints hold {DTYPE}")
    label = f"{path}: header"
    config = need(header, "config", dict, label)
    t, k, blob_length = (need(header, key, int, label) for key in ("t", "k", "blob_length"))
    declared_sha = need(header, "sha256", str, label)
    meta = need(header, "meta", dict, label)
    blob = memoryview(raw)[8 + head_len :]
    if len(blob) != blob_length:
        raise ChecksumError(f"{path}: blob length {len(blob)} != declared {blob_length}")
    if _digest(config, blob) != declared_sha:
        raise ChecksumError(f"{path}: checksum of the config and blob mismatch")
    try:
        cfg = from_dict(ModelConfig, config, "model config")
    except ConfigError as e:
        raise ManifestError(f"{path}: {e}") from e
    # the config sizes the model: check it against the blob first, so a forged
    # header cannot make FusionModel allocate without bound
    n = parameter_count(cfg)
    if k < 0 or len(blob) != (1 + k) * n * 8:
        raise ManifestError(f"{path}: blob of {len(blob)} bytes is not the (1 + k) x n = (1 + {k}) x {n} "
                            f"float64 array of its header")
    model = FusionModel(cfg)
    stack = np.frombuffer(blob, dtype=DTYPE).reshape(1 + k, n)
    _refuse_non_finite(stack, model, path)
    model.parameters().data[...] = stack[0]
    return model, Checkpoint(t, stack[1:].astype(np.float64), meta)
