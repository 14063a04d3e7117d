"""Format-2 checkpoint bytes taken apart and put back together, signed again,
so that a forged checkpoint reaches the checks behind the digest."""

import hashlib
import json
import struct

import numpy as np


def split(raw: bytes) -> tuple[dict, bytes]:
    """The JSON header and the blob of checkpoint bytes."""
    (hlen,) = struct.unpack("<I", raw[4:8])
    return json.loads(raw[8 : 8 + hlen]), raw[8 + hlen :]


def digest(config, blob: bytes) -> str:
    """The format's SHA-256: over the canonical JSON of the config, then the blob."""
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode() + blob).hexdigest()


def stack(raw: bytes) -> np.ndarray:
    """A writable copy of the blob as its (1 + k, n) array."""
    header, blob = split(raw)
    return np.frombuffer(blob, dtype="<f8").reshape(1 + header["k"], -1).copy()


def rewrite(raw: bytes, edit=lambda header: header, blob: bytes | None = None, sign: bool = True) -> bytes:
    """Checkpoint bytes with the header replaced by edit(header) and, if given,
    the blob by `blob`, its length recorded. The header is signed again unless
    `sign` is False or it holds no config object to sign."""
    header, old_blob = split(raw)
    if blob is None:
        blob = old_blob
    else:
        header["blob_length"] = len(blob)
    header = edit(header)
    if sign and isinstance(header, dict) and isinstance(header.get("config"), dict):
        header["sha256"] = digest(header["config"], blob)
    head = json.dumps(header, sort_keys=True).encode()
    return raw[:4] + struct.pack("<I", len(head)) + head + blob
