"""Exception hierarchy shared across the package, and the JSON reader and config builder that raise it."""

import dataclasses
import enum
import json
import sys
import typing


class GatedFusionError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(GatedFusionError):
    """Operand shapes are incompatible for the requested operation."""


class EmptySequenceError(GatedFusionError):
    """A sequence with zero valid positions was passed where at least one is required."""


class LabelError(GatedFusionError):
    """A class label is outside the configured label range."""


class NonFiniteError(GatedFusionError):
    """A forward pass produced NaN/Inf; the message names the first offending op."""


class ConfigError(GatedFusionError):
    """A configuration value or config-file key is invalid."""


class CorpusFormatError(GatedFusionError):
    """Base class for on-disk corpus problems."""


class UnsupportedVersionError(CorpusFormatError):
    """Manifest declares a format version this reader does not understand."""


class ChecksumError(CorpusFormatError):
    """Blob bytes do not match the checksum or length recorded in the manifest."""


class BoundsError(CorpusFormatError):
    """Region lengths a manifest states run past the blob's end (short of it is a ManifestError)."""


class ManifestError(CorpusFormatError):
    """Manifest is structurally invalid (missing/ill-typed fields)."""


def json_object(raw: bytes, label: str, error: type[GatedFusionError]) -> dict:
    """`raw` parsed as a UTF-8 JSON object, else `error`: also for text nested past
    the recursion limit or holding an integer too long to parse."""
    try:
        data = json.loads(raw.decode())
    except (ValueError, RecursionError) as e:  # ValueError: bad UTF-8, bad JSON, an over-long integer
        raise error(f"{label} is not valid JSON: {e}") from e
    if not isinstance(data, dict):
        raise error(f"{label} must be a JSON object")
    return data


def _fits(value, kind) -> bool:
    """Whether a JSON value fits a field type: a finite int is a float (NaN and
    +-inf are not), a bool is not an int, a string may name an enum member, a
    tuple field takes a list."""
    if isinstance(value, bool):
        return kind is bool
    if kind is float:
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    if type(kind) is type:
        # a plain class such as int, str or dict: neither an enum nor a generic alias
        return isinstance(value, kind)
    if typing.get_origin(kind) is tuple:
        kinds = typing.get_args(kind)
        return (isinstance(value, (list, tuple)) and len(value) == len(kinds)
                and all(_fits(v, k) for v, k in zip(value, kinds)))
    if issubclass(kind, enum.Enum):
        return isinstance(value, (str, kind))
    return isinstance(value, kind)


def need(record: dict, key: str, kind, label: str):
    """`record[key]` if present and of type `kind` by the rules of `_fits`, else ManifestError."""
    if key not in record:
        raise ManifestError(f"{label}: missing field {key!r}")
    value = record[key]
    if not _fits(value, kind):
        raise ManifestError(f"{label}: field {key!r} must be {kind.__name__}, got {type(value).__name__}")
    return value


def from_dict(cls, data: dict, label: str):
    """Build dataclass `cls` from a JSON object, rejecting unknown and missing keys
    and values that do not fit their field's type."""
    fields = dataclasses.fields(cls)
    known = {f.name for f in fields}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigError(f"{label}: unknown keys {unknown}; known keys: {sorted(known)}")
    missing = [f.name for f in fields if f.name not in data
               and f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    if missing:
        raise ConfigError(f"{label}: missing keys {missing}")
    kinds = typing.get_type_hints(cls)
    for name, value in data.items():
        kind = kinds[name]
        if not _fits(value, kind):
            shown = kind.__name__ if isinstance(kind, type) else kind
            raise ConfigError(f"{label}: {name} must be {shown}, got {value!r}")
    return cls(**data)
