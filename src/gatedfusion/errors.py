"""Exception hierarchy shared across the package, and the config-object builder that raises it."""

import dataclasses


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
    """A manifest record points outside the feature blob."""


class ManifestError(CorpusFormatError):
    """Manifest is structurally invalid (missing/ill-typed fields)."""


def from_dict(cls, data: dict, label: str):
    """Build dataclass `cls` from a JSON object, rejecting unknown and missing keys."""
    fields = dataclasses.fields(cls)
    known = {f.name for f in fields}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigError(f"{label}: unknown keys {unknown}; known keys: {sorted(known)}")
    missing = [f.name for f in fields if f.name not in data
               and f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    if missing:
        raise ConfigError(f"{label}: missing keys {missing}")
    return cls(**data)
