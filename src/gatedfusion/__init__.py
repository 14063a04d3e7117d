"""Cross-modal gated fusion for paired audio/text sequence classification."""

from .errors import (
    BoundsError,
    ChecksumError,
    ConfigError,
    CorpusFormatError,
    EmptySequenceError,
    GatedFusionError,
    LabelError,
    ManifestError,
    NonFiniteError,
    ShapeError,
    UnsupportedVersionError,
)
from .gating import GatingMode
from .model import ForwardResult, FusionModel, ModelConfig
from .sequence import PaddedBatch, pad_batch
from .synth import (Corpus, OracleReport, Sample, SynthSpec, bayes_oracle_accuracy, bayes_predictions, generate,
                    model_inputs)
from .tensor import GradcheckReport, Parameter, Tape, Tensor, gradcheck
from .trainer import TrainConfig, TrainResult, evaluate, train

__all__ = [
    "BoundsError", "ChecksumError", "ConfigError", "CorpusFormatError",
    "EmptySequenceError", "GatedFusionError", "LabelError", "ManifestError",
    "NonFiniteError", "ShapeError", "UnsupportedVersionError",
    "GatingMode",
    "ForwardResult", "FusionModel", "ModelConfig",
    "PaddedBatch", "pad_batch",
    "Corpus", "OracleReport", "Sample", "SynthSpec", "bayes_oracle_accuracy",
    "bayes_predictions", "generate", "model_inputs",
    "GradcheckReport", "Parameter", "Tape", "Tensor", "gradcheck",
    "TrainConfig", "TrainResult", "evaluate", "train",
]

__version__ = "0.1.0"
