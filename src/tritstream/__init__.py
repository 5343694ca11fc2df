"""Progressive coding of Gaussian-modeled integer latent tensors.

The stream refines every element from a coarse confidence interval down to
the exact integer, one base-2 or base-3 digit plane at a time, ordering
digits inside each plane by distortion reduction per coded bit.  Any byte
prefix of a stream decodes to a valid minimum-mean-squared-error estimate.
"""

from .codec import (
    EncodeResult,
    Reconstruction,
    canonicalize,
    decode,
    encode,
    encode_result,
    expected_distortion,
    rd_trace,
    truncate,
)
from .errors import CorruptionError, FormatError, TritstreamError
from .gaussian import ElementModel, ModelBank, build_element_model, build_model_bank
from .formats import Shape
from .synth import SynthConfig, generate, mc_distortion_oracle

__version__ = "0.1.0"

__all__ = [
    "CorruptionError",
    "ElementModel",
    "EncodeResult",
    "FormatError",
    "ModelBank",
    "Reconstruction",
    "Shape",
    "SynthConfig",
    "TritstreamError",
    "__version__",
    "build_element_model",
    "build_model_bank",
    "canonicalize",
    "decode",
    "encode",
    "encode_result",
    "expected_distortion",
    "generate",
    "mc_distortion_oracle",
    "rd_trace",
    "truncate",
]
