"""Deterministic real-time reaction motion generation.

Segment-autoregressive latent diffusion over a frozen single-person prior,
steered by composable interaction adapters and refined frame by frame for
low-latency online response.
"""

__version__ = "0.1.0"

from . import fwsr, metrics, mim, motion, prior, runtime, scene, tensorcore
from .errors import (
    ConfigError,
    CorruptArchiveError,
    DimensionError,
    EmptyInputError,
    FormatError,
    InsufficientFramesError,
    NumericError,
    RemogenError,
)

__all__ = [
    "tensorcore", "motion", "scene", "prior", "mim", "fwsr", "metrics", "runtime",
    "RemogenError", "DimensionError", "NumericError", "EmptyInputError",
    "ConfigError", "FormatError", "CorruptArchiveError", "InsufficientFramesError",
]
