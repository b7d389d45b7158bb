"""Finite-difference oracle for the decoder sensitivity probe.

The engine once estimated the sensitivity this way on every segment
boundary: central differences of a batch decoder, all 2 d_z probes decoded
in one call. It now lives here as the reference prior.decoder_sensitivity is
checked against.
"""
from typing import Callable

import numpy as np

from remogen.errors import DimensionError, NumericError

F32 = np.float32
F64 = np.float64

# (m_h of shape (H, D), zs of shape (N, d_z)) -> decoded futures of shape (N, F, D)
BatchDecoder = Callable[[np.ndarray, np.ndarray], np.ndarray]


def estimate_sensitivity(decoder: BatchDecoder, m_h: np.ndarray, z0: np.ndarray,
                         h_step: float = 1e-3) -> np.ndarray:
    """Central-difference response norm of the decoder per latent dimension.

    The probes z0 + h e_d (rows 0..d_z-1) and z0 - h e_d (rows d_z..2 d_z-1)
    are formed in float64, stored as float32 and decoded in a single batch.
    """
    if h_step <= 0:
        raise DimensionError("step size must be positive")
    z0 = np.asarray(z0, dtype=F64).reshape(-1)
    d_z = z0.shape[0]
    offsets = np.eye(d_z, dtype=F64) * h_step
    probes = np.concatenate([z0 + offsets, z0 - offsets]).astype(F32)
    outs = np.asarray(decoder(m_h, probes), dtype=F64)
    if not np.all(np.isfinite(outs)):
        raise NumericError("decoder returned non-finite values during probing")
    diff = (outs[:d_z] - outs[d_z:]).reshape(d_z, -1)
    return (np.linalg.norm(diff, axis=1) / (2.0 * h_step)).astype(F32)
