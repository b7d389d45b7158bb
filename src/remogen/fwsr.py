"""Frame-wise segment refinement: per-frame latent correction without re-sampling.

Once a segment latent z0 has been sampled and its initial segment decoded,
each subsequent frame refines z0 from the newest observations instead of
re-running the diffusion chain:

    c_dyn      = SelfAttn(proj(concat(history, dynamic window)))
    r          = CrossAttn(z0 as the single query, c_dyn) with relative bias
    gamma,beta = FiLM head of r
    d_raw      = tanh(gamma) * z0 + tanh(beta)
    d_safe     = d_raw / (1 + beta_sens * s)          (per latent dimension)
    z_refined  = z0 + d_safe

where s is the decoder sensitivity vector, estimated once per segment by
central differences of a batch decoder: all 2 d_z probes z0 +/- h e_d are
decoded in one call. The refined latent is re-decoded with the segment's
first updated history, and only the current frame is decoded: the decoder's
last layer computes that frame's columns alone.

SegmentRefiner holds one segment's refinement state and advances it one
frame per step(); the runtime engine drives it one tick at a time.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionError, NumericError
from .motion import HistoryWindow
from .tensorcore import (
    F32,
    F64,
    AttentionParams,
    RelBiasParams,
    Rng,
    layer_norm,
    linear,
    mha_forward,
    relative_bias,
    seeded_init,
    sinusoidal_embedding,
)

DEFAULT_SENSITIVITY_STEP = 1e-3

# (m_h, z, f) -> frame f of the decoded future, shape (D,)
FrameDecoder = Callable[[HistoryWindow, np.ndarray, int], np.ndarray]
# (m_h, zs of shape (N, d_z)) -> decoded futures of shape (N, F, D)
BatchDecoder = Callable[[HistoryWindow, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class SensitivityVector:
    """Non-negative per-latent-dimension decoder response magnitudes."""

    s: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.s, dtype=F32)
        if v.ndim != 1:
            raise DimensionError("sensitivity must be a vector")
        if not np.all(np.isfinite(v)) or np.any(v < 0):
            raise NumericError("sensitivity entries must be finite and non-negative")
        object.__setattr__(self, "s", v)

    @classmethod
    def zeros(cls, dim: int) -> "SensitivityVector":
        return cls(np.zeros(dim, dtype=F32))


@dataclass(frozen=True)
class FwsrParams:
    """Refinement weights operating directly in the latent space."""

    dyn_w: np.ndarray  # (D, d_z) projection of dynamic rows to latent width
    dyn_b: np.ndarray
    dyn_attn: AttentionParams
    cross_attn: AttentionParams
    rel_bias: RelBiasParams
    film_w: np.ndarray  # (d_z, 2 d_z)
    film_b: np.ndarray
    beta_sens: float = 1.0

    def __post_init__(self):
        if self.beta_sens < 0:
            raise DimensionError("suppression strength must be non-negative")


class DynamicContext:
    """Stream of observed context frames with a per-segment window cursor.

    push() appends live observations; mark_segment_start() pins the cursor so
    window(f) exposes exactly the frames observable at refinement iteration f.
    When the stream runs dry the last available window is reused, which keeps
    mid-segment refinement total.
    """

    def __init__(self, history_len: int, feature_dim: int):
        self.history_len = int(history_len)
        self.feature_dim = int(feature_dim)
        self._frames: list = []
        self._base = 0

    def push(self, frame: np.ndarray) -> None:
        f = np.asarray(frame, dtype=F32).reshape(-1)
        if f.shape[0] != self.feature_dim:
            raise DimensionError("dynamic frame width mismatch")
        self._frames.append(f)

    def __len__(self) -> int:
        return len(self._frames)

    def mark_segment_start(self) -> None:
        self._base = len(self._frames)

    def window(self, step: int = 0) -> np.ndarray:
        """Last H frames among those observable at refinement step `step`."""
        visible = self._frames[: min(self._base + step, len(self._frames))]
        rows = visible[-self.history_len:]
        if not rows:
            return np.zeros((0, self.feature_dim), dtype=F32)
        return np.stack(rows)


def estimate_sensitivity(decoder: BatchDecoder, m_h: HistoryWindow, z0: np.ndarray,
                         h_step: float = DEFAULT_SENSITIVITY_STEP) -> SensitivityVector:
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
    return SensitivityVector((np.linalg.norm(diff, axis=1) / (2.0 * h_step)).astype(F32))


def refine_latent(z0: np.ndarray, m_h: HistoryWindow, x_dyn_window: np.ndarray,
                  s: SensitivityVector, params: FwsrParams) -> np.ndarray:
    """One refinement of the segment latent from the current dynamic context."""
    z0 = np.asarray(z0, dtype=F32).reshape(-1)
    d_z = z0.shape[0]
    if s.s.shape[0] != d_z:
        raise DimensionError("sensitivity dim does not match latent")
    x_dyn_window = np.asarray(x_dyn_window, dtype=F32).reshape(-1, m_h.dim) \
        if np.asarray(x_dyn_window).size else np.zeros((0, m_h.dim), dtype=F32)

    rows = np.vstack([m_h.frames, x_dyn_window])
    if rows.shape[1] != params.dyn_w.shape[0]:
        raise DimensionError("dynamic rows do not match the projection input")
    tokens = linear(rows, params.dyn_w, params.dyn_b)
    pos = sinusoidal_embedding(np.arange(tokens.shape[0]), tokens.shape[1])
    tokens = (tokens.astype(F64) + pos.astype(F64)).astype(F32)
    normed = layer_norm(tokens, params.dyn_attn.ln_gain, params.dyn_attn.ln_offset)
    c_dyn = tokens + mha_forward(normed, normed, params.dyn_attn)

    bias = relative_bias(1, c_dyn.shape[0], params.rel_bias)
    r = mha_forward(z0[None, :], c_dyn, params.cross_attn, bias)

    film = linear(r, params.film_w, params.film_b)[0]
    gamma, beta = film[:d_z].astype(F64), film[d_z:].astype(F64)
    d_raw = np.tanh(gamma) * z0.astype(F64) + np.tanh(beta)
    d_safe = d_raw / (1.0 + params.beta_sens * s.s.astype(F64))
    if not d_safe.any():
        return z0
    return (z0.astype(F64) + d_safe).astype(F32)


class SegmentRefiner:
    """Resumable per-frame refinement of one sampled segment.

    Starts from the segment latent z0, the history it was sampled on and the
    initial segment's frame 0. Each step(f, window) refines z0 from the
    rolling history and the dynamic window, decodes frame f alone against the
    first updated history (the refinement asymmetry) and returns it; the
    rolling history then slides by that frame. Runs no denoiser step.
    """

    def __init__(self, z0: np.ndarray, m_h: HistoryWindow, first_frame: np.ndarray,
                 s: SensitivityVector, params: FwsrParams, decoder: FrameDecoder):
        self.z0 = z0
        self.s = s
        self.params = params
        self.decoder = decoder
        self.history = m_h.slide(first_frame)
        self._decode_history = self.history

    def step(self, f: int, window: np.ndarray) -> np.ndarray:
        z_ref = refine_latent(self.z0, self.history, window, self.s, self.params)
        frame = self.decoder(self._decode_history, z_ref, f)
        self.history = self.history.slide(frame)
        return frame


def seeded_fwsr_params(rng: Rng, feature_dim: int, latent_dim: int,
                       heads: int = 4, beta_sens: float = 1.0,
                       zero_film: bool = True) -> FwsrParams:
    """Seeded refinement weights; the FiLM head starts at zero unless asked otherwise."""

    def u(name, shape):
        return seeded_init(shape, "uniform-fan", rng.child("fwsr", name))

    def zeros(shape):
        return np.zeros(shape, dtype=F32)

    def attn(name, q_in):
        sub = rng.child("fwsr", name)
        return AttentionParams(
            heads=heads, width=latent_dim,
            w_q=seeded_init((q_in, latent_dim), "uniform-fan", sub.child("wq")),
            w_k=seeded_init((latent_dim, latent_dim), "uniform-fan", sub.child("wk")),
            w_v=seeded_init((latent_dim, latent_dim), "uniform-fan", sub.child("wv")),
            w_o=seeded_init((latent_dim, latent_dim), "uniform-fan", sub.child("wo")),
            ln_gain=np.ones(latent_dim, dtype=F32), ln_offset=zeros(latent_dim))

    film_w = zeros((latent_dim, 2 * latent_dim)) if zero_film \
        else u("film.w", (latent_dim, 2 * latent_dim))
    return FwsrParams(
        dyn_w=u("dyn.w", (feature_dim, latent_dim)), dyn_b=zeros(latent_dim),
        dyn_attn=attn("dyn", latent_dim),
        cross_attn=attn("cross", latent_dim),
        rel_bias=RelBiasParams(omega=0.25, w_b=u("relb", (2, heads))),
        film_w=film_w, film_b=zeros(2 * latent_dim),
        beta_sens=beta_sens)
