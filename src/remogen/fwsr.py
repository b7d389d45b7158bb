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

where s is the decoder sensitivity vector: per latent dimension, the norm
of the decoder's response to z0 at the segment's history
(prior.decoder_sensitivity computes it exactly from the decoder Jacobian).
Only refinement reads s, so it is probed once per segment, on the first
refinement step, and the segment's first frame never waits for it. The
refined latent is re-decoded with the segment's first updated history, and
only the current frame is decoded: the decoder's last layer computes that
frame's columns alone.

That decode history is fixed for the whole segment, so it is projected
through the decoder's history rows once, on the first refinement step
(prior.project_history); each later step multiplies only the refined latent
by the decoder's latent rows. The positional rows and the relative bias of
the dynamic context depend only on its token count and are cached on the
params.

The runtime engine holds one segment's refinement state and drives these
pieces one tick at a time; refine_latent is the one refinement step.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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

    @cached_property
    def _context_rows(self) -> dict:
        return {}

    def context_rows(self, n: int) -> tuple:
        """The (n, d_z) float32 position rows and the (heads, 1, n) relative
        bias of an n-token dynamic context; they depend on n alone.

        Built on first use per n and kept as long as these params are.
        """
        rows = self._context_rows
        if n not in rows:
            rows[n] = (sinusoidal_embedding(np.arange(n), self.dyn_w.shape[1]),
                       relative_bias(1, n, self.rel_bias))
        return rows[n]


class DynamicContext:
    """Stream of observed context frames with a per-segment window cursor.

    push() appends live observations; mark_segment_start() pins the cursor so
    window(f) exposes exactly the frames observable at refinement iteration f,
    and drops the frames no window can read from then on: all but the last
    history_len before the cursor. When the stream runs dry the last available
    window is reused, which keeps mid-segment refinement total.
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
        del self._frames[:max(len(self._frames) - self.history_len, 0)]
        self._base = len(self._frames)

    def window(self, step: int = 0) -> np.ndarray:
        """Last H frames among those observable at refinement step `step`."""
        visible = self._frames[: min(self._base + step, len(self._frames))]
        rows = visible[-self.history_len:]
        if not rows:
            return np.zeros((0, self.feature_dim), dtype=F32)
        return np.stack(rows)


def refine_latent(z0: np.ndarray, m_h: HistoryWindow, x_dyn_window: np.ndarray,
                  s: SensitivityVector, params: FwsrParams) -> np.ndarray:
    """One refinement of the segment latent from the current dynamic context."""
    z0 = np.asarray(z0, dtype=F32).reshape(-1)
    d_z = z0.shape[0]
    if s.s.shape[0] != d_z:
        raise DimensionError("sensitivity dim does not match latent")
    # An empty window, of any shape, reshapes to (0, D).
    window = np.asarray(x_dyn_window, dtype=F32).reshape(-1, m_h.dim)

    rows = np.vstack([m_h.frames, window])
    if rows.shape[1] != params.dyn_w.shape[0]:
        raise DimensionError("dynamic rows do not match the projection input")
    tokens = linear(rows, params.dyn_w, params.dyn_b)
    pos, bias = params.context_rows(tokens.shape[0])
    # float32 adds: one binary64 add rounded to binary32 gives the same bits.
    tokens += pos
    normed = layer_norm(tokens, params.dyn_attn.ln_gain, params.dyn_attn.ln_offset)
    c_dyn = tokens + mha_forward(normed, normed, params.dyn_attn)

    r = mha_forward(z0[None, :], c_dyn, params.cross_attn, bias)

    film = linear(r, params.film_w, params.film_b)[0]
    gamma, beta = film[:d_z].astype(F64), film[d_z:].astype(F64)
    d_raw = np.tanh(gamma) * z0.astype(F64) + np.tanh(beta)
    d_safe = d_raw / (1.0 + params.beta_sens * s.s.astype(F64))
    if not d_safe.any():
        return z0
    return (z0.astype(F64) + d_safe).astype(F32)


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
