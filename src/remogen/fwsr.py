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

where s is the decoder sensitivity, a float32 (d_z,) array: per latent
dimension, the norm of the decoder's response to z0 at the segment's history
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
pieces one tick at a time; refine_latent is the one refinement step. Each
step reads the engine's ego history and its partner window (the last
history_len partner frames) as they stand on that tick. The engine passes
it FwsrParams.float64_weights, the params with each matrix swapped for its
read-only float64 twin by one tensorcore.map_leaves walk (0.47 MB at the
default sizes); refine_latent gives the same bits with either.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError
from .motion import HistoryWindow
from .tensorcore import (
    F32,
    F64,
    AttentionParams,
    RelBiasParams,
    Rng,
    attention_kv,
    fuse_qkv,
    layer_norm,
    linear,
    map_leaves,
    mha_forward,
    relative_bias,
    seeded_init,
    sinusoidal_embedding,
    twin_matrix,
)


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
    beta_sens: float

    def __post_init__(self):
        if self.beta_sens < 0:
            raise DimensionError("suppression strength must be non-negative")

    @cached_property
    def float64_weights(self) -> "FwsrParams":
        """These params with each matrix a read-only float64 twin (twin_matrix):
        dyn_w, both attentions' projections, the relative bias map and film_w,
        the operands refine_latent's products cast them to; refine_latent
        gives the same bits with either.

        Built on first use and kept as long as these params are.
        """
        twins = map_leaves(twin_matrix, self, "fwsr")
        # The dynamic context is self-attention: keep only its fused projection.
        twins.dyn_attn.w_qkv.flags.writeable = False
        return dataclasses.replace(twins, dyn_attn=fuse_qkv(twins.dyn_attn))

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


def refine_latent(z0: np.ndarray, m_h: HistoryWindow, x_dyn_window: np.ndarray,
                  s: np.ndarray, params: FwsrParams) -> np.ndarray:
    """One refinement of the segment latent from the current dynamic context.

    s is the (d_z,) float32 decoder sensitivity (prior.decoder_sensitivity).
    """
    z0 = np.asarray(z0, dtype=F32).reshape(-1)
    d_z = z0.shape[0]
    if np.shape(s) != (d_z,):
        raise DimensionError(f"sensitivity of shape {np.shape(s)} does not match "
                             f"the ({d_z},) latent")
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

    kv = attention_kv(c_dyn, params.cross_attn)
    r = mha_forward(z0[None, :], kv, params.cross_attn, bias)

    film = linear(r, params.film_w, params.film_b)[0]
    gamma, beta = film[:d_z].astype(F64), film[d_z:].astype(F64)
    d_raw = np.tanh(gamma) * z0.astype(F64) + np.tanh(beta)
    d_safe = d_raw / (1.0 + params.beta_sens * s.astype(F64))
    if not d_safe.any():
        return z0
    return (z0.astype(F64) + d_safe).astype(F32)


def seeded_fwsr_params(rng: Rng, feature_dim: int, latent_dim: int, heads: int,
                       beta_sens: float, zero_film: bool) -> FwsrParams:
    """Seeded refinement weights; zero_film starts the FiLM head at zero."""

    def u(name, shape):
        return seeded_init(shape, rng.child("fwsr", name))

    def zeros(shape):
        return np.zeros(shape, dtype=F32)

    def attn(name, q_in):
        sub = rng.child("fwsr", name)
        return AttentionParams(
            heads=heads, width=latent_dim,
            w_q=seeded_init((q_in, latent_dim), sub.child("wq")),
            w_k=seeded_init((latent_dim, latent_dim), sub.child("wk")),
            w_v=seeded_init((latent_dim, latent_dim), sub.child("wv")),
            w_o=seeded_init((latent_dim, latent_dim), sub.child("wo")),
            ln_gain=np.ones(latent_dim, dtype=F32), ln_offset=zeros(latent_dim))

    film_w = zeros((latent_dim, 2 * latent_dim)) if zero_film \
        else u("film.w", (latent_dim, 2 * latent_dim))
    return FwsrParams(
        dyn_w=u("dyn.w", (feature_dim, latent_dim)), dyn_b=zeros(latent_dim),
        dyn_attn=attn("dyn", latent_dim),
        cross_attn=attn("cross", latent_dim),
        rel_bias=RelBiasParams(u("relb", (2, heads))),
        film_w=film_w, film_b=zeros(2 * latent_dim),
        beta_sens=beta_sens)
