"""The frozen text-conditioned single-person prior.

A segment VAE (decoder maps history + latent to F future frames) paired with
a latent denoiser sampled by a short DDPM chain under classifier-free
guidance. The segment-autoregressive rollout that slides the history window
after each generated segment is driven by the runtime engine.

Parameters are plain frozen dataclasses of arrays; nothing here mutates them,
which is what keeps the prior structurally frozen.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, DimensionError
from .motion import FeatureLayout, HistoryWindow, MotionSegment
from .tensorcore import (
    F32,
    F64,
    AttentionParams,
    FfnParams,
    Rng,
    ffn_forward,
    gelu,
    gelu_slope,
    layer_norm,
    linear,
    mha_forward,
    seeded_init,
    sinusoidal_embedding,
)

DEFAULT_LATENT_DIM = 64
DEFAULT_TEXT_DIM = 32
DEFAULT_WIDTH = 128
DEFAULT_HEADS = 4
DEFAULT_BLOCKS = 4
DEFAULT_FFN_HIDDEN = 256
DEFAULT_VAE_HIDDEN = 256

@dataclass(frozen=True)
class TextEmbedding:
    """Deterministic text feature; the null embedding drives the unconditional branch."""

    values: np.ndarray
    null_flag: bool = False

    def __post_init__(self):
        v = np.asarray(self.values, dtype=F32)
        if v.ndim != 1:
            raise DimensionError("text embedding must be a vector")
        object.__setattr__(self, "values", v)


def null_embedding(dim: int = DEFAULT_TEXT_DIM) -> TextEmbedding:
    return TextEmbedding(np.zeros(dim, dtype=F32), null_flag=True)


def embed_text(text: str, dim: int = DEFAULT_TEXT_DIM) -> TextEmbedding:
    """Hash-bag embedding: case/whitespace normalized tokens, signed buckets, unit norm.

    This is the deterministic reference embedder; a learned encoder can be
    swapped in anywhere a TextEmbedding is accepted.
    """
    tokens = text.lower().split()
    if not tokens:
        return null_embedding(dim)
    v = np.zeros(dim, dtype=F64)
    for tok in tokens:
        digest = hashlib.blake2b(tok.encode("utf-8"), digest_size=8).digest()
        h = int.from_bytes(digest, "little")
        sign = 1.0 if (h >> 63) & 1 == 0 else -1.0
        v[h % dim] += sign
    norm = np.linalg.norm(v)
    if norm > 0:
        v = v / norm
    return TextEmbedding(v.astype(F32), null_flag=False)


@dataclass(frozen=True)
class DiffusionSchedule:
    """Per-step noise variances and the derived cumulative signal coefficients."""

    betas: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.betas, dtype=F64)
        if b.ndim != 1 or b.shape[0] < 1:
            raise DimensionError("schedule needs at least one step")
        if np.any(b <= 0) or np.any(b >= 1) or np.any(np.diff(b) <= 0):
            raise ConfigError("noise variances must lie in (0, 1) and strictly increase")
        object.__setattr__(self, "betas", b)

    @property
    def steps(self) -> int:
        return self.betas.shape[0]

    @property
    def alphas(self) -> np.ndarray:
        return 1.0 - self.betas

    @property
    def alpha_bars(self) -> np.ndarray:
        return np.cumprod(self.alphas)

    @classmethod
    def linear(cls, steps: int = 10, beta_start: float = 1e-4,
               beta_end: float = 0.2) -> "DiffusionSchedule":
        return cls(np.linspace(beta_start, beta_end, steps))


@dataclass(frozen=True)
class MlpParams:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray


def _mlp_forward(x: np.ndarray, p: MlpParams, cols: slice = slice(None)) -> np.ndarray:
    """Three-layer GELU MLP; cols selects the output columns the last layer computes."""
    h = gelu(linear(x, p.w1, p.b1))
    h = gelu(linear(h, p.w2, p.b2))
    return linear(h, p.w3[:, cols], p.b3[cols])


@dataclass(frozen=True)
class DenoiserBlockParams:
    attn: AttentionParams
    ffn: FfnParams


@dataclass(frozen=True)
class DenoiserParams:
    time_w: np.ndarray
    time_b: np.ndarray
    text_w: np.ndarray
    text_b: np.ndarray
    null_token: np.ndarray
    hist_w: np.ndarray
    hist_b: np.ndarray
    latent_w: np.ndarray
    latent_b: np.ndarray
    blocks: tuple
    final_gain: np.ndarray
    final_offset: np.ndarray
    out_w: np.ndarray
    out_b: np.ndarray


@dataclass(frozen=True)
class PriorParams:
    """Frozen weights of the whole prior, with the dimensions they imply."""

    feature_dim: int
    history_len: int
    future_len: int
    latent_dim: int
    text_dim: int
    width: int
    vae_dec: MlpParams
    vae_enc: MlpParams
    denoiser: DenoiserParams

    @property
    def n_blocks(self) -> int:
        return len(self.denoiser.blocks)

    @property
    def n_tokens(self) -> int:
        """Length of the denoiser's token sequence: time, text, history, latent."""
        return self.history_len + 3

    @cached_property
    def decoder_gram(self) -> np.ndarray:
        """W3 W3^T of the decoder's last layer, (vae_hidden, vae_hidden) float64.

        Built on the first sensitivity probe and kept as long as these params
        are.
        """
        w3 = self.vae_dec.w3.astype(F64)
        return w3 @ w3.T

    @cached_property
    def token_positions(self) -> np.ndarray:
        """The (n_tokens, width) float32 position rows of the denoiser's tokens."""
        return sinusoidal_embedding(np.arange(self.n_tokens), self.width)

    @cached_property
    def _time_tokens(self) -> dict:
        return {}

    def time_token(self, t: int) -> np.ndarray:
        """The (1, width) time token of DDPM step t, its position added.

        Built on first use per t and kept as long as these params are. It is
        one (1, width) product per t, as the per-step embedding was: a batched
        product over all steps is not guaranteed to give one-row products'
        bits.
        """
        rows = self._time_tokens
        if t not in rows:
            den = self.denoiser
            row = linear(sinusoidal_embedding([float(t)], self.width), den.time_w, den.time_b)
            row += self.token_positions[0]
            rows[t] = row
        return rows[t]


def seeded_prior_params(rng: Rng, feature_dim: Optional[int] = None,
                        history_len: int = 2, future_len: int = 8,
                        latent_dim: int = DEFAULT_LATENT_DIM,
                        text_dim: int = DEFAULT_TEXT_DIM,
                        width: int = DEFAULT_WIDTH, heads: int = DEFAULT_HEADS,
                        n_blocks: int = DEFAULT_BLOCKS,
                        ffn_hidden: int = DEFAULT_FFN_HIDDEN,
                        vae_hidden: int = DEFAULT_VAE_HIDDEN) -> PriorParams:
    """Prior weights from a seed; every tensor gets its own derived stream."""
    d = feature_dim if feature_dim is not None else FeatureLayout().dim

    def u(name, shape):
        return seeded_init(shape, "uniform-fan", rng.child(name))

    def z(shape):
        return np.zeros(shape, dtype=F32)

    dec_in = history_len * d + latent_dim
    enc_in = history_len * d + future_len * d
    vae_dec = MlpParams(u("dec.w1", (dec_in, vae_hidden)), z(vae_hidden),
                        u("dec.w2", (vae_hidden, vae_hidden)), z(vae_hidden),
                        u("dec.w3", (vae_hidden, future_len * d)), z(future_len * d))
    vae_enc = MlpParams(u("enc.w1", (enc_in, vae_hidden)), z(vae_hidden),
                        u("enc.w2", (vae_hidden, vae_hidden)), z(vae_hidden),
                        u("enc.w3", (vae_hidden, 2 * latent_dim)), z(2 * latent_dim))

    blocks = []
    for i in range(n_blocks):
        attn = AttentionParams(
            heads=heads, width=width,
            w_q=u(f"blk{i}.wq", (width, width)), w_k=u(f"blk{i}.wk", (width, width)),
            w_v=u(f"blk{i}.wv", (width, width)), w_o=u(f"blk{i}.wo", (width, width)),
            ln_gain=np.ones(width, dtype=F32), ln_offset=z(width))
        ffn = FfnParams(u(f"blk{i}.ffn.w1", (width, ffn_hidden)), z(ffn_hidden),
                        u(f"blk{i}.ffn.w2", (ffn_hidden, width)), z(width),
                        ln_gain=np.ones(width, dtype=F32), ln_offset=z(width))
        blocks.append(DenoiserBlockParams(attn, ffn))

    denoiser = DenoiserParams(
        time_w=u("time.w", (width, width)), time_b=z(width),
        text_w=u("text.w", (text_dim, width)), text_b=z(width),
        null_token=u("null", (1, width))[0],
        hist_w=u("hist.w", (d, width)), hist_b=z(width),
        latent_w=u("latent.w", (latent_dim, width)), latent_b=z(width),
        blocks=tuple(blocks),
        final_gain=np.ones(width, dtype=F32), final_offset=z(width),
        out_w=u("out.w", (width, latent_dim)), out_b=z(latent_dim))

    return PriorParams(feature_dim=d, history_len=history_len, future_len=future_len,
                       latent_dim=latent_dim, text_dim=text_dim, width=width,
                       vae_dec=vae_dec, vae_enc=vae_enc, denoiser=denoiser)


def decode_segment(m_h: HistoryWindow, z: np.ndarray, params: PriorParams,
                   fps: float = 10.0, frames: slice = slice(None)) -> MotionSegment:
    """VAE decoder: history window plus clean latent to the future segment's
    frames in the contiguous range `frames` (all F by default)."""
    z = np.asarray(z, dtype=F32).reshape(1, -1)
    return MotionSegment(decode_batch(m_h, z, params, frames)[0], fps=fps)


def decode_batch(m_h: HistoryWindow, zs: np.ndarray, params: PriorParams,
                 frames: slice = slice(None)) -> np.ndarray:
    """VAE decoder over N latents that share one history window; (N, n, D).

    `frames` is a contiguous, non-empty range of the F future frames, n long.
    The last layer computes only that range's columns, and frame f of a
    one-frame range equals frame f of the full decode bit for bit. Row n is
    decode_segment(m_h, zs[n]) bit for bit.
    """
    x = _decoder_input(m_h, zs, params)
    f_len, d = params.future_len, params.feature_dim
    start = 0 if frames.start is None else frames.start
    stop = f_len if frames.stop is None else frames.stop
    if frames.step not in (None, 1) or not 0 <= start < stop <= f_len:
        raise DimensionError(f"frame range {frames} is not a non-empty contiguous "
                             f"range of the {f_len} future frames")
    out = _mlp_forward(x, params.vae_dec, slice(start * d, stop * d))
    return out.reshape(x.shape[0], stop - start, d)


def _decoder_input(m_h: HistoryWindow, zs: np.ndarray, params: PriorParams) -> np.ndarray:
    """The decoder's (N, H*D + d_z) input rows: the flat history, then each latent."""
    zs = np.asarray(zs, dtype=F32)
    if len(m_h) != params.history_len or m_h.dim != params.feature_dim:
        raise DimensionError("history window does not match prior dimensions")
    if zs.ndim != 2 or zs.shape[1] != params.latent_dim:
        raise DimensionError(f"latent batch has shape {zs.shape}, "
                             f"expected (N, {params.latent_dim})")
    hist = np.tile(m_h.frames.reshape(1, -1), (zs.shape[0], 1))
    return np.concatenate([hist, zs], axis=1)


def decoder_sensitivity(m_h: HistoryWindow, z0: np.ndarray,
                        params: PriorParams) -> np.ndarray:
    """Exact decoder response per latent dimension at (m_h, z0), float32 (d_z,).

    s_d is the norm of d(decoded segment)/d(z0_d) over all F x D outputs.
    One forward row gives the GELU slopes g1, g2 at the two hidden layers, so
    the Jacobian is B @ W3 with B = ((W1_z * g1) @ W2) * g2, (d_z, hidden),
    and s_d = sqrt(B_d G B_d^T) with G = W3 W3^T (PriorParams.decoder_gram):
    the wide last layer is never multiplied.
    """
    x = _decoder_input(m_h, np.asarray(z0, dtype=F32).reshape(1, -1), params)
    p = params.vae_dec
    a1 = linear(x, p.w1, p.b1)
    a2 = linear(gelu(a1), p.w2, p.b2)
    w1_z = p.w1[-params.latent_dim:].astype(F64)
    b = ((w1_z * gelu_slope(a1)) @ p.w2.astype(F64)) * gelu_slope(a2)
    sq = np.einsum("dh,dh->d", b @ params.decoder_gram, b)
    # G is positive semi-definite; rounding may leave a zero row at -0.0 or -tiny.
    return np.sqrt(np.maximum(sq, 0.0)).astype(F32)


def encode_segment(m_h: HistoryWindow, m_f: MotionSegment,
                   params: PriorParams) -> tuple[np.ndarray, np.ndarray]:
    """VAE encoder: returns (mean, log_variance), each of latent dim."""
    if len(m_f) != params.future_len or m_f.dim != params.feature_dim:
        raise DimensionError("future segment does not match prior dimensions")
    if len(m_h) != params.history_len or m_h.dim != params.feature_dim:
        raise DimensionError("history window does not match prior dimensions")
    x = np.concatenate([m_h.frames.reshape(-1), m_f.frames.reshape(-1)])[None, :]
    out = _mlp_forward(x, params.vae_enc)[0]
    return out[: params.latent_dim], out[params.latent_dim:]


def sample_latent(mean: np.ndarray, log_variance: np.ndarray,
                  noise: np.ndarray) -> np.ndarray:
    """Reparameterized draw mean + exp(log_variance / 2) * noise."""
    m = np.asarray(mean, dtype=F64)
    lv = np.asarray(log_variance, dtype=F64)
    return (m + np.exp(0.5 * lv) * np.asarray(noise, dtype=F64)).astype(F32)


def segment_tokens(params: PriorParams, m_h: HistoryWindow,
                   texts: Sequence[TextEmbedding]) -> np.ndarray:
    """The token rows of a segment that no DDPM step changes, (B, H+3, width).

    Row b holds the text token of texts[b] and the H history tokens, each with
    its position added, in the layout denoiser_tokens completes: [time, text,
    history x H, latent]. The time and latent rows are left zero.
    """
    den = params.denoiser
    if len(m_h) != params.history_len or m_h.dim != params.feature_dim:
        raise DimensionError("history window does not match prior dimensions")
    pos = params.token_positions
    hist_tok = linear(m_h.frames, den.hist_w, den.hist_b)
    # float32 adds: one binary64 add rounded to binary32 gives the same bits.
    hist_tok += pos[2:-1]
    prefix = np.zeros((len(texts), params.n_tokens, params.width), dtype=F32)
    for row, txt in zip(prefix, texts):
        if txt.null_flag:
            text_tok = den.null_token
        else:
            if txt.values.shape[0] != params.text_dim:
                raise DimensionError("text embedding dim does not match prior")
            text_tok = linear(txt.values[None, :], den.text_w, den.text_b)[0]
        row[1] = text_tok + pos[1]
        row[2:-1] = hist_tok
    return prefix


def denoiser_tokens(params: PriorParams, z_t: np.ndarray, t: int,
                    prefix: np.ndarray) -> np.ndarray:
    """Embedded token sequences [time, text, history x H, latent] of one DDPM
    step, (B, H+3, width): the segment's prefix (segment_tokens) with the
    cached time token of step t and the embedded latent z_t filled in."""
    den = params.denoiser
    latent_tok = linear(np.asarray(z_t, dtype=F32)[None, :], den.latent_w, den.latent_b)
    latent_tok += params.token_positions[-1]
    tokens = prefix.copy()
    tokens[:, 0] = params.time_token(t)
    tokens[:, -1] = latent_tok
    return tokens


def predict_clean_latent(params: PriorParams, tokens: np.ndarray, deltas=None) -> np.ndarray:
    """Denoiser blocks: (B, T, width) tokens from denoiser_tokens to (B, d_z)
    clean-latent predictions.

    Row b depends on tokens[b] alone and equals the one-row batch
    tokens[b:b+1] bit for bit. deltas, when given, is a ModulationDelta: after
    denoiser block deltas.layers[k], its (T, width) residual deltas.values[k]
    is added to every row's token activations. An all-zero residual is
    skipped, so it leaves the output bit-identical to the bare prior.
    """
    x = tokens
    residuals = {}
    if deltas is not None:
        if not all(0 <= i < params.n_blocks for i in deltas.layers):
            raise ConfigError(f"injection layers {deltas.layers} outside denoiser blocks "
                              f"[0, {params.n_blocks})")
        if deltas.values.shape[1:] != x.shape[1:]:
            raise DimensionError(f"delta residuals are {deltas.values.shape[1:]}, "
                                 f"tokens are {x.shape[1:]}")
        residuals = {i: row for i, row in zip(deltas.layers, deltas.values) if row.any()}
    for i, blk in enumerate(params.denoiser.blocks):
        normed = layer_norm(x, blk.attn.ln_gain, blk.attn.ln_offset)
        x = x + mha_forward(normed, normed, blk.attn)
        x = x + ffn_forward(layer_norm(x, blk.ffn.ln_gain, blk.ffn.ln_offset), blk.ffn)
        if i in residuals:
            x = x + residuals[i]
    final = layer_norm(x, params.denoiser.final_gain, params.denoiser.final_offset)
    # The last token of each row is projected as a (1, width) matrix: a stacked
    # (B, width) product is not bit-equal to B one-row products.
    return linear(final[:, -1:], params.denoiser.out_w, params.denoiser.out_b)[:, 0]


def ddpm_sample(denoise: Callable[[np.ndarray, int], np.ndarray], latent_dim: int,
                steps: int, guidance_scale: float, gen: np.random.Generator) -> np.ndarray:
    """Sample one clean latent from pure noise.

    Runs `steps` iterations of the x0-parameterized DDPM posterior over
    DiffusionSchedule.linear(steps). At step t, denoise(z_t, t) returns the
    (2, d_z) clean-latent predictions, the conditional row first, then the
    unconditional one; they are blended as z0_u + s * (z0_c - z0_u), and
    s == 1 short-circuits to the conditional row.
    """
    schedule = DiffusionSchedule.linear(steps)
    alphas = schedule.alphas
    alpha_bars = schedule.alpha_bars
    betas = schedule.betas
    s = guidance_scale

    z = gen.standard_normal(latent_dim, dtype=F32)
    for t in range(schedule.steps - 1, -1, -1):
        z0_cond, z0_uncond = np.asarray(denoise(z, t), dtype=F64)
        if s == 1.0:
            z0 = z0_cond
        else:
            z0 = z0_uncond + s * (z0_cond - z0_uncond)
        abar_t = alpha_bars[t]
        abar_prev = alpha_bars[t - 1] if t > 0 else 1.0
        coef0 = np.sqrt(abar_prev) * betas[t] / (1.0 - abar_t)
        coeft = np.sqrt(alphas[t]) * (1.0 - abar_prev) / (1.0 - abar_t)
        mean = coef0 * z0 + coeft * z.astype(F64)
        if t > 0:
            var = (1.0 - abar_prev) / (1.0 - abar_t) * betas[t]
            noise = gen.standard_normal(latent_dim, dtype=F32).astype(F64)
            z = (mean + np.sqrt(var) * noise).astype(F32)
        else:
            z = mean.astype(F32)
    return z


@dataclass(frozen=True)
class LossReport:
    rec: float
    latent: float


def losses(m_f_true: MotionSegment, m_f_pred: MotionSegment,
           z_true: np.ndarray, z_pred: np.ndarray) -> LossReport:
    """Mean-squared reconstruction and latent errors (pure functions, no optimizer)."""
    if m_f_true.frames.shape != m_f_pred.frames.shape:
        raise DimensionError("segment shapes differ")
    zt = np.asarray(z_true, dtype=F64)
    zp = np.asarray(z_pred, dtype=F64)
    if zt.shape != zp.shape:
        raise DimensionError("latent shapes differ")
    rec = float(np.mean((m_f_true.frames.astype(F64) - m_f_pred.frames.astype(F64)) ** 2))
    latent = float(np.mean((zt - zp) ** 2))
    return LossReport(rec=rec, latent=latent)
