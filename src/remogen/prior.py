"""The frozen text-conditioned single-person prior, inference only.

A decoder-only segment VAE (history + latent to F future frames) paired with
a latent denoiser sampled by a short DDPM chain under classifier-free
guidance; the chain's posterior coefficients are one table cached per step
count. The segment-autoregressive rollout that slides the (H, D) float32
history after each generated segment is driven by the runtime engine.

The decoder's first layer is split into its history rows and its latent
rows. project_history multiplies an (H, D) history by the history rows once,
into (1, vae_hidden) float64 rows, and the decoder and the sensitivity probe
take those rows: each decode or probe against them multiplies only its
latents by the d_z latent rows.

The decoder and the probe multiply PriorParams.decoder, vae_dec with W1, W2
and W3 swapped for read-only float64 twins by one tensorcore.map_leaves walk
(6.3 MB at the default sizes), and the probe reads W3 W3^T (decoder_gram,
0.5 MB); both are built on first use. A twin is the operand a float64 product
casts its float32 weight to, so the products keep their bits. The denoiser
gets no twin.

Parameters are plain frozen dataclasses of arrays; nothing here mutates them,
which is what keeps the prior structurally frozen. Archives from older
versions also hold the VAE encoder's tensors; they load, and nothing reads
them.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, DimensionError
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
    map_leaves,
    mha_forward,
    seeded_init,
    sinusoidal_embedding,
    twin_matrix,
)

def embed_text(text: str, dim: int) -> Optional[np.ndarray]:
    """Hash-bag embedding: case/whitespace normalized tokens, signed buckets,
    unit norm; a float32 (dim,) vector, or None when the text has no tokens."""
    tokens = text.lower().split()
    if not tokens:
        return None
    v = np.zeros(dim, dtype=F64)
    for tok in tokens:
        digest = hashlib.blake2b(tok.encode("utf-8"), digest_size=8).digest()
        h = int.from_bytes(digest, "little")
        sign = 1.0 if (h >> 63) & 1 == 0 else -1.0
        v[h % dim] += sign
    norm = np.linalg.norm(v)
    if norm > 0:
        v = v / norm
    return v.astype(F32)


@dataclass(frozen=True)
class MlpParams:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray


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
    denoiser: DenoiserParams

    @property
    def n_blocks(self) -> int:
        return len(self.denoiser.blocks)

    @property
    def n_tokens(self) -> int:
        """Length of the denoiser's token sequence: time, text, history, latent."""
        return self.history_len + 3

    @cached_property
    def decoder(self) -> MlpParams:
        """vae_dec with W1 (history rows, then the d_z latent rows), W2 and W3
        read-only float64 twins (twin_matrix); the biases stay the float32
        archive tensors. Built on first use, kept as long as these params are."""
        return map_leaves(twin_matrix, self.vae_dec, "prior.vae_dec")

    @cached_property
    def decoder_gram(self) -> np.ndarray:
        """W3 W3^T of the decoder's last layer, (vae_hidden, vae_hidden) float64,
        read-only.

        Built on the first sensitivity probe and kept as long as these params
        are.
        """
        w3 = self.decoder.w3
        gram = w3 @ w3.T
        gram.flags.writeable = False
        return gram

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


def seeded_prior_params(rng: Rng, feature_dim: int, history_len: int, future_len: int,
                        latent_dim: int, text_dim: int, width: int, heads: int,
                        n_blocks: int, ffn_hidden: int, vae_hidden: int) -> PriorParams:
    """Prior weights from a seed; every tensor gets its own derived stream."""
    d = feature_dim

    def u(name, shape):
        return seeded_init(shape, rng.child(name))

    def z(shape):
        return np.zeros(shape, dtype=F32)

    dec_in = history_len * d + latent_dim
    vae_dec = MlpParams(u("dec.w1", (dec_in, vae_hidden)), z(vae_hidden),
                        u("dec.w2", (vae_hidden, vae_hidden)), z(vae_hidden),
                        u("dec.w3", (vae_hidden, future_len * d)), z(future_len * d))

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
                       vae_dec=vae_dec, denoiser=denoiser)


def _check_history(m_h: np.ndarray, params: PriorParams) -> None:
    expected = (params.history_len, params.feature_dim)
    if np.shape(m_h) != expected:
        raise DimensionError(f"history of shape {np.shape(m_h)} does not match "
                             f"the prior's {expected}")


def project_history(m_h: np.ndarray, params: PriorParams) -> np.ndarray:
    """Project an (H, D) history through the decoder's history rows of W1.

    The rows flat(m_h) @ W1[:H*D], (1, vae_hidden) float64 and unrounded, are
    the part of layer 1 that no latent changes: every decode and probe
    against the history multiplies only its latents by W1's d_z latent rows.
    """
    _check_history(m_h, params)
    w1_h = params.decoder.w1[:-params.latent_dim]
    return np.asarray(m_h, dtype=F32).reshape(1, -1).astype(F64) @ w1_h


def _first_layer(history: np.ndarray, zs: np.ndarray, params: PriorParams) -> np.ndarray:
    """The decoder's first affine layer for N latents that share one projected
    history, (N, vae_hidden) float32, before its GELU: the history rows plus
    each latent's product with W1's latent rows, summed in float64, rounded
    once, then b1 added."""
    p = params.vae_dec
    if history.shape != (1, p.w1.shape[1]):
        raise DimensionError(f"history projection is {history.shape}, "
                             f"expected (1, {p.w1.shape[1]})")
    zs = np.asarray(zs, dtype=F32)
    if zs.ndim != 2 or zs.shape[1] != params.latent_dim:
        raise DimensionError(f"latent batch has shape {zs.shape}, "
                             f"expected (N, {params.latent_dim})")
    a1 = (history + zs.astype(F64) @ params.decoder.w1[-params.latent_dim:]).astype(F32)
    a1 += p.b1
    return a1


def decode_segment(m_h: np.ndarray, z: np.ndarray, params: PriorParams,
                   frames: slice = slice(None)) -> np.ndarray:
    """VAE decoder: a projected history (project_history) plus clean
    latent to the future segment's (n, D) float32 frames in the contiguous
    range `frames` (all F by default)."""
    z = np.asarray(z, dtype=F32).reshape(1, -1)
    return decode_batch(m_h, z, params, frames)[0]


def decode_batch(m_h: np.ndarray, zs: np.ndarray, params: PriorParams,
                 frames: slice = slice(None)) -> np.ndarray:
    """VAE decoder over N latents that share one projected history;
    (N, n, D).

    `frames` is a contiguous, non-empty range of the F future frames, n long.
    The last layer computes only that range's columns, and frame f of a
    one-frame range equals frame f of the full decode bit for bit. Row n is
    decode_segment(m_h, zs[n]) bit for bit.
    """
    f_len, d = params.future_len, params.feature_dim
    start = 0 if frames.start is None else frames.start
    stop = f_len if frames.stop is None else frames.stop
    if frames.step not in (None, 1) or not 0 <= start < stop <= f_len:
        raise DimensionError(f"frame range {frames} is not a non-empty contiguous "
                             f"range of the {f_len} future frames")
    h = gelu(_first_layer(m_h, zs, params))
    dec = params.decoder
    h = gelu(linear(h, dec.w2, dec.b2))
    cols = slice(start * d, stop * d)
    out = linear(h, dec.w3[:, cols], dec.b3[cols])
    return out.reshape(h.shape[0], stop - start, d)


def decoder_sensitivity(m_h: np.ndarray, z0: np.ndarray,
                        params: PriorParams) -> np.ndarray:
    """Exact decoder response per latent dimension at (m_h, z0), float32 (d_z,);
    m_h is a projected history (project_history).

    s_d is the norm of d(decoded segment)/d(z0_d) over all F x D outputs.
    One forward row gives the GELU slopes g1, g2 at the two hidden layers, so
    the Jacobian is B @ W3 with B = ((W1_z * g1) @ W2) * g2, (d_z, hidden),
    and s_d = sqrt(B_d G B_d^T) with G = W3 W3^T (PriorParams.decoder_gram):
    the wide last layer is never multiplied.
    """
    a1 = _first_layer(m_h, np.asarray(z0, dtype=F32).reshape(1, -1), params)
    dec = params.decoder
    a2 = linear(gelu(a1), dec.w2, dec.b2)
    w1_z = dec.w1[-params.latent_dim:]
    b = ((w1_z * gelu_slope(a1)) @ dec.w2) * gelu_slope(a2)
    sq = np.einsum("dh,dh->d", b @ params.decoder_gram, b)
    # G is positive semi-definite; rounding may leave a zero row at -0.0 or -tiny.
    return np.sqrt(np.maximum(sq, 0.0)).astype(F32)


def segment_tokens(params: PriorParams, m_h: np.ndarray, text: str) -> np.ndarray:
    """The token rows of a segment that no DDPM step changes, (2, H+3, width).

    Row 0 is conditioned on text, row 1 is the null row of classifier-free
    guidance; a text with no tokens conditions row 0 on the null token too.
    Each row holds its text token and the H history tokens, each with its
    position added, in the layout denoiser_tokens completes: [time, text,
    history x H, latent]. The time and latent rows are left zero.
    """
    den = params.denoiser
    _check_history(m_h, params)
    pos = params.token_positions
    hist_tok = linear(np.asarray(m_h, dtype=F32), den.hist_w, den.hist_b)
    # float32 adds: one binary64 add rounded to binary32 gives the same bits.
    hist_tok += pos[2:-1]
    v = embed_text(text, params.text_dim)
    text_tok = den.null_token if v is None else linear(v[None, :], den.text_w, den.text_b)[0]
    prefix = np.zeros((2, params.n_tokens, params.width), dtype=F32)
    prefix[0, 1] = text_tok + pos[1]
    prefix[1, 1] = den.null_token + pos[1]
    prefix[:, 2:-1] = hist_tok
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


def predict_clean_latent(params: PriorParams, tokens: np.ndarray,
                         residuals: Optional[dict] = None) -> np.ndarray:
    """Denoiser blocks: (B, T, width) tokens from denoiser_tokens to (B, d_z)
    clean-latent predictions.

    Row b depends on tokens[b] alone and equals the one-row batch
    tokens[b:b+1] bit for bit. residuals, when given, maps a denoiser block
    index to a (T, width) residual that is added to every row's token
    activations after that block. An all-zero residual is skipped, so it
    leaves the output bit-identical to the bare prior.
    """
    x = tokens
    residuals = residuals or {}
    if not all(0 <= i < params.n_blocks for i in residuals):
        raise ConfigError(f"injection layers {sorted(residuals)} outside denoiser blocks "
                          f"[0, {params.n_blocks})")
    residuals = {i: row for i, row in residuals.items() if row.any()}
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


@lru_cache(maxsize=16)
def posterior_table(steps: int) -> tuple[tuple[float, float, float], ...]:
    """Per-step (coef0, coeft, sigma) of the x0-parameterized DDPM posterior.

    The noise variances rise linearly from 1e-4 to 0.2 over `steps`. Row t
    gives the posterior mean coef0 * z0 + coeft * z_t and its noise scale
    sigma = sqrt(var); sigma is 0 at t = 0. Built once per `steps`; each entry
    is the per-step scalar expression evaluated elementwise in float64, so it
    has the scalar form's bits.
    """
    if steps < 1:
        raise DimensionError(f"a DDPM chain needs at least one step, got {steps}")
    betas = np.linspace(1e-4, 0.2, steps)
    alphas = 1.0 - betas
    abar = np.cumprod(alphas)
    abar_prev = np.concatenate([[1.0], abar[:-1]])
    coef0 = np.sqrt(abar_prev) * betas / (1.0 - abar)
    coeft = np.sqrt(alphas) * (1.0 - abar_prev) / (1.0 - abar)
    sigma = np.sqrt((1.0 - abar_prev) / (1.0 - abar) * betas)
    return tuple(zip(coef0.tolist(), coeft.tolist(), sigma.tolist()))


def ddpm_sample(denoise: Callable[[np.ndarray, int], np.ndarray], latent_dim: int,
                steps: int, guidance_scale: float, gen: np.random.Generator) -> np.ndarray:
    """Sample one clean latent from pure noise.

    Runs `steps` iterations of the x0-parameterized DDPM posterior over
    posterior_table(steps). At step t, denoise(z_t, t) returns the (2, d_z)
    clean-latent predictions, the conditional row first, then the
    unconditional one; they are blended as z0_u + s * (z0_c - z0_u), and
    s == 1 short-circuits to the conditional row.
    """
    table = posterior_table(steps)
    s = guidance_scale

    z = gen.standard_normal(latent_dim, dtype=F32)
    for t in range(steps - 1, -1, -1):
        z0_cond, z0_uncond = np.asarray(denoise(z, t), dtype=F64)
        if s == 1.0:
            z0 = z0_cond
        else:
            z0 = z0_uncond + s * (z0_cond - z0_uncond)
        coef0, coeft, sigma = table[t]
        mean = coef0 * z0 + coeft * z.astype(F64)
        if t > 0:
            noise = gen.standard_normal(latent_dim, dtype=F32).astype(F64)
            z = (mean + sigma * noise).astype(F32)
        else:
            z = mean.astype(F32)
    return z
