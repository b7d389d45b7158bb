"""The denoiser's token embedding as one per-step formula.

The engine once embedded every token row on every DDPM step, adding the
positions in float64: [time, text, history x H, latent] per row, rounded to
float32 once. It now embeds the text and history rows once per segment
(prior.segment_tokens) and only the latent row per step, with cached time
and position rows (prior.denoiser_tokens). The old formula lives here as the
reference those two halves are held to bit for bit.
"""
import numpy as np

from remogen.prior import embed_text
from remogen.tensorcore import matmul, sinusoidal_embedding

F32 = np.float32
F64 = np.float64


def linear_f64(x, w, b):
    """x @ w + b with the bias added in float64 and the sum rounded once."""
    return (matmul(x, w).astype(F64) + b.astype(F64)).astype(F32)


def reference_tokens(params, z_t, t, m_h, text):
    """(2, H+3, width) tokens of step t, every row embedded here: the row
    conditioned on text, then the null row."""
    den = params.denoiser
    time_tok = linear_f64(sinusoidal_embedding([float(t)], params.width),
                          den.time_w, den.time_b)
    hist_tok = linear_f64(m_h.frames, den.hist_w, den.hist_b)
    latent_tok = linear_f64(np.asarray(z_t, dtype=F32)[None, :], den.latent_w, den.latent_b)
    v = embed_text(text, params.text_dim)
    text_tok = den.null_token[None, :] if v is None \
        else linear_f64(v[None, :], den.text_w, den.text_b)
    tokens = np.stack([np.vstack([time_tok, tok, hist_tok, latent_tok])
                       for tok in (text_tok, den.null_token[None, :])])
    positions = sinusoidal_embedding(np.arange(tokens.shape[1]), params.width)
    return (tokens.astype(F64) + positions.astype(F64)).astype(F32)
