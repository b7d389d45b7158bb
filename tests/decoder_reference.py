"""The VAE decoder as one product over its concatenated input.

The decoder once multiplied the full (N, H*D + d_z) input, the flat history
then each latent, by W1 on every call. prior.py now splits W1 into its
history rows and its latent rows and projects a history window once
(prior.project_history), and the decoder takes that projection. The old
formula lives here as the reference the split first layer is held to bit
for bit, beside the plain-window decoder the finite-difference sensitivity
oracle probes.
"""
import numpy as np

from remogen.prior import decode_batch, project_history
from remogen.tensorcore import gelu, linear

F32 = np.float32


def reference_decode(m_h, zs, params):
    """(N, F, D) frames of N latents against one history window."""
    zs = np.asarray(zs, dtype=F32)
    x = np.concatenate([np.tile(m_h.reshape(1, -1), (zs.shape[0], 1)), zs], axis=1)
    p = params.vae_dec
    h = gelu(linear(x, p.w1, p.b1))
    h = gelu(linear(h, p.w2, p.b2))
    out = linear(h, p.w3, p.b3)
    return out.reshape(zs.shape[0], params.future_len, params.feature_dim)


def window_decoder(params):
    """decode_batch over a plain history window, projected on each call: the
    (m_h, zs) -> (N, F, D) decoder sensitivity_oracle.estimate_sensitivity
    probes."""
    return lambda m_h, zs: decode_batch(project_history(m_h, params), zs, params)
