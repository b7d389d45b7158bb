"""The DDPM sampler's per-step posterior coefficients as scalar math.

The sampler once rebuilt its linear noise schedule on every call and derived
each step's coefficients inside the loop with numpy scalar math. It now reads
them from prior.posterior_table, built once per step count with array ops.
The old loop lives here as the reference that table, and the sampler over
it, are held to bit for bit.
"""
import numpy as np

F32 = np.float32
F64 = np.float64


def reference_coefficients(steps):
    """[(coef0, coeft, sqrt(var))] per step t, each derived on its own."""
    betas = np.linspace(1e-4, 0.2, steps)
    alphas = 1.0 - betas
    alpha_bars = np.cumprod(alphas)
    rows = []
    for t in range(steps):
        abar_t = alpha_bars[t]
        abar_prev = alpha_bars[t - 1] if t > 0 else 1.0
        coef0 = np.sqrt(abar_prev) * betas[t] / (1.0 - abar_t)
        coeft = np.sqrt(alphas[t]) * (1.0 - abar_prev) / (1.0 - abar_t)
        var = (1.0 - abar_prev) / (1.0 - abar_t) * betas[t]
        rows.append((coef0, coeft, np.sqrt(var)))
    return rows


def reference_sample(denoise, latent_dim, steps, guidance_scale, gen):
    """ddpm_sample over reference_coefficients(steps)."""
    rows = reference_coefficients(steps)
    s = guidance_scale
    z = gen.standard_normal(latent_dim, dtype=F32)
    for t in range(steps - 1, -1, -1):
        z0_cond, z0_uncond = np.asarray(denoise(z, t), dtype=F64)
        z0 = z0_cond if s == 1.0 else z0_uncond + s * (z0_cond - z0_uncond)
        coef0, coeft, sigma = rows[t]
        mean = coef0 * z0 + coeft * z.astype(F64)
        if t > 0:
            noise = gen.standard_normal(latent_dim, dtype=F32).astype(F64)
            z = (mean + sigma * noise).astype(F32)
        else:
            z = mean.astype(F32)
    return z
