"""Evaluation metrics over plain arrays: embedding-space Frechet distance and
diversity, kinematic peak jerk, and the per-frame collision rate.

Embeddings are (N, E) float64 arrays from a fixed seeded random projection of
motion windows, so the suite runs without any pretrained evaluator. Joint
positions are (T, J, 3).
"""
from __future__ import annotations

import functools
from typing import Optional

import numpy as np

from .errors import ConfigError, DimensionError, InsufficientFramesError, NumericError
from .scene import VoxelGrid, query_points
from .tensorcore import F64, Rng, require_finite

EMBED_DIM = 16
EMBED_WINDOW = 8
# Sets up to this many vectors score every pair; larger ones draw SAMPLED_PAIRS.
ALL_PAIRS_LIMIT = 512
SAMPLED_PAIRS = 300
# A frame collides when an ego joint lies within this distance of a partner joint.
COLLISION_RADIUS = 0.05


@functools.cache
def _projection(in_dim: int) -> np.ndarray:
    gen = Rng(7).generator("embedder", in_dim, EMBED_DIM)
    return gen.standard_normal((in_dim, EMBED_DIM)) / np.sqrt(in_dim)


def embed_windows(frames: np.ndarray) -> np.ndarray:
    """(N, EMBED_DIM) unit embeddings of a (T, D) clip, one per consecutive
    EMBED_WINDOW-frame window; a shorter clip is padded with its last frame.

    Each window is standardized per channel, flattened and projected.
    """
    f = np.asarray(frames, dtype=F64)
    if f.ndim != 2 or f.shape[0] < 1:
        raise DimensionError("motion clip must be (T, D)")
    if f.shape[0] < EMBED_WINDOW:
        f = np.vstack([f, np.tile(f[-1:], (EMBED_WINDOW - f.shape[0], 1))])
    out = []
    for start in range(0, f.shape[0] - EMBED_WINDOW + 1, EMBED_WINDOW):
        w = f[start:start + EMBED_WINDOW]
        w = (w - w.mean(axis=0)) / np.maximum(w.std(axis=0), 1e-6)
        v = w.reshape(-1) @ _projection(w.size)
        norm = np.linalg.norm(v)
        out.append(v / norm if norm > 0 else v)
    return require_finite(np.stack(out), "embeddings")


def _psd_sqrt_trace(a: np.ndarray, b: np.ndarray) -> float:
    """Tr((a b)^(1/2)) via the symmetric form (a^(1/2) b a^(1/2))^(1/2)."""
    wa, va = np.linalg.eigh(a)
    wa = np.clip(wa, 0.0, None)
    root_a = (va * np.sqrt(wa)) @ va.T
    inner = root_a @ b @ root_a
    inner = (inner + inner.T) / 2.0
    w = np.linalg.eigh(inner)[0]
    if np.min(w) < -1e-6 * max(1.0, float(np.max(np.abs(w)))):
        raise NumericError("product covariance is not PSD after symmetrization")
    return float(np.sum(np.sqrt(np.clip(w, 0.0, None))))


def frechet_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frechet distance between Gaussians fit to two (N >= 2, E) sets.

    ||mu_a - mu_b||^2 + Tr(C_a + C_b - 2 (C_a C_b)^(1/2)) with sample
    covariances (ddof=1), clamped at 0: rounding can take two equal sets a
    little below it.
    """
    moments = []
    for v in (a, b):
        v = np.asarray(v, dtype=F64)
        if v.ndim != 2 or v.shape[0] < 2:
            raise DimensionError("Frechet distance needs (N >= 2, E) embeddings")
        c = np.atleast_2d(np.cov(v, rowvar=False))
        moments.append((v.mean(axis=0), (c + c.T) / 2.0))
    (mu_a, c_a), (mu_b, c_b) = moments
    if mu_a.shape != mu_b.shape:
        raise DimensionError("embedding widths differ")
    diff = float(np.sum((mu_a - mu_b) ** 2))
    trace = float(np.trace(c_a) + np.trace(c_b)) - 2.0 * _psd_sqrt_trace(c_a, c_b)
    return max(diff + trace, 0.0)


def diversity(v: np.ndarray) -> float:
    """Mean distance between the vectors of an (N >= 2, E) set: over every
    pair up to ALL_PAIRS_LIMIT vectors, else over SAMPLED_PAIRS seeded draws."""
    v = np.asarray(v, dtype=F64)
    if v.ndim != 2 or v.shape[0] < 2:
        raise DimensionError("diversity needs (N >= 2, E) embeddings")
    n = v.shape[0]
    if n <= ALL_PAIRS_LIMIT:
        dist = np.linalg.norm(v[:, None, :] - v[None, :, :], axis=-1)
        return float(dist[np.triu_indices(n, k=1)].mean())
    gen = Rng(0).generator("diversity", n, SAMPLED_PAIRS)
    total = 0.0
    for _ in range(SAMPLED_PAIRS):
        i, j = gen.choice(n, size=2, replace=False)
        total += float(np.linalg.norm(v[i] - v[j]))
    return total / SAMPLED_PAIRS


def peak_jerk(joint_positions: np.ndarray, fps: float) -> float:
    """Maximum third-difference magnitude of any joint, scaled by fps^3 (m/s^3)."""
    p = np.asarray(joint_positions, dtype=F64)
    if p.ndim != 3 or p.shape[2] != 3:
        raise DimensionError("joint positions must be (T, J, 3)")
    if p.shape[0] < 4:
        raise InsufficientFramesError("peak jerk needs at least 4 frames")
    third = np.diff(p, n=3, axis=0) * fps ** 3
    return float(np.max(np.linalg.norm(third, axis=-1)))


def collision_pct(ego_joints: np.ndarray, grid: Optional[VoxelGrid] = None,
                  partner_joints: Optional[np.ndarray] = None) -> float:
    """Percentage of frames in which an ego joint lies in an occupied cell of
    `grid` or within COLLISION_RADIUS of a partner joint of the same frame.
    The grid checks all T ego frames, the partner the first min(T, T_p), those
    both hold; the share is of all T with a grid, else of min(T, T_p)."""
    ego = np.asarray(ego_joints, dtype=F64)
    if ego.ndim != 3 or ego.shape[2] != 3:
        raise DimensionError("ego joints must be (T, J, 3)")
    if grid is None and partner_joints is None:
        raise ConfigError("need a scene grid, partner joints, or both")
    t = ego.shape[0]
    collide = np.zeros(t, dtype=bool)
    if grid is not None:
        occupied = query_points(grid, ego.reshape(-1, 3)).reshape(t, ego.shape[1])
        collide |= np.any(occupied, axis=1)
    if partner_joints is not None:
        partner = np.asarray(partner_joints, dtype=F64)
        if partner.ndim != 3 or partner.shape[0] < 1 or partner.shape[2] != 3:
            raise DimensionError("partner joints must be (T_p >= 1, J_p, 3)")
        n = min(t, partner.shape[0])
        d = np.linalg.norm(ego[:n, :, None, :] - partner[:n, None, :, :], axis=-1)
        collide[:n] |= d.min(axis=(1, 2)) <= COLLISION_RADIUS
        if grid is None:
            collide = collide[:n]
    return 100.0 * float(np.mean(collide))
