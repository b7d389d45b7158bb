"""Evaluation suite: embedding-space metrics, kinematic smoothness, contact and
collision rates, and the latency profiling protocol.

All embedding metrics are encoder-agnostic; ReferenceEmbedder provides a
fixed seeded random projection so the suite runs without any pretrained
evaluator.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    ConfigError,
    DimensionError,
    InsufficientFramesError,
    NumericError,
)
from .prior import embed_text
from .scene import Occupancy, VoxelGrid, query_points
from .tensorcore import F64, Rng


@dataclass(frozen=True)
class EmbeddingSet:
    """N embedding vectors of equal width plus a source tag."""

    vectors: np.ndarray
    source: str = ""

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=F64)
        if v.ndim != 2 or v.shape[0] < 1:
            raise DimensionError("embedding set must be (N >= 1, E)")
        if not np.all(np.isfinite(v)):
            raise NumericError("non-finite embeddings")
        object.__setattr__(self, "vectors", v)

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def e(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True)
class GaussianStats:
    """Sample mean and covariance of an embedded feature distribution."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mean, dtype=F64)
        c = np.asarray(self.cov, dtype=F64)
        if m.ndim != 1 or c.shape != (m.shape[0], m.shape[0]):
            raise DimensionError("stats need a mean vector and matching covariance")
        if np.max(np.abs(c - c.T)) > 1e-8:
            raise NumericError("covariance is not symmetric")
        object.__setattr__(self, "mean", m)
        object.__setattr__(self, "cov", (c + c.T) / 2.0)


def gaussian_stats(emb: EmbeddingSet) -> GaussianStats:
    """Mean and sample covariance (ddof=1) of an embedding set; needs N >= 2."""
    if emb.n < 2:
        raise DimensionError("need at least 2 vectors for covariance")
    mean = emb.vectors.mean(axis=0)
    cov = np.cov(emb.vectors, rowvar=False)
    cov = np.atleast_2d(cov)
    return GaussianStats(mean, cov)


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


def frechet_gaussian(a: GaussianStats, b: GaussianStats) -> float:
    """Frechet distance between two Gaussians given their exact moments.

    ||mu_a - mu_b||^2 + Tr(cov_a + cov_b - 2 (cov_a cov_b)^(1/2)), with the
    matrix square root taken through a symmetric PSD eigendecomposition.
    """
    if a.mean.shape != b.mean.shape:
        raise DimensionError("embedding widths differ")
    diff = float(np.sum((a.mean - b.mean) ** 2))
    trace = float(np.trace(a.cov) + np.trace(b.cov)) - 2.0 * _psd_sqrt_trace(a.cov, b.cov)
    return diff + trace


def frechet_distance(a: EmbeddingSet, b: EmbeddingSet) -> float:
    """Frechet distance between the empirical distributions of two sets."""
    if a.e != b.e:
        raise DimensionError("embedding widths differ")
    return frechet_gaussian(gaussian_stats(a), gaussian_stats(b))


@dataclass(frozen=True)
class RetrievalReport:
    r_precision: dict
    r_precision_cosine: dict
    mm_dist: float
    batches: int


def retrieval_metrics(motion_emb: EmbeddingSet, text_emb: EmbeddingSet,
                      batch: int = 64, top_k: Sequence[int] = (1, 2, 3)) -> RetrievalReport:
    """Batched retrieval accuracy and paired motion-text distance.

    Paired sets are split into consecutive batches of `batch` (the partial
    final batch is dropped). Within a batch, each motion ranks all texts;
    R-Precision@k is the fraction whose own text lands in the top k. The
    primary ranking distance is Euclidean, with cosine ranking reported
    alongside. MM-Dist is the mean paired Euclidean distance over all used
    samples.
    """
    if motion_emb.n != text_emb.n or motion_emb.e != text_emb.e:
        raise DimensionError("retrieval needs paired sets of equal shape")
    if motion_emb.n < batch:
        raise ConfigError(f"need at least {batch} pairs, got {motion_emb.n}")
    n_batches = motion_emb.n // batch
    hits = {k: 0 for k in top_k}
    hits_cos = {k: 0 for k in top_k}
    paired = 0.0
    used = 0
    for bi in range(n_batches):
        lo = bi * batch
        m = motion_emb.vectors[lo:lo + batch]
        t = text_emb.vectors[lo:lo + batch]
        dist = np.linalg.norm(m[:, None, :] - t[None, :, :], axis=-1)
        m_unit = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)
        t_unit = t / np.maximum(np.linalg.norm(t, axis=1, keepdims=True), 1e-12)
        cos_dist = 1.0 - m_unit @ t_unit.T
        for i in range(batch):
            rank = int(np.sum(dist[i] < dist[i, i]))
            rank_cos = int(np.sum(cos_dist[i] < cos_dist[i, i]))
            for k in top_k:
                hits[k] += rank < k
                hits_cos[k] += rank_cos < k
            paired += float(dist[i, i])
            used += 1
    return RetrievalReport(
        r_precision={k: hits[k] / used for k in top_k},
        r_precision_cosine={k: hits_cos[k] / used for k in top_k},
        mm_dist=paired / used,
        batches=n_batches)


ALL_PAIRS_LIMIT = 512
DEFAULT_SAMPLED_PAIRS = 300


def diversity(emb: EmbeddingSet, pairs: Optional[int] = None,
              rng: Optional[Rng] = None) -> float:
    """Mean embedding distance over sampled index pairs (all pairs when small).

    With pairs=None, sets up to ALL_PAIRS_LIMIT vectors use every pair and
    larger sets fall back to DEFAULT_SAMPLED_PAIRS seeded draws.
    """
    if emb.n < 2:
        raise DimensionError("diversity needs at least 2 vectors")
    v = emb.vectors
    if pairs is None and emb.n <= ALL_PAIRS_LIMIT:
        dist = np.linalg.norm(v[:, None, :] - v[None, :, :], axis=-1)
        iu = np.triu_indices(emb.n, k=1)
        return float(dist[iu].mean())
    n_pairs = pairs if pairs is not None else DEFAULT_SAMPLED_PAIRS
    gen = (rng or Rng(0)).generator("diversity", emb.n, n_pairs)
    total = 0.0
    for _ in range(n_pairs):
        i, j = gen.choice(emb.n, size=2, replace=False)
        total += float(np.linalg.norm(v[i] - v[j]))
    return total / n_pairs


def peak_jerk(joint_positions: np.ndarray, fps: float) -> float:
    """Maximum third-difference magnitude of any joint, scaled by fps^3 (m/s^3)."""
    p = np.asarray(joint_positions, dtype=F64)
    if p.ndim != 3 or p.shape[2] != 3:
        raise DimensionError("joint positions must be (T, J, 3)")
    if p.shape[0] < 4:
        raise InsufficientFramesError("peak jerk needs at least 4 frames")
    third = np.diff(p, n=3, axis=0) * fps ** 3
    return float(np.max(np.linalg.norm(third, axis=-1)))


@dataclass(frozen=True)
class CollisionReport:
    collision_pct: float
    contact_precision: Optional[float]
    contact_recall: Optional[float]
    predicted_contacts: Optional[np.ndarray] = None


def collision_metrics(ego_joints: np.ndarray, grid: Optional[VoxelGrid] = None,
                      partner_joints: Optional[np.ndarray] = None,
                      radius: float = 0.05, contact_radius: float = 0.1,
                      reference_contacts: Optional[np.ndarray] = None) -> CollisionReport:
    """Per-frame collision percentage plus contact precision/recall.

    A frame collides when any ego joint queries an occupied scene voxel or
    lies within `radius` of any partner joint. Contacts use the looser
    `contact_radius` against the partner and are scored against the supplied
    reference labels when present.
    """
    ego = np.asarray(ego_joints, dtype=F64)
    if ego.ndim != 3 or ego.shape[2] != 3:
        raise DimensionError("ego joints must be (T, J, 3)")
    if grid is None and partner_joints is None:
        raise ConfigError("need a scene grid, partner joints, or both")
    if radius <= 0 or contact_radius <= 0:
        raise ConfigError("radii must be positive")
    t = ego.shape[0]
    collide = np.zeros(t, dtype=bool)
    contacts = None

    if grid is not None:
        states = query_points(grid, ego.reshape(-1, 3)).reshape(t, ego.shape[1])
        collide |= np.any(states == Occupancy.OCCUPIED.value, axis=1)
    if partner_joints is not None:
        partner = np.asarray(partner_joints, dtype=F64)
        if partner.ndim != 3 or partner.shape[0] != t:
            raise DimensionError("partner joints must be (T, J_p, 3) matching T")
        d = np.linalg.norm(ego[:, :, None, :] - partner[:, None, :, :], axis=-1)
        min_d = d.reshape(t, -1).min(axis=1)
        collide |= min_d <= radius
        contacts = min_d <= contact_radius

    precision = recall = None
    if contacts is not None and reference_contacts is not None:
        ref = np.asarray(reference_contacts, dtype=bool).reshape(-1)
        if ref.shape[0] != t:
            raise DimensionError("reference contacts must have one label per frame")
        tp = float(np.sum(contacts & ref))
        pred_pos = float(np.sum(contacts))
        ref_pos = float(np.sum(ref))
        precision = tp / pred_pos if pred_pos > 0 else 1.0
        recall = tp / ref_pos if ref_pos > 0 else 1.0
    return CollisionReport(collision_pct=100.0 * float(np.mean(collide)),
                           contact_precision=precision, contact_recall=recall,
                           predicted_contacts=contacts)


class LatencyRecorder:
    """Keeps the wall time of every call per named component via scoped timers.

    Scopes nest: a scope's time includes the scopes opened inside it.
    """

    def __init__(self):
        self.durations: dict = {}  # component -> seconds of each call, in call order

    @contextmanager
    def track(self, component: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.durations.setdefault(component, []).append(time.perf_counter() - start)


@dataclass(frozen=True)
class LatencyBreakdown:
    """Per-call wall times per component, with sums, counts and the per-frame mean."""

    frames: int
    total: float
    durations: dict = field(default_factory=dict)  # component -> per-call seconds

    @property
    def components(self) -> dict:
        """Total seconds per component."""
        return {name: sum(calls) for name, calls in self.durations.items()}

    @property
    def counts(self) -> dict:
        return {name: len(calls) for name, calls in self.durations.items()}

    @property
    def per_frame(self) -> float:
        return self.total / self.frames if self.frames else 0.0

    def component_per_count(self, name: str) -> float:
        calls = self.durations.get(name, ())
        return sum(calls) / len(calls) if calls else 0.0

    def component_tail(self, name: str) -> tuple:
        """(p50, p95, max) of one component's per-call seconds; zeros if never called."""
        calls = self.durations.get(name, ())
        if not calls:
            return (0.0, 0.0, 0.0)
        p50, p95 = np.percentile(calls, [50, 95])
        return (float(p50), float(p95), max(calls))


def latency_profile(run: Callable[[LatencyRecorder, int], int],
                    n_frames: int = 1000) -> LatencyBreakdown:
    """Time a generation run on the calling thread.

    `run(recorder, n_frames)` must generate n_frames frames, wrapping its
    phases in recorder.track(...) scopes, and return the frame count actually
    produced. n_frames == 0 yields an empty report without any division.
    """
    recorder = LatencyRecorder()
    if n_frames == 0:
        return LatencyBreakdown(frames=0, total=0.0)
    start = time.perf_counter()
    produced = run(recorder, n_frames)
    total = time.perf_counter() - start
    return LatencyBreakdown(frames=int(produced), total=total,
                            durations={name: tuple(calls)
                                       for name, calls in recorder.durations.items()})


class ReferenceEmbedder:
    """Fixed seeded random projection of flattened, normalized motion windows.

    Stands in for a learned motion/text encoder; every metric above only sees
    the resulting EmbeddingSet, so swapping the encoder is transparent.
    """

    def __init__(self, dim: int = 16, window: int = 8, seed: int = 7):
        self.dim = dim
        self.window = window
        self.seed = seed
        self._proj_cache: dict = {}

    def _projection(self, in_dim: int) -> np.ndarray:
        if in_dim not in self._proj_cache:
            gen = Rng(self.seed).generator("embedder", in_dim, self.dim)
            self._proj_cache[in_dim] = gen.standard_normal((in_dim, self.dim)) / np.sqrt(in_dim)
        return self._proj_cache[in_dim]

    def embed_motion(self, frames: np.ndarray) -> np.ndarray:
        """Embed one motion clip: window-crop, per-channel standardize, project."""
        f = np.asarray(frames, dtype=F64)
        if f.ndim != 2 or f.shape[0] < 1:
            raise DimensionError("motion clip must be (T, D)")
        if f.shape[0] >= self.window:
            f = f[: self.window]
        else:
            pad = np.tile(f[-1:], (self.window - f.shape[0], 1))
            f = np.vstack([f, pad])
        std = f.std(axis=0)
        f = (f - f.mean(axis=0)) / np.maximum(std, 1e-6)
        v = f.reshape(-1) @ self._projection(f.size)
        norm = np.linalg.norm(v)
        return v / norm if norm > 0 else v

    def embed_motion_set(self, clips: Sequence[np.ndarray], source: str = "") -> EmbeddingSet:
        return EmbeddingSet(np.stack([self.embed_motion(c) for c in clips]), source=source)

    def embed_text(self, text: str) -> np.ndarray:
        base = embed_text(text, dim=max(self.dim, 16)).values.astype(F64)
        v = base @ self._projection(base.shape[0])
        norm = np.linalg.norm(v)
        return v / norm if norm > 0 else v
