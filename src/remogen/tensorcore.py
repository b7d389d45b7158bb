"""Minimal deterministic dense kernels shared by all higher modules.

Storage is float32 row-major; reductions accumulate in float64. Everything
here is a pure function of its inputs, so values can be shared freely.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionError, NumericError

F32 = np.float32
F64 = np.float64

LAYER_NORM_EPS = 1e-5
RNG_ALGORITHM = "philox4x64/v1"
# An Rng with this algorithm draws nothing: seeded_init returns zero-stride
# placeholders, so a seeded parameter builder yields a shape-only template.
SHAPE_ONLY = "shape-only"


def require_finite(x: np.ndarray, what: str = "input") -> np.ndarray:
    if not np.all(np.isfinite(x)):
        raise NumericError(f"non-finite values in {what}")
    return x


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with float64 accumulation, float32 result."""
    return (np.asarray(a, dtype=F64) @ np.asarray(b, dtype=F64)).astype(F32)


def linear(x: np.ndarray, w: np.ndarray, b: Optional[np.ndarray] = None) -> np.ndarray:
    """Affine map x @ w + b. Weight is (in_dim, out_dim)."""
    y = matmul(x, w)
    if b is not None:
        y = (y.astype(F64) + np.asarray(b, dtype=F64)).astype(F32)
    return y


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Shift-stable softmax, float64 internally."""
    z = np.asarray(x, dtype=F64)
    z = z - np.max(z, axis=axis, keepdims=True)
    e = np.exp(z)
    return (e / np.sum(e, axis=axis, keepdims=True)).astype(F32)


def layer_norm(x: np.ndarray, gain: np.ndarray, offset: np.ndarray,
               eps: float = LAYER_NORM_EPS) -> np.ndarray:
    """Per-row layer normalization with a variance floor of eps."""
    z = np.asarray(x, dtype=F64)
    mean = z.mean(axis=-1, keepdims=True)
    var = z.var(axis=-1, keepdims=True)
    out = (z - mean) / np.sqrt(var + eps)
    return (out * np.asarray(gain, dtype=F64) + np.asarray(offset, dtype=F64)).astype(F32)


def gelu(x: np.ndarray) -> np.ndarray:
    z = np.asarray(x, dtype=F64)
    # z * z * z, not z ** 3: numpy's float64 pow loop is ~40x slower on small
    # tiles, and for float32 inputs the product is the correctly rounded cube.
    y = 0.5 * z * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (z + 0.044715 * (z * z * z))))
    return y.astype(F32)


def _label_hash(labels: Sequence) -> int:
    text = "/".join(str(v) for v in labels)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


@dataclass(frozen=True)
class Rng:
    """Counter-based keyed generator; same seed gives the same stream everywhere."""

    seed: int
    algorithm: str = RNG_ALGORITHM

    def generator(self, *labels) -> np.random.Generator:
        """Independent stream keyed by (seed, labels)."""
        key = [np.uint64(self.seed & 0xFFFFFFFFFFFFFFFF), np.uint64(_label_hash(labels))]
        return np.random.Generator(np.random.Philox(key=key))

    def child(self, *labels) -> "Rng":
        """Derived Rng with a seed mixed from the labels."""
        mixed = (self.seed * 0x9E3779B97F4A7C15 + _label_hash(labels)) & 0xFFFFFFFFFFFFFFFF
        return Rng(mixed, self.algorithm)


def seeded_init(shape: Sequence[int], scheme: str, rng: Rng) -> np.ndarray:
    """Deterministic tensor init. Schemes: "uniform-fan" (Glorot-style), "zeros".

    A SHAPE_ONLY rng makes "uniform-fan" return a read-only zero-stride
    placeholder of the shape instead of drawing.
    """
    shape = tuple(int(s) for s in shape)
    if any(s < 1 for s in shape):
        raise DimensionError(f"invalid init shape {shape}")
    if scheme == "zeros":
        return np.zeros(shape, dtype=F32)
    if scheme == "uniform-fan":
        if rng.algorithm == SHAPE_ONLY:
            return np.broadcast_to(np.zeros((), dtype=F32), shape)
        fan_in = shape[0] if len(shape) > 1 else shape[0]
        fan_out = shape[-1]
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        gen = rng.generator("init", scheme, *shape)
        return gen.uniform(-bound, bound, size=shape).astype(F32)
    raise DimensionError(f"unknown init scheme {scheme!r}")


@dataclass(frozen=True)
class AttentionParams:
    """Multi-head projection weights plus the pre-attention norm parameters.

    mha_forward consumes only the projections; the norm gain/offset belong to
    whichever block wraps the attention and are applied by the caller.
    """

    heads: int
    width: int
    w_q: np.ndarray  # (q_in, width)
    w_k: np.ndarray  # (kv_in, width)
    w_v: np.ndarray  # (kv_in, width)
    w_o: np.ndarray  # (width, width)
    ln_gain: np.ndarray
    ln_offset: np.ndarray

    def __post_init__(self):
        if self.width % self.heads != 0:
            raise DimensionError(
                f"width {self.width} not divisible by heads {self.heads}")
        for name in ("w_q", "w_k", "w_v", "w_o"):
            w = getattr(self, name)
            if w.ndim != 2 or w.shape[1] != self.width:
                raise DimensionError(f"{name} shape {w.shape} inconsistent with width {self.width}")


def mha_forward(q_in: np.ndarray, kv_in: np.ndarray, p: AttentionParams,
                bias: Optional[np.ndarray] = None) -> np.ndarray:
    """Multi-head attention softmax(QK^T/sqrt(dh) + bias) V, projected by W_O.

    Inputs are (tokens, width), or (batch, tokens, width) with one batch size
    for both; row b of a batched call equals the 2-D call on q_in[b], kv_in[b]
    bit for bit. bias, when given, is (heads, T_q, T_kv), adds to the
    pre-softmax logits of each head and is shared by the whole batch. No
    normalization is applied here.
    """
    q_in = np.asarray(q_in)
    kv_in = np.asarray(kv_in)
    if q_in.ndim not in (2, 3) or kv_in.ndim != q_in.ndim \
            or q_in.shape[:-2] != kv_in.shape[:-2]:
        raise DimensionError("attention inputs must be (tokens, width) or "
                             "(batch, tokens, width) with one batch size")
    if q_in.shape[-1] != p.w_q.shape[0] or kv_in.shape[-1] != p.w_k.shape[0]:
        raise DimensionError(
            f"attention input widths {q_in.shape[-1]}/{kv_in.shape[-1]} do not match "
            f"projections {p.w_q.shape[0]}/{p.w_k.shape[0]}")
    require_finite(q_in, "attention query input")
    require_finite(kv_in, "attention key/value input")
    lead = q_in.shape[:-2]
    t_q, t_kv = q_in.shape[-2], kv_in.shape[-2]
    if bias is not None:
        bias = np.asarray(bias, dtype=F64)
        if bias.shape != (p.heads, t_q, t_kv):
            raise DimensionError(
                f"bias shape {bias.shape} does not match (heads, T_q, T_kv) = "
                f"({p.heads}, {t_q}, {t_kv})")

    # The whole kernel is one reduction chain; keep it in float64 and round once.
    dh = p.width // p.heads
    q = (q_in.astype(F64) @ p.w_q.astype(F64)).reshape(*lead, t_q, p.heads, dh)
    k = (kv_in.astype(F64) @ p.w_k.astype(F64)).reshape(*lead, t_kv, p.heads, dh)
    v = (kv_in.astype(F64) @ p.w_v.astype(F64)).reshape(*lead, t_kv, p.heads, dh)

    # (..., heads, T_q, T_kv)
    logits = np.einsum("...qhd,...khd->...hqk", q, k) / np.sqrt(dh)
    if bias is not None:
        logits = logits + bias
    logits = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(logits)
    weights = e / np.sum(e, axis=-1, keepdims=True)
    mixed = np.einsum("...hqk,...khd->...qhd", weights, v).reshape(*lead, t_q, p.width)
    return (mixed @ p.w_o.astype(F64)).astype(F32)


@dataclass(frozen=True)
class RelBiasParams:
    """Sinusoidal relative-index bias: b(dt) = [sin(omega*dt), cos(omega*dt)] @ w_b."""

    omega: float = 0.25
    w_b: np.ndarray = None  # (2, heads)

    def __post_init__(self):
        if self.omega <= 0:
            raise DimensionError("omega must be positive")
        if self.w_b is None or self.w_b.ndim != 2 or self.w_b.shape[0] != 2:
            raise DimensionError("w_b must be a (2, heads) map")


def relative_bias(t_q: int, t_kv: int, p: RelBiasParams) -> np.ndarray:
    """Per-head bias (heads, T_q, T_kv); entry (i, j) depends only on i - j."""
    if t_q < 1 or t_kv < 1:
        raise DimensionError("bias needs at least one query and one key")
    dt = np.arange(t_q, dtype=F64)[:, None] - np.arange(t_kv, dtype=F64)[None, :]
    feats = np.stack([np.sin(p.omega * dt), np.cos(p.omega * dt)], axis=-1)  # (T_q, T_kv, 2)
    per_head = feats @ np.asarray(p.w_b, dtype=F64)  # (T_q, T_kv, heads)
    return np.transpose(per_head, (2, 0, 1)).astype(F32)


@dataclass(frozen=True)
class FfnParams:
    """Two-layer feed-forward block with its pre-norm parameters."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    ln_gain: np.ndarray
    ln_offset: np.ndarray


def ffn_forward(x: np.ndarray, p: FfnParams) -> np.ndarray:
    """GELU feed-forward over the (already normalized) input."""
    return linear(gelu(linear(x, p.w1, p.b1)), p.w2, p.b2)


def sinusoidal_embedding(positions, dim: int) -> np.ndarray:
    """Interleaved sin/cos features of scalar positions; shape (len(positions), dim)."""
    pos = np.atleast_1d(np.asarray(positions, dtype=F64))
    half = (dim + 1) // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half, dtype=F64) / max(half, 1))
    ang = pos[:, None] * freqs[None, :]
    out = np.zeros((pos.shape[0], dim), dtype=F64)
    out[:, 0::2] = np.sin(ang)[:, : out[:, 0::2].shape[1]]
    out[:, 1::2] = np.cos(ang)[:, : out[:, 1::2].shape[1]]
    return out.astype(F32)
