"""Minimal deterministic dense kernels shared by all higher modules.

Storage is float32 row-major; reductions accumulate in float64. Everything
here is a pure function of its inputs, so values can be shared freely.
"""
from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from functools import cached_property
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
    if not np.isfinite(x).all():
        raise NumericError(f"non-finite values in {what}")
    return x


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with float64 accumulation, float32 result.

    Leading axes broadcast as in np.matmul, so a (L, in, out) stack of
    weights maps (T, in) or (L, T, in) inputs block by block.
    """
    try:
        return (np.asarray(a, dtype=F64) @ np.asarray(b, dtype=F64)).astype(F32)
    except ValueError as exc:
        raise DimensionError(f"cannot multiply shapes {np.shape(a)} and {np.shape(b)}") from exc


def linear(x: np.ndarray, w: np.ndarray, b: Optional[np.ndarray] = None) -> np.ndarray:
    """Affine map x @ w + b. Weight is (in_dim, out_dim), or (L, in_dim, out_dim)
    for L stacked blocks with the bias stored as (L, 1, out_dim); the bias
    broadcasts to the shape of x @ w."""
    y = matmul(x, w)
    if b is not None:
        # In place and in float32 for a float32 bias: one binary64 add rounded
        # to binary32 is the correctly rounded float32 sum, so this is the
        # float64 add-then-round bit for bit.
        try:
            y += b
        except ValueError as exc:
            raise DimensionError(
                f"bias shape {np.shape(b)} does not fit output {y.shape}") from exc
    return y


def layer_norm(x: np.ndarray, gain: np.ndarray, offset: np.ndarray,
               eps: float = LAYER_NORM_EPS) -> np.ndarray:
    """Per-row layer normalization with a variance floor of eps.

    gain and offset of L stacked blocks are (L, 1, width); they broadcast a
    (T, width) input to (L, T, width).
    """
    z = np.asarray(x, dtype=F64)
    n = z.shape[-1]
    # The reductions of z.mean and z.var, in their order, with the centred
    # rows computed once.
    d = z - z.sum(axis=-1, keepdims=True) / n
    var = (d * d).sum(axis=-1, keepdims=True) / n
    d /= np.sqrt(var + eps)
    try:
        out = d * gain
        out += offset
        return out.astype(F32)
    except ValueError as exc:
        raise DimensionError(f"norm parameters {np.shape(gain)}/{np.shape(offset)} do not "
                             f"fit input {z.shape}") from exc


def gelu(x: np.ndarray) -> np.ndarray:
    z = np.asarray(x, dtype=F64)
    # z * z * z, not z ** 3: numpy's float64 pow loop is ~40x slower on small
    # tiles, and for float32 inputs the product is the correctly rounded cube.
    y = 0.5 * z * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (z + 0.044715 * (z * z * z))))
    return y.astype(F32)


def gelu_slope(x: np.ndarray) -> np.ndarray:
    """Derivative of gelu at x, in float64."""
    z = np.asarray(x, dtype=F64)
    c = np.sqrt(2.0 / np.pi)
    t = np.tanh(c * (z + 0.044715 * (z * z * z)))
    return 0.5 * (1.0 + t) + 0.5 * z * (1.0 - t * t) * c * (1.0 + 3.0 * 0.044715 * (z * z))


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
    whichever block wraps the attention and are applied by the caller. The
    projections of L stacked blocks are (L, in, width), their norm gain and
    offset (L, 1, width).
    """

    heads: int
    width: int
    w_q: np.ndarray  # (q_in, width) or (L, q_in, width)
    w_k: np.ndarray  # (kv_in, width) or (L, kv_in, width)
    w_v: np.ndarray  # (kv_in, width) or (L, kv_in, width)
    w_o: np.ndarray  # (width, width) or (L, width, width)
    ln_gain: np.ndarray
    ln_offset: np.ndarray

    def __post_init__(self):
        if self.width % self.heads != 0:
            raise DimensionError(
                f"width {self.width} not divisible by heads {self.heads}")
        for name in ("w_q", "w_k", "w_v", "w_o"):
            w = getattr(self, name)
            if w.ndim not in (2, 3) or w.shape[-1] != self.width \
                    or w.shape[:-2] != self.w_q.shape[:-2]:
                raise DimensionError(f"{name} shape {w.shape} inconsistent with width "
                                     f"{self.width} and w_q {self.w_q.shape}")

    @cached_property
    def w_qkv(self) -> np.ndarray:
        """w_q, w_k and w_v side by side, (in, 3 * width) or (L, in, 3 * width):
        the one weight of mha_forward's self-attention projection.

        Built on the first self-attention call and kept as long as these params
        are, unless fuse_qkv made w_q, w_k and w_v views of it.
        """
        if not self.w_q.shape[:-1] == self.w_k.shape[:-1] == self.w_v.shape[:-1]:
            raise DimensionError(f"self-attention needs one input width for w_q, w_k and "
                                 f"w_v, not {self.w_q.shape}/{self.w_k.shape}/"
                                 f"{self.w_v.shape}")
        return np.concatenate([self.w_q, self.w_k, self.w_v], axis=-1)


def fuse_qkv(p: AttentionParams) -> AttentionParams:
    """p with w_q, w_k and w_v as views of its w_qkv, which is then the only copy."""
    qkv = p.w_qkv
    w = p.width
    fused = dataclasses.replace(p, w_q=qkv[..., :w], w_k=qkv[..., w:2 * w],
                                w_v=qkv[..., 2 * w:])
    # Seeds the cached property, as the first self-attention call would.
    object.__setattr__(fused, "w_qkv", qkv)
    return fused


def _split_heads(x: np.ndarray, w: np.ndarray, p: AttentionParams) -> np.ndarray:
    """x @ w in float64, split into heads: (..., T, n, heads, width // heads)
    for w with n * width columns."""
    try:
        y = x.astype(F64) @ w.astype(F64)
    except ValueError as exc:
        raise DimensionError(f"attention input {x.shape} does not fit projection "
                             f"{w.shape}") from exc
    return y.reshape(*y.shape[:-1], -1, p.heads, p.width // p.heads)


def attention_kv(kv_in: np.ndarray, p: AttentionParams) -> tuple:
    """The key and value projections of mha_forward, as a pair it takes in place of kv_in.

    kv_in is (T_kv, kv_in_width) or (batch, T_kv, kv_in_width); k and v are
    float64 (..., T_kv, heads, width // heads), with a leading L axis when
    the projections are stacked. Projecting a fixed context once and passing
    the pair to every later call gives the same bits as passing the tokens.
    """
    kv_in = np.asarray(kv_in)
    if kv_in.ndim not in (2, 3):
        raise DimensionError("attention key/value input must be (tokens, width) or "
                             "(batch, tokens, width)")
    if kv_in.shape[-1] != p.w_k.shape[-2]:
        raise DimensionError(f"attention key/value width {kv_in.shape[-1]} does not match "
                             f"projection {p.w_k.shape[-2]}")
    require_finite(kv_in, "attention key/value input")
    return _split_heads(kv_in, p.w_k, p)[..., 0, :, :], \
        _split_heads(kv_in, p.w_v, p)[..., 0, :, :]


def mha_forward(q_in: np.ndarray, kv_in, p: AttentionParams,
                bias: Optional[np.ndarray] = None) -> np.ndarray:
    """Multi-head attention softmax(QK^T/sqrt(dh) + bias) V, projected by W_O.

    Inputs are (tokens, width), or (batch, tokens, width) with one batch size
    for both; row b of a batched call equals the 2-D call on q_in[b], kv_in[b]
    bit for bit. kv_in may also be the (k, v) pair attention_kv returns for
    it. Stacked (L, in, width) projections run L blocks at once: a 2-D input
    is shared by all of them, a batched one gives block l row l, and block l
    of the (L, T_q, width) result equals the 2-D call with block l's weights
    bit for bit. bias, when given, is (heads, T_q, T_kv), shared by the whole
    batch, or one such bias per batch row or block; it adds to the
    pre-softmax logits of each head. No normalization is applied here.

    Self-attention, kv_in the very array q_in, projects Q, K and V with one
    product against p.w_qkv; the result equals that of separate projections
    (kv_in a copy of q_in) bit for bit.
    """
    self_attention = kv_in is q_in
    q_in = np.asarray(q_in)
    if not self_attention and not isinstance(kv_in, tuple):
        kv_in = np.asarray(kv_in)
        if kv_in.ndim != q_in.ndim or q_in.shape[:-2] != kv_in.shape[:-2]:
            raise DimensionError("attention inputs must share one batch size")
    if q_in.ndim not in (2, 3):
        raise DimensionError("attention inputs must be (tokens, width) or "
                             "(batch, tokens, width)")
    if q_in.shape[-1] != p.w_q.shape[-2]:
        raise DimensionError(f"attention query width {q_in.shape[-1]} does not match "
                             f"projection {p.w_q.shape[-2]}")
    if self_attention:
        require_finite(q_in, "attention input")
        qkv = _split_heads(q_in, p.w_qkv, p)   # views of one float64 product
        q, k, v = qkv[..., 0, :, :], qkv[..., 1, :, :], qkv[..., 2, :, :]
    else:
        k, v = kv_in if isinstance(kv_in, tuple) else attention_kv(kv_in, p)
        require_finite(q_in, "attention query input")
        q = _split_heads(q_in, p.w_q, p)[..., 0, :, :]

    # The whole kernel is one reduction chain; keep it in float64 and round once.
    lead, t_q = q.shape[:-3], q.shape[-3]
    if k.shape != v.shape or k.ndim != q.ndim or k.shape[:-3] != lead \
            or k.shape[-2:] != q.shape[-2:]:
        raise DimensionError(f"keys/values {k.shape}/{v.shape} do not fit queries {q.shape}")
    t_kv = k.shape[-3]
    if bias is not None:
        bias = np.asarray(bias)
        if bias.shape[-3:] != (p.heads, t_q, t_kv) or bias.shape[:-3] not in ((), lead):
            raise DimensionError(
                f"bias shape {bias.shape} does not match (heads, T_q, T_kv) = "
                f"({p.heads}, {t_q}, {t_kv})")

    # (..., heads, T_q, T_kv); the softmax runs in place on the logits
    logits = np.einsum("...qhd,...khd->...hqk", q, k)
    logits /= np.sqrt(p.width // p.heads)
    if bias is not None:
        logits += bias
    logits -= logits.max(axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    mixed = np.einsum("...hqk,...khd->...qhd", logits, v).reshape(*lead, t_q, p.width)
    return (mixed @ p.w_o.astype(F64)).astype(F32)


@dataclass(frozen=True)
class RelBiasParams:
    """Sinusoidal relative-index bias: b(dt) = [sin(omega*dt), cos(omega*dt)] @ w_b."""

    omega: float = 0.25
    w_b: np.ndarray = None  # (2, heads), or (L, 2, heads) for L stacked blocks

    def __post_init__(self):
        if self.omega <= 0:
            raise DimensionError("omega must be positive")
        if self.w_b is None or self.w_b.ndim not in (2, 3) or self.w_b.shape[-2] != 2:
            raise DimensionError("w_b must be a (2, heads) map or a stack of them")


def relative_bias(t_q: int, t_kv: int, p: RelBiasParams) -> np.ndarray:
    """Per-head bias (heads, T_q, T_kv), or (L, heads, T_q, T_kv) for a stacked w_b;
    entry (i, j) depends only on i - j."""
    if t_q < 1 or t_kv < 1:
        raise DimensionError("bias needs at least one query and one key")
    dt = np.arange(t_q, dtype=F64)[:, None] - np.arange(t_kv, dtype=F64)[None, :]
    feats = np.stack([np.sin(p.omega * dt), np.cos(p.omega * dt)], axis=-1)  # (T_q, T_kv, 2)
    w_b = np.asarray(p.w_b, dtype=F64)
    per_head = feats @ w_b[..., None, :, :]  # (..., T_q, T_kv, heads)
    return np.moveaxis(per_head, -1, -3).astype(F32)


@dataclass(frozen=True)
class FfnParams:
    """Two-layer feed-forward block with its pre-norm parameters.

    L stacked blocks hold (L, in, out) weights and (L, 1, out) biases.
    """

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
