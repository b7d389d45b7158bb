"""Minimal deterministic dense kernels shared by all higher modules.

Storage is float32 row-major. Precision is set by layer family through the
`acc` argument of matmul, linear, ffn_forward, attention_kv and mha_forward:
with the default F64 a weight product accumulates in float64 and rounds once
to float32; with F32 it is a float32 BLAS product, float32 @ float32 ->
float32. Only the Meta-Interaction adapters (mim.py) pass F32; the prior and
the refiner keep float64. Either way the attention core (QK^T, softmax and
the mix of V), layer norm and GELU stay in float64. Everything here is a pure
function of its inputs, so values can be shared freely.

Attention has two forms: self-attention, mha_forward(x, x, p), and
cross-attention to a context projected once by attention_kv,
mha_forward(q, attention_kv(context, p), p).

Weights may be float32 or float64. A product casts each operand to acc, and
a weight already in acc is used as it is, so a float64 twin of a float32
weight (float64_twin) gives an F64 product the same bits without the cast on
every call. The decoder and the refiner keep such twins (twin_matrix); the
denoiser and the Meta-Interaction modules do not. map_leaves is the one walk
over a params tree: archive load and save, block stacking and the twins.
"""
from __future__ import annotations

import dataclasses
import hashlib
import mmap
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, DimensionError, NumericError

F32 = np.float32
F64 = np.float64

LAYER_NORM_EPS = 1e-5
REL_BIAS_OMEGA = 0.25   # angular step per token of the relative bias's sinusoid
RNG_ALGORITHM = "philox4x64/v1"
# An Rng with this algorithm draws nothing: seeded_init returns zero-stride
# placeholders, so a seeded parameter builder yields a shape-only template.
SHAPE_ONLY = "shape-only"


def require_finite(x: np.ndarray, what: str = "input") -> np.ndarray:
    if not np.isfinite(x).all():
        raise NumericError(f"non-finite values in {what}")
    return x


def _product(a: np.ndarray, b: np.ndarray, acc) -> np.ndarray:
    """a @ b with both operands cast to acc, F64 or F32; the result stays in acc."""
    if acc not in (F32, F64):
        raise ConfigError(f"accumulation dtype must be float32 or float64, not {acc!r}")
    try:
        return np.asarray(a, dtype=acc) @ np.asarray(b, dtype=acc)
    except ValueError as exc:
        raise DimensionError(f"cannot multiply shapes {np.shape(a)} and {np.shape(b)}") from exc


def float64_twin(w: np.ndarray) -> np.ndarray:
    """A read-only float64 copy of the weight w: the operand an F64 product
    casts w to, made once. _product passes it through uncast, so a product
    with the twin gives the bits of the product with w.

    The copy lives in its own private anonymous mapping, not in malloc's
    heap. A twin lives as long as its params; freed from the heap, a block
    that large leaves a hole that the small allocations made meanwhile keep
    from being returned, and the next params' twins grow the heap again. A
    mapping goes back to the system whole when the twin is freed.
    """
    w = np.asarray(w)
    nbytes = max(w.size, 1) * np.dtype(F64).itemsize   # a mapping cannot be empty
    mapping = mmap.mmap(-1, nbytes, access=mmap.ACCESS_COPY)
    twin = np.frombuffer(mapping, dtype=F64, count=w.size).reshape(w.shape)
    twin[...] = w
    twin.flags.writeable = False
    return twin


def twin_matrix(_path: str, w: np.ndarray) -> np.ndarray:
    """The map_leaves rule of the float64 twins: a matrix becomes its
    float64_twin, and a vector stays the float32 array it is."""
    return float64_twin(w) if w.ndim == 2 else w


def map_leaves(fn: Callable[[str, np.ndarray], np.ndarray], tree, path: str):
    """tree rebuilt with each array leaf replaced by fn(dotted path, leaf):
    dataclass fields as path.field, tuple items as path.index, dict items in
    sorted key order as path.key. Other values (ints, floats, strings) are
    structural and kept. Nothing cached on a dataclass carries over."""
    if isinstance(tree, np.ndarray):
        return fn(path, tree)
    if dataclasses.is_dataclass(tree):
        return type(tree)(**{f.name: map_leaves(fn, getattr(tree, f.name), f"{path}.{f.name}")
                             for f in dataclasses.fields(tree)})
    if isinstance(tree, tuple):
        return tuple(map_leaves(fn, item, f"{path}.{i}") for i, item in enumerate(tree))
    if isinstance(tree, dict):
        return {key: map_leaves(fn, tree[key], f"{path}.{key}") for key in sorted(tree)}
    return tree


def matmul(a: np.ndarray, b: np.ndarray, acc=F64) -> np.ndarray:
    """Matrix product accumulated in acc (F64 or F32), float32 result.

    Leading axes broadcast as in np.matmul, so a (L, in, out) stack of
    weights maps (T, in) or (L, T, in) inputs block by block.
    """
    return _product(a, b, acc).astype(F32, copy=False)


def linear(x: np.ndarray, w: np.ndarray, b: np.ndarray, acc=F64) -> np.ndarray:
    """Affine map x @ w + b, the product accumulated in acc. Weight is
    (in_dim, out_dim), or (L, in_dim, out_dim) for L stacked blocks with the
    bias stored as (L, 1, out_dim); the bias broadcasts to the shape of x @ w."""
    y = matmul(x, w, acc)
    # In place and in float32 for a float32 bias: one binary64 add rounded to
    # binary32 is the correctly rounded float32 sum, so this is the float64
    # add-then-round bit for bit.
    try:
        y += b
    except ValueError as exc:
        raise DimensionError(f"bias shape {np.shape(b)} does not fit output {y.shape}") from exc
    return y


def layer_norm(x: np.ndarray, gain: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """Per-row layer normalization with a variance floor of LAYER_NORM_EPS.

    gain and offset of L stacked blocks are (L, 1, width); they broadcast a
    (T, width) input to (L, T, width).
    """
    z = np.asarray(x, dtype=F64)
    n = z.shape[-1]
    # The reductions of z.mean and z.var, in their order, with the centred
    # rows computed once.
    d = z - z.sum(axis=-1, keepdims=True) / n
    var = (d * d).sum(axis=-1, keepdims=True) / n
    d /= np.sqrt(var + LAYER_NORM_EPS)
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


def seeded_init(shape: Sequence[int], rng: Rng) -> np.ndarray:
    """Deterministic Glorot-style tensor init.

    Draws from U(-b, b) with b = sqrt(6 / (fan_in + fan_out)), reading fan_in
    from the first axis and fan_out from the last: Glorot uniform for an
    (in, out) weight, and for a vector both are its length. A
    (kernel, c_in, out) convolution weight thus takes fan_in = kernel, not
    the kernel * c_in of the usual convolutional convention.

    A SHAPE_ONLY rng returns a read-only zero-stride placeholder of the shape
    instead of drawing.
    """
    shape = tuple(int(s) for s in shape)
    if any(s < 1 for s in shape):
        raise DimensionError(f"invalid init shape {shape}")
    if rng.algorithm == SHAPE_ONLY:
        return np.broadcast_to(np.zeros((), dtype=F32), shape)
    fan_in, fan_out = shape[0], shape[-1]
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    gen = rng.generator("init", "uniform-fan", *shape)
    return gen.uniform(-bound, bound, size=shape).astype(F32)


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


def _split_heads(x: np.ndarray, w: np.ndarray, p: AttentionParams, acc=F64) -> np.ndarray:
    """x @ w accumulated in acc, as float64 split into heads:
    (..., T, n, heads, width // heads) for w with n * width columns."""
    y = _product(x, w, acc).astype(F64, copy=False)
    return y.reshape(*y.shape[:-1], -1, p.heads, p.width // p.heads)


def attention_kv(kv_in: np.ndarray, p: AttentionParams, acc=F64) -> tuple:
    """The (k, v) pair that mha_forward cross-attends to.

    kv_in is (T_kv, kv_in_width) or (batch, T_kv, kv_in_width); k and v are
    float64 (..., T_kv, heads, width // heads), with a leading L axis when
    the projections are stacked, the weight products accumulated in acc. A
    fixed context is projected once and its pair passed to every later call.
    """
    kv_in = np.asarray(kv_in)
    if kv_in.ndim not in (2, 3):
        raise DimensionError("attention key/value input must be (tokens, width) or "
                             "(batch, tokens, width)")
    if kv_in.shape[-1] != p.w_k.shape[-2]:
        raise DimensionError(f"attention key/value width {kv_in.shape[-1]} does not match "
                             f"projection {p.w_k.shape[-2]}")
    require_finite(kv_in, "attention key/value input")
    return _split_heads(kv_in, p.w_k, p, acc)[..., 0, :, :], \
        _split_heads(kv_in, p.w_v, p, acc)[..., 0, :, :]


def mha_forward(q_in: np.ndarray, kv_in, p: AttentionParams,
                bias: Optional[np.ndarray] = None, acc=F64) -> np.ndarray:
    """Multi-head attention softmax(QK^T/sqrt(dh) + bias) V, projected by W_O.

    kv_in takes one of two forms:
      - q_in itself: self-attention. Q, K and V are projected with one
        product against p.w_qkv.
      - the (k, v) pair attention_kv returns: cross-attention to a context
        projected beforehand. Only Q is projected here.

    q_in is (tokens, width), or (batch, tokens, width); row b of a batched
    call equals the 2-D call on q_in[b] bit for bit. Stacked (L, in, width)
    projections run L blocks at once: a 2-D input is shared by all of them, a
    batched one gives block l row l, and block l of the (L, T_q, width)
    result equals the 2-D call with block l's weights bit for bit. bias, when
    given, is (heads, T_q, T_kv), shared by the whole batch, or one such bias
    per batch row or block; it adds to the pre-softmax logits of each head.
    No normalization is applied here.

    The weight products, the Q/K/V projections and W_O, accumulate in acc;
    an F32 projection is cast up to float64 before the core. Both
    contractions, QK^T and the softmax-weighted mix of V, are batched
    float64 BLAS products (np.matmul) on head-major views of q, k and v:
    swapping axes copies nothing, and np.matmul hands each head's
    (T_q, dh) x (dh, T_kv) and (T_q, T_kv) x (T_kv, dh) product to BLAS, where
    np.einsum would run numpy's own, several times slower, C loop.
    """
    self_attention = kv_in is q_in
    q_in = np.asarray(q_in)
    if q_in.ndim not in (2, 3):
        raise DimensionError("attention inputs must be (tokens, width) or "
                             "(batch, tokens, width)")
    if q_in.shape[-1] != p.w_q.shape[-2]:
        raise DimensionError(f"attention query width {q_in.shape[-1]} does not match "
                             f"projection {p.w_q.shape[-2]}")
    if self_attention:
        require_finite(q_in, "attention input")
        qkv = _split_heads(q_in, p.w_qkv, p, acc)   # views of one product
        q, k, v = qkv[..., 0, :, :], qkv[..., 1, :, :], qkv[..., 2, :, :]
    else:
        k, v = kv_in
        require_finite(q_in, "attention query input")
        q = _split_heads(q_in, p.w_q, p, acc)[..., 0, :, :]

    # The core is one reduction chain; keep it in float64 up to the W_O product.
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
    logits = np.swapaxes(q, -3, -2) @ np.swapaxes(np.swapaxes(k, -3, -2), -2, -1)
    logits /= np.sqrt(p.width // p.heads)
    if bias is not None:
        logits += bias
    logits -= logits.max(axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    mixed = np.swapaxes(logits @ np.swapaxes(v, -3, -2), -3, -2).reshape(*lead, t_q, p.width)
    return matmul(mixed, p.w_o, acc)


@dataclass(frozen=True)
class RelBiasParams:
    """Sinusoidal relative-index bias: b(dt) = [sin(omega*dt), cos(omega*dt)] @ w_b
    with omega = REL_BIAS_OMEGA."""

    w_b: np.ndarray  # (2, heads), or (L, 2, heads) for L stacked blocks

    def __post_init__(self):
        if self.w_b.ndim not in (2, 3) or self.w_b.shape[-2] != 2:
            raise DimensionError("w_b must be a (2, heads) map or a stack of them")


def relative_bias(t_q: int, t_kv: int, p: RelBiasParams) -> np.ndarray:
    """Per-head bias (heads, T_q, T_kv), or (L, heads, T_q, T_kv) for a stacked w_b;
    entry (i, j) depends only on i - j."""
    if t_q < 1 or t_kv < 1:
        raise DimensionError("bias needs at least one query and one key")
    dt = np.arange(t_q, dtype=F64)[:, None] - np.arange(t_kv, dtype=F64)[None, :]
    angle = REL_BIAS_OMEGA * dt
    feats = np.stack([np.sin(angle), np.cos(angle)], axis=-1)  # (T_q, T_kv, 2)
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


def ffn_forward(x: np.ndarray, p: FfnParams, acc=F64) -> np.ndarray:
    """GELU feed-forward over the (already normalized) input; both products
    accumulate in acc, the GELU in float64."""
    return linear(gelu(linear(x, p.w1, p.b1, acc)), p.w2, p.b2, acc)


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
