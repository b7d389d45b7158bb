"""Meta-Interaction adapters: context encoders, modulation blocks, composition.

A module encodes one context source (other agents or the scene) into a
float32 (T_c, d_c) token array, then per injection layer runs a block over
the denoiser's embedded tokens:

    h'    = h + SelfAttn(LN(h))
    r     = CrossAttn(LN(h'), c) with a sinusoidal relative-index bias
    gamma, beta = FiLM head applied per token of r
    h_mod = (1 + tanh gamma) * h' + tanh beta
    h_ffn = h_mod + FFN(LN(h_mod))
    delta = gate * (h_ffn - h)

All L injection blocks of a module see the same tokens h, so module_deltas
runs them as one (L, T, width) pass over weights stacked along a leading L
axis by one tensorcore.map_leaves walk (MimParams.stacked, built on first
use and kept with the params; its self-attention uses one fused QKV). The
work that depends only on the context - the cross-attention key/value
projection and the relative bias - is done by prepare_context, which the
engine calls once per segment and not once per denoising step. hhi and hsi
are not stacked with each other: their contexts differ in length. Each
layer's residual equals its block run alone bit for bit.

The gate is a per-channel vector, zero at init, so a fresh module leaves the
frozen prior bit-identical. A module's residuals stay one float32 (L, T,
width) array from module_deltas through compose_deltas to the engine, which
hands its rows to the denoiser by injection layer. Multiple modules compose
by weighted sum with one L2 clamp over the whole stack that keeps the fused
residual no larger than the strongest individual branch.

Precision is set by layer family. Every weight product of a module - the TCN
encoder, the scene patch embedding and self-attention, the context's
key/value projection and each block's attention projections, FiLM head and
FFN - is a float32 BLAS product (acc=F32 in tensorcore): a module pass
streams its float32 weights as they are stored, without a float64 copy per
call. The attention core, layer norm, GELU, the FiLM modulation and the gated
residual stay in float64, as do compose_deltas and flat_norm. The frozen
prior and the refiner keep float64 products throughout.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Union

import numpy as np

from .errors import ConfigError, DimensionError
from .scene import EGO_DIMS, EgoVoxelBlock
from .tensorcore import (
    F32,
    F64,
    AttentionParams,
    FfnParams,
    RelBiasParams,
    Rng,
    attention_kv,
    ffn_forward,
    fuse_qkv,
    layer_norm,
    linear,
    map_leaves,
    matmul,
    mha_forward,
    relative_bias,
    seeded_init,
    sinusoidal_embedding,
)

SCENE_PATCH = 8
SCENE_TOKENS = (EGO_DIMS // SCENE_PATCH) ** 3  # 64
CLAMP_EPS = 1e-6  # keeps the clamp scale finite when the composed residual is zero
TCN_LAYERS = 3   # gated causal convolutions in the partner encoder
TCN_KERNEL = 3   # taps per convolution


@dataclass(frozen=True)
class TcnLayerParams:
    """One causal gated convolution: tanh(filter) * sigmoid(gate), kernel along time."""

    w_filter: np.ndarray  # (kernel, c_in, c_out)
    b_filter: np.ndarray
    w_gate: np.ndarray
    b_gate: np.ndarray


@dataclass(frozen=True)
class TcnParams:
    layers: tuple


@dataclass(frozen=True)
class SceneEncoderParams:
    patch_w: np.ndarray  # (patch_volume, d_c)
    patch_b: np.ndarray
    attn: AttentionParams


@dataclass(frozen=True)
class MimBlockParams:
    """One injection block, or L blocks stacked: weights (L, in, out), vectors (L, 1, d)."""

    self_attn: AttentionParams
    cross_attn: AttentionParams
    rel_bias: RelBiasParams
    film_w: np.ndarray  # (d, 2d)
    film_b: np.ndarray
    ffn: FfnParams
    gate: np.ndarray  # (d,) per-channel output gate


@dataclass(frozen=True)
class MimParams:
    """One Meta-Interaction module: its encoder and one block per injection layer."""

    module_id: str
    source: str
    encoder: Union[TcnParams, SceneEncoderParams]
    blocks: dict  # injection layer index -> MimBlockParams

    @cached_property
    def stacked(self) -> MimBlockParams:
        """The blocks in ascending layer order, stacked along a leading L axis.

        Built on first use and kept as long as these params are; a copy of
        the block weights: one map_leaves walk over the first block stacks
        each weight with the other blocks' weights of its path, vectors as
        (L, 1, n). The self-attention's w_q, w_k and w_v are views of its
        fused (L, width, 3 * width) projection, the only copy of them.
        """
        first, *rest = (self.blocks[idx] for idx in sorted(self.blocks))
        others = [{} for _ in rest]   # path -> leaf of each later block
        for block, leaves in zip(rest, others):
            if (block.self_attn.heads, block.cross_attn.heads) != \
                    (first.self_attn.heads, first.cross_attn.heads):
                raise ConfigError("blocks differ in their heads; they cannot run stacked")
            map_leaves(leaves.setdefault, block, "")

        def stack(path, leaf):
            out = np.stack([leaf] + [leaves[path] for leaves in others])
            return out[:, None, :] if leaf.ndim == 1 else out

        stacked = map_leaves(stack, first, "")
        return dataclasses.replace(stacked, self_attn=fuse_qkv(stacked.self_attn))


@dataclass(frozen=True)
class PreparedContext:
    """Context tokens as one block or block stack needs them for T ego tokens:
    the projected cross-attention key/value pair and the relative bias."""

    kv: tuple  # attention_kv of the tokens
    bias: np.ndarray  # (heads, T, T_c), or (L, heads, T, T_c) for stacked blocks


def flat_norm(stack: np.ndarray) -> float:
    """The L2 norm of a residual stack over all its layers jointly, in float64."""
    # One (T, width) slab at a time: a single sum over the stack adds in
    # another order and changes the last bits of the clamp scale.
    total = 0.0
    for arr in stack:
        total += float(np.sum(arr.astype(F64) ** 2))
    return float(np.sqrt(total))


def _causal_conv_gated(x: np.ndarray, layer: TcnLayerParams) -> np.ndarray:
    """Left-padded temporal convolution with gated activation; output (T, c_out)."""
    kernel = layer.w_filter.shape[0]
    t, c_in = x.shape
    padded = np.vstack([np.zeros((kernel - 1, c_in), dtype=F32), x])
    filt = np.zeros((t, layer.w_filter.shape[2]), dtype=F64)
    gate = np.zeros_like(filt)
    for k in range(kernel):
        window = padded[k:k + t]
        filt += matmul(window, layer.w_filter[k], acc=F32).astype(F64)
        gate += matmul(window, layer.w_gate[k], acc=F32).astype(F64)
    filt += layer.b_filter.astype(F64)
    gate += layer.b_gate.astype(F64)
    return (np.tanh(filt) * (1.0 / (1.0 + np.exp(-gate)))).astype(F32)


def encode_others(partner_frames: np.ndarray, params: TcnParams) -> np.ndarray:
    """Causal TCN over a window of partner pose features: one float32 token per
    frame, (T, d_c)."""
    x = np.asarray(partner_frames, dtype=F32)
    if x.ndim != 2 or x.shape[0] < 1:
        raise DimensionError("partner window must be (T >= 1, D)")
    if x.shape[1] != params.layers[0].w_filter.shape[1]:
        raise DimensionError(f"partner feature dim {x.shape[1]} does not match encoder "
                             f"input {params.layers[0].w_filter.shape[1]}")
    for layer in params.layers:
        x = _causal_conv_gated(x, layer)
    return x


def encode_scene(block: EgoVoxelBlock, params: SceneEncoderParams) -> np.ndarray:
    """Patch tokens (4x4x4 patches of 8^3 cells) plus one self-attention layer:
    (64, d_c) float32 tokens."""
    occ = block.occupancy
    n = EGO_DIMS // SCENE_PATCH
    patches = occ.reshape(n, SCENE_PATCH, n, SCENE_PATCH, n, SCENE_PATCH)
    patches = patches.transpose(0, 2, 4, 1, 3, 5).reshape(n ** 3, SCENE_PATCH ** 3)
    if params.patch_w.shape[0] != SCENE_PATCH ** 3:
        raise DimensionError("patch embedding does not match patch volume")
    tokens = linear(patches.astype(F32), params.patch_w, params.patch_b, acc=F32)
    pos = sinusoidal_embedding(np.arange(tokens.shape[0]), tokens.shape[1])
    tokens = (tokens.astype(F64) + pos.astype(F64)).astype(F32)
    normed = layer_norm(tokens, params.attn.ln_gain, params.attn.ln_offset)
    return tokens + mha_forward(normed, normed, params.attn, acc=F32)


def prepare_context(tokens: np.ndarray, params: MimBlockParams, t: int) -> PreparedContext:
    """The context-only work of a block chain, done once for any number of steps.

    tokens is an encoder's (T_c, d_c) output; params is one block or a stack
    of blocks (a module's MimParams.stacked); t is the number of ego tokens
    the blocks will see.
    """
    return PreparedContext(attention_kv(tokens, params.cross_attn, acc=F32),
                           relative_bias(t, tokens.shape[0], params.rel_bias))


def mim_block_forward(h: np.ndarray, c: PreparedContext,
                      params: MimBlockParams) -> np.ndarray:
    """Injection residuals of one block (T, d), or of L stacked blocks (L, T, d).

    See the module docstring for the chain. c is the prepare_context result
    for these params and T = len(h).
    """
    h = np.asarray(h, dtype=F32)
    if h.ndim != 2:
        raise DimensionError("ego features must be (T, d)")
    d = h.shape[1]
    if params.self_attn.width != d:
        raise DimensionError(f"block width {params.self_attn.width} != feature dim {d}")
    normed = layer_norm(h, params.self_attn.ln_gain, params.self_attn.ln_offset)
    h_prime = h + mha_forward(normed, normed, params.self_attn, acc=F32)

    q = layer_norm(h_prime, params.cross_attn.ln_gain, params.cross_attn.ln_offset)
    r = mha_forward(q, c.kv, params.cross_attn, c.bias, acc=F32)

    film = linear(r, params.film_w, params.film_b, acc=F32)
    gamma, beta = film[..., :d], film[..., d:]
    h_mod = ((1.0 + np.tanh(gamma.astype(F64))) * h_prime.astype(F64)
             + np.tanh(beta.astype(F64))).astype(F32)
    h_ffn = h_mod + ffn_forward(layer_norm(h_mod, params.ffn.ln_gain, params.ffn.ln_offset),
                                params.ffn, acc=F32)
    return ((h_ffn.astype(F64) - h.astype(F64)) * params.gate.astype(F64)).astype(F32)


def module_deltas(h: np.ndarray, c: PreparedContext, params: MimParams) -> np.ndarray:
    """Every injection-layer residual of a module in one stacked pass over h:
    (L, T, width) float32, row k for the k-th of sorted(params.blocks).

    c is prepare_context(tokens, params.stacked, len(h)).
    """
    return mim_block_forward(h, c, params.stacked)


def compose_deltas(deltas: Sequence[np.ndarray], weights: Sequence[float]) -> np.ndarray:
    """Weighted sum of module residual stacks with the per-sample L2 clamp.

    deltas are (L, T, width) stacks of one shape, weights[k] the weight of
    deltas[k]. The clamp scale is s = min(1, m / (||total|| + CLAMP_EPS))
    with m the largest unweighted module norm, both taken over all layers
    jointly (flat_norm). A single module with weight exactly 1 passes
    through bit-identically, as a copy.
    """
    if len(deltas) == 1 and weights[0] == 1.0:
        return deltas[0].copy()
    total = np.zeros(deltas[0].shape, dtype=F64)
    for d, a in zip(deltas, weights):
        total += a * d.astype(F64)
    m = max(flat_norm(d) for d in deltas)
    s = min(1.0, m / (flat_norm(total) + CLAMP_EPS))
    return (s * total).astype(F32)


def seeded_mim_params(module_id: str, source: str, rng: Rng, feature_dim: int,
                      width: int, heads: int, ffn_hidden: int,
                      injection_layers: Sequence[int]) -> MimParams:
    """Seeded module weights; the output gate starts at zero."""
    if source not in ("others", "scene"):
        raise ConfigError("module source must be 'others' or 'scene'")

    def u(name, shape):
        return seeded_init(shape, rng.child(module_id, name))

    def zeros(shape):
        return np.zeros(shape, dtype=F32)

    if source == "others":
        layers = []
        c_in = feature_dim
        for i in range(TCN_LAYERS):
            layers.append(TcnLayerParams(
                w_filter=u(f"tcn{i}.wf", (TCN_KERNEL, c_in, width)),
                b_filter=zeros(width),
                w_gate=u(f"tcn{i}.wg", (TCN_KERNEL, c_in, width)),
                b_gate=zeros(width)))
            c_in = width
        encoder: Union[TcnParams, SceneEncoderParams] = TcnParams(tuple(layers))
    else:
        encoder = SceneEncoderParams(
            patch_w=u("patch.w", (SCENE_PATCH ** 3, width)), patch_b=zeros(width),
            attn=_seeded_attention(rng.child(module_id, "scene.attn"), width, width, heads))

    blocks = {}
    for idx in injection_layers:
        sub = rng.child(module_id, f"block{idx}")
        blocks[int(idx)] = MimBlockParams(
            self_attn=_seeded_attention(sub.child("self"), width, width, heads),
            cross_attn=_seeded_attention(sub.child("cross"), width, width, heads),
            rel_bias=RelBiasParams(seeded_init((2, heads), sub.child("relb"))),
            film_w=seeded_init((width, 2 * width), sub.child("film")),
            film_b=zeros(2 * width),
            ffn=FfnParams(seeded_init((width, ffn_hidden), sub.child("ffn1")),
                          zeros(ffn_hidden),
                          seeded_init((ffn_hidden, width), sub.child("ffn2")),
                          zeros(width),
                          ln_gain=np.ones(width, dtype=F32), ln_offset=zeros(width)),
            gate=zeros(width))
    return MimParams(module_id=module_id, source=source, encoder=encoder, blocks=blocks)


def _seeded_attention(rng: Rng, q_in: int, width: int, heads: int) -> AttentionParams:
    return AttentionParams(
        heads=heads, width=width,
        w_q=seeded_init((q_in, width), rng.child("wq")),
        w_k=seeded_init((width, width), rng.child("wk")),
        w_v=seeded_init((width, width), rng.child("wv")),
        w_o=seeded_init((width, width), rng.child("wo")),
        ln_gain=np.ones(width, dtype=F32),
        ln_offset=np.zeros(width, dtype=F32))
