"""Meta-Interaction adapters: context encoders, modulation blocks, composition.

A module encodes one context source (other agents or the scene) into tokens,
then per injection layer runs a block over the denoiser's embedded tokens:

    h'    = h + SelfAttn(LN(h))
    r     = CrossAttn(LN(h'), c) with a sinusoidal relative-index bias
    gamma, beta = FiLM head applied per token of r
    h_mod = (1 + tanh gamma) * h' + tanh beta
    h_ffn = h_mod + FFN(LN(h_mod))
    delta = gate * (h_ffn - h)

All L injection blocks of a module see the same tokens h, so module_deltas
runs them as one (L, T, width) pass over weights stacked along a leading L
axis (MimParams.stacked, built on first use and kept with the params; its
self-attention projects Q, K and V with one fused weight). The work that
depends only on the context - the cross-attention key/value projection and
the relative bias - is done by prepare_context, which the engine calls once
per segment and not once per denoising step. hhi and hsi are not stacked with
each other: their contexts differ in length. Each layer's residual equals its
block run alone bit for bit.

The gate is a per-channel vector, zero at init, so a fresh module leaves the
frozen prior bit-identical. A module's residuals stay one (L, T, width) stack
(ModulationDelta) from module_deltas through compose_deltas to the denoiser.
Multiple modules compose by weighted sum with one L2 clamp over the whole
stack that keeps the fused residual no larger than the strongest individual
branch.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Union

import numpy as np

from .errors import ConfigError, DimensionError, EmptyInputError
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
    matmul,
    mha_forward,
    relative_bias,
    seeded_init,
    sinusoidal_embedding,
)

SCENE_PATCH = 8
SCENE_TOKENS = (EGO_DIMS // SCENE_PATCH) ** 3  # 64
CLAMP_EPS = 1e-6  # keeps the clamp scale finite when the composed residual is zero


@dataclass(frozen=True)
class ContextTokens:
    """Encoded interaction cues: (T_c, d_c) tokens tagged with their source."""

    tokens: np.ndarray
    source: str = "others"

    def __post_init__(self):
        t = np.asarray(self.tokens, dtype=F32)
        if t.ndim != 2 or t.shape[0] < 1:
            raise DimensionError("context tokens must be (T_c >= 1, d_c)")
        if self.source not in ("others", "scene", "dynamic"):
            raise ConfigError(f"unknown context source {self.source!r}")
        object.__setattr__(self, "tokens", t)


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


def _stack(leaves: list):
    """Stack same-shaped parameter trees along a new leading axis; vectors become (L, 1, n)."""
    first = leaves[0]
    if isinstance(first, np.ndarray):
        out = np.stack(leaves)
        return out[:, None, :] if first.ndim == 1 else out
    if dataclasses.is_dataclass(first):
        return type(first)(**{f.name: _stack([getattr(leaf, f.name) for leaf in leaves])
                              for f in dataclasses.fields(first)})
    if any(leaf != first for leaf in leaves):
        raise ConfigError(f"blocks differ in a structural value ({leaves}); "
                          "they cannot run stacked")
    return first


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
        the block weights. The self-attention's w_q, w_k and w_v are views of
        its fused (L, width, 3 * width) projection, the only copy of them.
        """
        stack = _stack([self.blocks[idx] for idx in sorted(self.blocks)])
        return dataclasses.replace(stack, self_attn=fuse_qkv(stack.self_attn))


@dataclass(frozen=True)
class PreparedContext:
    """Context tokens as one block or block stack needs them for T ego tokens:
    the projected cross-attention key/value pair and the relative bias."""

    kv: tuple  # attention_kv of the tokens
    bias: np.ndarray  # (heads, T, T_c), or (L, heads, T, T_c) for stacked blocks


@dataclass(frozen=True)
class ModulationDelta:
    """Token residuals of one module (or a composition): values[k] is the
    (T, width) residual added after denoiser block layers[k]."""

    module_id: str
    layers: tuple  # strictly ascending injection layer indices
    values: np.ndarray  # (len(layers), T, width)

    def __post_init__(self):
        layers = tuple(int(i) for i in self.layers)
        if any(b <= a for a, b in zip(layers, layers[1:])):
            raise DimensionError(f"delta layers {layers} are not strictly ascending")
        values = np.asarray(self.values, dtype=F32)
        if values.ndim != 3 or values.shape[0] != len(layers):
            raise DimensionError(f"delta values of shape {values.shape} are not "
                                 f"({len(layers)}, T, width)")
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "values", values)

    def flat_norm(self) -> float:
        # One (T, width) slab at a time: a single sum over the stack adds in
        # another order and changes the last bits of the clamp scale.
        total = 0.0
        for arr in self.values:
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
        filt += matmul(window, layer.w_filter[k]).astype(F64)
        gate += matmul(window, layer.w_gate[k]).astype(F64)
    filt += layer.b_filter.astype(F64)
    gate += layer.b_gate.astype(F64)
    return (np.tanh(filt) * (1.0 / (1.0 + np.exp(-gate)))).astype(F32)


def encode_others(partner_frames: np.ndarray, params: TcnParams) -> ContextTokens:
    """Causal TCN over a window of partner pose features; one token per frame."""
    x = np.asarray(partner_frames, dtype=F32)
    if x.ndim != 2 or x.shape[0] < 1:
        raise DimensionError("partner window must be (T >= 1, D)")
    if x.shape[1] != params.layers[0].w_filter.shape[1]:
        raise DimensionError(f"partner feature dim {x.shape[1]} does not match encoder "
                             f"input {params.layers[0].w_filter.shape[1]}")
    for layer in params.layers:
        x = _causal_conv_gated(x, layer)
    return ContextTokens(x, source="others")


def encode_scene(block: EgoVoxelBlock, params: SceneEncoderParams) -> ContextTokens:
    """Patch tokens (4x4x4 patches of 8^3 cells) plus one self-attention layer."""
    occ = block.occupancy
    n = EGO_DIMS // SCENE_PATCH
    patches = occ.reshape(n, SCENE_PATCH, n, SCENE_PATCH, n, SCENE_PATCH)
    patches = patches.transpose(0, 2, 4, 1, 3, 5).reshape(n ** 3, SCENE_PATCH ** 3)
    if params.patch_w.shape[0] != SCENE_PATCH ** 3:
        raise DimensionError("patch embedding does not match patch volume")
    tokens = linear(patches.astype(F32), params.patch_w, params.patch_b)
    pos = sinusoidal_embedding(np.arange(tokens.shape[0]), tokens.shape[1])
    tokens = (tokens.astype(F64) + pos.astype(F64)).astype(F32)
    normed = layer_norm(tokens, params.attn.ln_gain, params.attn.ln_offset)
    tokens = tokens + mha_forward(normed, normed, params.attn)
    return ContextTokens(tokens, source="scene")


def prepare_context(c: ContextTokens, params: MimBlockParams, t: int) -> PreparedContext:
    """The context-only work of a block chain, done once for any number of steps.

    params is one block or a stack of blocks (a module's MimParams.stacked);
    t is the number of ego tokens the blocks will see.
    """
    return PreparedContext(attention_kv(c.tokens, params.cross_attn),
                           relative_bias(t, c.tokens.shape[0], params.rel_bias))


def mim_block_forward(h: np.ndarray, c: Union[ContextTokens, PreparedContext],
                      params: MimBlockParams) -> np.ndarray:
    """Injection residuals of one block (T, d), or of L stacked blocks (L, T, d).

    See the module docstring for the chain. c is the context tokens or the
    prepare_context result for these params and T = len(h).
    """
    h = np.asarray(h, dtype=F32)
    if h.ndim != 2:
        raise DimensionError("ego features must be (T, d)")
    d = h.shape[1]
    if params.self_attn.width != d:
        raise DimensionError(f"block width {params.self_attn.width} != feature dim {d}")
    if isinstance(c, ContextTokens):
        c = prepare_context(c, params, h.shape[0])

    normed = layer_norm(h, params.self_attn.ln_gain, params.self_attn.ln_offset)
    h_prime = h + mha_forward(normed, normed, params.self_attn)

    q = layer_norm(h_prime, params.cross_attn.ln_gain, params.cross_attn.ln_offset)
    r = mha_forward(q, c.kv, params.cross_attn, c.bias)

    film = linear(r, params.film_w, params.film_b)
    gamma, beta = film[..., :d], film[..., d:]
    h_mod = ((1.0 + np.tanh(gamma.astype(F64))) * h_prime.astype(F64)
             + np.tanh(beta.astype(F64))).astype(F32)
    h_ffn = h_mod + ffn_forward(layer_norm(h_mod, params.ffn.ln_gain, params.ffn.ln_offset),
                                params.ffn)
    return ((h_ffn.astype(F64) - h.astype(F64)) * params.gate.astype(F64)).astype(F32)


def module_deltas(h: np.ndarray, c: Union[ContextTokens, PreparedContext],
                  params: MimParams) -> ModulationDelta:
    """Every injection-layer residual of a module in one stacked pass over h.

    c is the context tokens or prepare_context(c, params.stacked, len(h)).
    """
    return ModulationDelta(module_id=params.module_id, layers=tuple(sorted(params.blocks)),
                           values=mim_block_forward(h, c, params.stacked))


def compose_deltas(deltas: Sequence[ModulationDelta], alpha: dict) -> ModulationDelta:
    """Weighted sum of module residual stacks with the per-sample L2 clamp.

    alpha maps each module id to its weight. The clamp scale is
    s = min(1, m / (||total|| + CLAMP_EPS)) with m the largest unweighted
    module norm, both taken over all layers jointly. A single module with
    weight exactly 1 passes through bit-identically.
    """
    if not deltas:
        raise EmptyInputError("no deltas to compose")
    first = deltas[0]
    for d in deltas[1:]:
        if d.layers != first.layers:
            raise DimensionError("deltas do not share an injection layer set")
        if d.values.shape != first.values.shape:
            raise DimensionError(f"delta shapes differ: {d.values.shape} vs "
                                 f"{first.values.shape}")
    missing = [d.module_id for d in deltas if d.module_id not in alpha]
    if missing:
        raise ConfigError(f"no composition weight for modules {missing}")
    weights = [float(alpha[d.module_id]) for d in deltas]

    if len(deltas) == 1 and weights[0] == 1.0:
        return ModulationDelta(first.module_id, first.layers, first.values.copy())

    total = np.zeros(first.values.shape, dtype=F64)
    for d, a in zip(deltas, weights):
        total += a * d.values.astype(F64)
    m = max(d.flat_norm() for d in deltas)
    norm = float(np.sqrt(sum(np.sum(v ** 2) for v in total)))  # per slab, as flat_norm
    s = min(1.0, m / (norm + CLAMP_EPS))
    return ModulationDelta("+".join(d.module_id for d in deltas), first.layers,
                           (s * total).astype(F32))


def seeded_mim_params(module_id: str, source: str, rng: Rng, feature_dim: int,
                      width: int = 128, heads: int = 4, ffn_hidden: int = 256,
                      injection_layers: Sequence[int] = (0, 1, 2, 3),
                      tcn_layers: int = 3, tcn_kernel: int = 3,
                      zero_gate: bool = True) -> MimParams:
    """Seeded module weights; the output gate starts at zero unless asked otherwise."""
    if source not in ("others", "scene"):
        raise ConfigError("module source must be 'others' or 'scene'")

    def u(name, shape):
        return seeded_init(shape, "uniform-fan", rng.child(module_id, name))

    def zeros(shape):
        return np.zeros(shape, dtype=F32)

    if source == "others":
        layers = []
        c_in = feature_dim
        for i in range(tcn_layers):
            layers.append(TcnLayerParams(
                w_filter=u(f"tcn{i}.wf", (tcn_kernel, c_in, width)),
                b_filter=zeros(width),
                w_gate=u(f"tcn{i}.wg", (tcn_kernel, c_in, width)),
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
            rel_bias=RelBiasParams(omega=0.25,
                                   w_b=seeded_init((2, heads), "uniform-fan", sub.child("relb"))),
            film_w=seeded_init((width, 2 * width), "uniform-fan", sub.child("film")),
            film_b=zeros(2 * width),
            ffn=FfnParams(seeded_init((width, ffn_hidden), "uniform-fan", sub.child("ffn1")),
                          zeros(ffn_hidden),
                          seeded_init((ffn_hidden, width), "uniform-fan", sub.child("ffn2")),
                          zeros(width),
                          ln_gain=np.ones(width, dtype=F32), ln_offset=zeros(width)),
            gate=zeros(width) if zero_gate else np.ones(width, dtype=F32))
    return MimParams(module_id=module_id, source=source, encoder=encoder, blocks=blocks)


def _seeded_attention(rng: Rng, q_in: int, width: int, heads: int) -> AttentionParams:
    return AttentionParams(
        heads=heads, width=width,
        w_q=seeded_init((q_in, width), "uniform-fan", rng.child("wq")),
        w_k=seeded_init((width, width), "uniform-fan", rng.child("wk")),
        w_v=seeded_init((width, width), "uniform-fan", rng.child("wv")),
        w_o=seeded_init((width, width), "uniform-fan", rng.child("wo")),
        ln_gain=np.ones(width, dtype=F32),
        ln_offset=np.zeros(width, dtype=F32))
