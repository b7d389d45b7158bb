"""Adapter tests: encoders, the modulation block chain, composition and clamp."""
import dataclasses

import numpy as np
import pytest

from remogen.errors import ConfigError, DimensionError, EmptyInputError
from remogen.mim import (
    ContextTokens,
    MimBlockParams,
    MimParams,
    ModulationDelta,
    SCENE_TOKENS,
    compose_deltas,
    encode_others,
    encode_scene,
    mim_block_forward,
    module_deltas,
    prepare_context,
    seeded_mim_params,
)
from remogen.motion import RigidTransform
from remogen.scene import EGO_DIMS, EgoVoxelBlock
from remogen.tensorcore import (
    AttentionParams,
    FfnParams,
    RelBiasParams,
    Rng,
    layer_norm,
    mha_forward,
    relative_bias,
)

F32 = np.float32


def identity_block(width=1, gate=1.0, self_wo=0.0, film_b=None):
    """Hand-assembled scalar-friendly block for pencil-and-paper checks."""
    eye = np.eye(width, dtype=F32)

    def attn(wo_scale):
        return AttentionParams(1, width, eye.copy(), eye.copy(), eye.copy(),
                               eye * wo_scale, np.ones(width, dtype=F32),
                               np.zeros(width, dtype=F32))

    return MimBlockParams(
        self_attn=attn(self_wo), cross_attn=attn(1.0),
        rel_bias=RelBiasParams(0.25, np.zeros((2, 1), dtype=F32)),
        film_w=np.zeros((width, 2 * width), dtype=F32),
        film_b=np.zeros(2 * width, dtype=F32) if film_b is None else film_b,
        ffn=FfnParams(np.ones((width, 4), dtype=F32), np.zeros(4, dtype=F32),
                      np.zeros((4, width), dtype=F32), np.zeros(width, dtype=F32),
                      np.ones(width, dtype=F32), np.zeros(width, dtype=F32)),
        gate=np.full(width, gate, dtype=F32))


def random_block(gen, width, heads=1, t_kv_dim=None):
    d_c = t_kv_dim or width

    def attn(q_in, kv_in):
        return AttentionParams(heads, width,
                               gen.standard_normal((q_in, width)).astype(F32),
                               gen.standard_normal((kv_in, width)).astype(F32),
                               gen.standard_normal((kv_in, width)).astype(F32),
                               gen.standard_normal((width, width)).astype(F32),
                               gen.standard_normal(width).astype(F32),
                               gen.standard_normal(width).astype(F32))

    hidden = 2 * width
    return MimBlockParams(
        self_attn=attn(width, width), cross_attn=attn(width, d_c),
        rel_bias=RelBiasParams(0.25, gen.standard_normal((2, heads)).astype(F32)),
        film_w=gen.standard_normal((width, 2 * width)).astype(F32),
        film_b=gen.standard_normal(2 * width).astype(F32),
        ffn=FfnParams(gen.standard_normal((width, hidden)).astype(F32),
                      gen.standard_normal(hidden).astype(F32),
                      gen.standard_normal((hidden, width)).astype(F32),
                      gen.standard_normal(width).astype(F32),
                      gen.standard_normal(width).astype(F32),
                      gen.standard_normal(width).astype(F32)),
        gate=gen.standard_normal(width).astype(F32))


def naive_mim_block(h, c, p):
    """Independent restatement of the block chain using shared kernels stepwise."""
    from remogen.tensorcore import ffn_forward

    h = h.astype(F32)
    h_prime = h + mha_forward(layer_norm(h, p.self_attn.ln_gain, p.self_attn.ln_offset),
                              layer_norm(h, p.self_attn.ln_gain, p.self_attn.ln_offset),
                              p.self_attn)
    bias = relative_bias(h.shape[0], c.tokens.shape[0], p.rel_bias)
    r = mha_forward(layer_norm(h_prime, p.cross_attn.ln_gain, p.cross_attn.ln_offset),
                    c.tokens, p.cross_attn, bias)
    film = (r.astype(np.float64) @ p.film_w.astype(np.float64)
            + p.film_b.astype(np.float64))
    d = h.shape[1]
    gamma, beta = film[:, :d], film[:, d:]
    h_mod = ((1 + np.tanh(gamma)) * h_prime.astype(np.float64) + np.tanh(beta)).astype(F32)
    h_ffn = h_mod + ffn_forward(layer_norm(h_mod, p.ffn.ln_gain, p.ffn.ln_offset), p.ffn)
    return ((h_ffn.astype(np.float64) - h.astype(np.float64))
            * p.gate.astype(np.float64)).astype(F32)


@pytest.fixture(scope="module")
def others_encoder():
    params = seeded_mim_params("hhi", "others", Rng(3), feature_dim=12, width=16,
                               heads=2, ffn_hidden=32, injection_layers=(0, 1))
    return params.encoder


class TestEncodeOthers:
    def test_token_count_and_determinism(self, others_encoder):
        gen = Rng(1).generator("win")
        window = gen.standard_normal((5, 12)).astype(F32)
        a = encode_others(window, others_encoder)
        b = encode_others(window, others_encoder)
        assert a.tokens.shape == (5, 16)
        assert a.source == "others"
        assert np.array_equal(a.tokens, b.tokens)

    def test_causality_prefix_equality(self, others_encoder):
        gen = Rng(2).generator("win")
        w1 = gen.standard_normal((6, 12)).astype(F32)
        w2 = w1.copy()
        w2[4:] = gen.standard_normal((2, 12)).astype(F32)
        a = encode_others(w1, others_encoder)
        b = encode_others(w2, others_encoder)
        np.testing.assert_array_equal(a.tokens[:4], b.tokens[:4])
        assert not np.array_equal(a.tokens[4:], b.tokens[4:])

    def test_zero_input_zero_tokens_when_bias_free(self, others_encoder):
        out = encode_others(np.zeros((4, 12), dtype=F32), others_encoder)
        assert np.all(out.tokens == 0)

    def test_dim_mismatch(self, others_encoder):
        with pytest.raises(DimensionError):
            encode_others(np.zeros((3, 7), dtype=F32), others_encoder)


@pytest.fixture(scope="module")
def scene_encoder():
    return seeded_mim_params("hsi", "scene", Rng(4), feature_dim=12, width=16,
                             heads=2, ffn_hidden=32, injection_layers=(0,)).encoder


class TestEncodeScene:
    def test_token_count(self, scene_encoder):
        block = EgoVoxelBlock(np.zeros((EGO_DIMS,) * 3, dtype=bool),
                              RigidTransform.identity())
        out = encode_scene(block, scene_encoder)
        assert out.tokens.shape == (SCENE_TOKENS, 16)
        assert out.source == "scene"

    def test_free_vs_occupied_differ(self, scene_encoder):
        free = EgoVoxelBlock(np.zeros((EGO_DIMS,) * 3, dtype=bool),
                             RigidTransform.identity())
        full = EgoVoxelBlock(np.ones((EGO_DIMS,) * 3, dtype=bool),
                             RigidTransform.identity())
        a = encode_scene(free, scene_encoder)
        b = encode_scene(full, scene_encoder)
        assert not np.array_equal(a.tokens, b.tokens)

    def test_deterministic(self, scene_encoder):
        gen = Rng(5).generator("occ")
        block = EgoVoxelBlock(gen.uniform(size=(EGO_DIMS,) * 3) > 0.5,
                              RigidTransform.identity())
        a = encode_scene(block, scene_encoder)
        b = encode_scene(block, scene_encoder)
        assert np.array_equal(a.tokens, b.tokens)


class TestMimBlockForward:
    def test_zero_film_zero_ffn_leaves_self_attn_residual(self):
        gen = Rng(6).generator("blk")
        width = 4
        p = random_block(gen, width)
        # Zero the FiLM head and the FFN output layer, keep a unit gate.
        p = MimBlockParams(p.self_attn, p.cross_attn, p.rel_bias,
                           np.zeros((width, 2 * width), dtype=F32),
                           np.zeros(2 * width, dtype=F32),
                           FfnParams(p.ffn.w1, p.ffn.b1,
                                     np.zeros((2 * width, width), dtype=F32),
                                     np.zeros(width, dtype=F32),
                                     p.ffn.ln_gain, p.ffn.ln_offset),
                           gate=np.ones(width, dtype=F32))
        h = gen.standard_normal((3, width)).astype(F32)
        c = ContextTokens(gen.standard_normal((2, width)).astype(F32))
        normed = layer_norm(h, p.self_attn.ln_gain, p.self_attn.ln_offset)
        residual = mha_forward(normed, normed, p.self_attn)
        np.testing.assert_allclose(mim_block_forward(h, c, p), residual, atol=1e-6)

    def test_zero_gate_exactly_neutral(self):
        gen = Rng(7).generator("blk")
        p = random_block(gen, 4)
        p = MimBlockParams(p.self_attn, p.cross_attn, p.rel_bias, p.film_w, p.film_b,
                           p.ffn, gate=np.zeros(4, dtype=F32))
        h = gen.standard_normal((3, 4)).astype(F32)
        c = ContextTokens(gen.standard_normal((5, 4)).astype(F32))
        assert np.all(mim_block_forward(h, c, p) == 0)

    def test_scalar_hand_evaluation(self):
        film_b = np.array([np.arctanh(0.5), np.arctanh(0.2)], dtype=F32)
        p = identity_block(width=1, gate=1.0, self_wo=0.0, film_b=film_b)
        h = np.array([[1.0]], dtype=F32)
        c = ContextTokens(np.array([[0.3]], dtype=F32))
        # h' = 1; gamma, beta fixed by the bias: delta = 0.5 * 1 + 0.2 = 0.7
        np.testing.assert_allclose(mim_block_forward(h, c, p), [[0.7]], atol=1e-6)

    def test_duplicate_context_tokens_renormalize(self):
        # Bias-free so key positions play no role, then duplicating every
        # token only renormalizes the softmax.
        gen = Rng(8).generator("dup")
        p = random_block(gen, 4)
        p = MimBlockParams(p.self_attn, p.cross_attn,
                           RelBiasParams(0.25, np.zeros((2, 1), dtype=F32)),
                           p.film_w, p.film_b, p.ffn, p.gate)
        h = gen.standard_normal((2, 4)).astype(F32)
        tokens = gen.standard_normal((3, 4)).astype(F32)
        once = mim_block_forward(h, ContextTokens(tokens), p)
        twice = mim_block_forward(h, ContextTokens(np.vstack([tokens, tokens])), p)
        np.testing.assert_allclose(once, twice, atol=1e-6)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_naive_oracle(self, seed):
        gen = Rng(seed).generator("oracle")
        t = int(gen.integers(1, 5))
        width = int(gen.integers(1, 9))
        t_c = int(gen.integers(1, 5))
        p = random_block(gen, width)
        h = gen.standard_normal((t, width)).astype(F32)
        c = ContextTokens(gen.standard_normal((t_c, width)).astype(F32))
        np.testing.assert_allclose(mim_block_forward(h, c, p), naive_mim_block(h, c, p),
                                   atol=1e-6)

    def test_width_mismatch(self):
        p = identity_block(width=2)
        with pytest.raises(DimensionError):
            mim_block_forward(np.zeros((2, 3), dtype=F32),
                              ContextTokens(np.zeros((1, 2), dtype=F32)), p)


class TestModuleDeltas:
    def test_zero_gated_module_is_neutral(self):
        params = seeded_mim_params("hhi", "others", Rng(9), feature_dim=12, width=16,
                                   heads=2, ffn_hidden=32, injection_layers=(0, 1, 2))
        gen = Rng(10).generator("m")
        h = gen.standard_normal((5, 16)).astype(F32)
        c = encode_others(gen.standard_normal((3, 12)).astype(F32), params.encoder)
        delta = module_deltas(h, c, params)
        assert delta.layers == (0, 1, 2)
        assert delta.values.shape == (3, 5, 16)
        assert np.all(delta.values == 0)


def hot_module(source, seed, width=128, heads=4, ffn_hidden=256):
    """A seeded module at engine size whose blocks all have random non-zero gates."""
    params = seeded_mim_params("m", source, Rng(seed), feature_dim=12, width=width,
                               heads=heads, ffn_hidden=ffn_hidden)
    gen = Rng(seed).generator("gates")
    blocks = {idx: dataclasses.replace(b, gate=gen.uniform(0.05, 0.15, width).astype(F32))
              for idx, b in params.blocks.items()}
    return dataclasses.replace(params, blocks=blocks)


class TestStackedModule:
    @pytest.mark.parametrize("source", ["others", "scene"])
    @pytest.mark.parametrize("t_c", [1, 2, 64])
    def test_layers_equal_one_block_modules(self, source, t_c):
        params = hot_module(source, seed=t_c)
        gen = Rng(t_c).generator("stack", source)
        h = gen.standard_normal((5, 128)).astype(F32)
        c = ContextTokens(gen.standard_normal((t_c, 128)).astype(F32), source=source)
        delta = module_deltas(h, c, params)
        assert delta.layers == (0, 1, 2, 3)
        for idx, block in params.blocks.items():
            alone = MimParams("m", source, params.encoder, {idx: block})
            single = module_deltas(h, c, alone)
            assert single.layers == (idx,)
            assert np.any(single.values != 0)
            row = delta.values[delta.layers.index(idx)]
            np.testing.assert_array_equal(row, single.values[0])
            np.testing.assert_array_equal(row, mim_block_forward(h, c, block))

    @pytest.mark.parametrize("t_c", [2, 64])
    def test_context_prepared_once_reused_over_steps(self, t_c):
        params = hot_module("others", seed=40 + t_c)
        gen = Rng(t_c).generator("reuse")
        c = ContextTokens(gen.standard_normal((t_c, 128)).astype(F32))
        prepared = prepare_context(c, params.stacked, 5)
        for _ in range(10):
            h = gen.standard_normal((5, 128)).astype(F32)
            reused = module_deltas(h, prepared, params)
            fresh = module_deltas(h, prepare_context(c, params.stacked, 5), params)
            tokens = module_deltas(h, c, params)
            for k in range(len(params.blocks)):
                np.testing.assert_array_equal(reused.values[k], fresh.values[k])
                np.testing.assert_array_equal(reused.values[k], tokens.values[k])

    def test_stacked_weights_built_once_on_first_use(self):
        params = hot_module("others", seed=50, width=16, heads=2, ffn_hidden=32)
        assert "stacked" not in vars(params)
        stacked = params.stacked
        assert stacked is params.stacked
        assert stacked.self_attn.w_q.shape == (4, 16, 16)
        assert stacked.gate.shape == (4, 1, 16)
        assert stacked.rel_bias.w_b.shape == (4, 2, 2)

    def test_stacked_self_attention_holds_one_fused_copy(self):
        params = hot_module("others", seed=52, width=16, heads=2, ffn_hidden=32)
        attn = params.stacked.self_attn
        assert attn.w_qkv.shape == (4, 16, 48)
        layers = sorted(params.blocks)
        for name in ("w_q", "w_k", "w_v"):
            w = getattr(attn, name)
            assert w.base is attn.w_qkv
            for l, idx in enumerate(layers):
                np.testing.assert_array_equal(w[l], getattr(params.blocks[idx].self_attn, name))

    def test_blocks_that_differ_in_structure_do_not_stack(self):
        params = hot_module("others", seed=51, width=16, heads=2, ffn_hidden=32)
        blocks = dict(params.blocks)
        blocks[1] = dataclasses.replace(
            blocks[1], rel_bias=RelBiasParams(0.5, blocks[1].rel_bias.w_b))
        with pytest.raises(ConfigError):
            dataclasses.replace(params, blocks=blocks).stacked

    def test_prepared_context_shape_is_checked(self):
        params = hot_module("others", seed=52, width=16, heads=2, ffn_hidden=32)
        c = ContextTokens(np.ones((3, 16), dtype=F32))
        prepared = prepare_context(c, params.stacked, 5)
        with pytest.raises(DimensionError):
            module_deltas(np.ones((4, 16), dtype=F32), prepared, params)


def random_delta(gen, module_id, layers=(0, 1), shape=(3, 4)):
    return ModulationDelta(module_id, layers,
                           np.stack([gen.standard_normal(shape).astype(F32) for _ in layers]))


def copy_as(module_id, d):
    return ModulationDelta(module_id, d.layers, d.values.copy())


def per_layer_compose(deltas, alpha, eps=1e-6):
    """Composition over {layer: (T, width)} dicts, one layer at a time: the
    reference the stacked compose_deltas must match bit for bit. Returns the
    composed layer map and the clamp scale."""
    maps = [{idx: np.array(v) for idx, v in zip(d.layers, d.values)} for d in deltas]
    keys = sorted(maps[0])
    weights = [float(alpha[d.module_id]) for d in deltas]
    if len(deltas) == 1 and weights[0] == 1.0:
        return {k: v.copy() for k, v in maps[0].items()}, 1.0
    total = {k: np.zeros_like(maps[0][k], dtype=np.float64) for k in keys}
    for layer_map, a in zip(maps, weights):
        for k in keys:
            total[k] += a * layer_map[k].astype(np.float64)

    def flat_norm(layer_map):
        acc = 0.0
        for arr in layer_map.values():
            acc += float(np.sum(arr.astype(np.float64) ** 2))
        return float(np.sqrt(acc))

    m = max(flat_norm(layer_map) for layer_map in maps)
    norm = float(np.sqrt(sum(np.sum(v ** 2) for v in total.values())))
    s = min(1.0, m / (norm + eps))
    return {k: (s * total[k]).astype(F32) for k in keys}, s


class TestModulationDelta:
    def test_layout_checked(self):
        with pytest.raises(DimensionError):
            ModulationDelta("m", (1, 0), np.zeros((2, 3, 4), dtype=F32))
        with pytest.raises(DimensionError):
            ModulationDelta("m", (0, 0), np.zeros((2, 3, 4), dtype=F32))
        with pytest.raises(DimensionError):
            ModulationDelta("m", (0, 1), np.zeros((3, 4), dtype=F32))
        with pytest.raises(DimensionError):
            ModulationDelta("m", (0, 1), np.zeros((3, 3, 4), dtype=F32))
        d = ModulationDelta("m", [2], np.ones((1, 3, 4)))
        assert d.layers == (2,) and d.values.dtype == F32

    def test_flat_norm_sums_one_layer_at_a_time(self):
        # One np.sum over the whole stack gives a different last bit for some
        # of these stacks than adding the layers' sums one after another.
        gen = Rng(17).generator("norm")
        for _ in range(200):
            d = random_delta(gen, "m", (0, 1, 2, 3), (5, 128))
            acc = 0.0
            for arr in d.values:
                acc += float(np.sum(np.array(arr).astype(np.float64) ** 2))
            assert d.flat_norm() == float(np.sqrt(acc))


class TestComposeDeltas:
    def test_single_module_unit_alpha_bit_exact(self):
        gen = Rng(11).generator("c")
        d = random_delta(gen, "hhi")
        out = compose_deltas([d], {"hhi": 1.0})
        assert out.layers == d.layers
        assert np.array_equal(out.values, d.values)
        assert out.values is not d.values

    def test_symmetric_half_weights_preserve_norm(self):
        gen = Rng(12).generator("c")
        d = random_delta(gen, "hhi")
        out = compose_deltas([d, copy_as("hsi", d)], {"hhi": 0.5, "hsi": 0.5})
        assert out.flat_norm() == pytest.approx(d.flat_norm(), rel=1e-5)

    def test_reinforcing_modules_clamped(self):
        gen = Rng(13).generator("c")
        d = random_delta(gen, "hhi")
        out = compose_deltas([d, copy_as("hsi", d)], {"hhi": 1.0, "hsi": 1.0})
        # total = 2 delta, clamp rescales back to the strongest branch norm
        assert out.flat_norm() <= d.flat_norm() + 1e-6
        assert out.flat_norm() == pytest.approx(d.flat_norm(), rel=1e-4)

    @pytest.mark.parametrize("seed", range(20))
    def test_clamp_bound(self, seed):
        gen = Rng(seed).generator("bound")
        n = int(gen.integers(1, 5))
        deltas = [random_delta(gen, f"m{i}") for i in range(n)]
        alpha = {f"m{i}": float(gen.uniform(0, 2)) for i in range(n)}
        out = compose_deltas(deltas, alpha)
        assert out.flat_norm() <= max(d.flat_norm() for d in deltas) + 1e-6

    def test_pre_clamp_linearity(self):
        gen = Rng(14).generator("lin")
        # Scale small enough that the clamp never engages.
        d1 = ModulationDelta("a", (0,), gen.standard_normal((2, 3)).astype(F32)[None])
        d2 = ModulationDelta("b", (0,), gen.standard_normal((2, 3)).astype(F32)[None])
        base = compose_deltas([d1, d2], {"a": 0.1, "b": 0.2})
        doubled = compose_deltas([d1, d2], {"a": 0.2, "b": 0.2})
        gain = doubled.values[0] - base.values[0]
        np.testing.assert_allclose(gain, 0.1 * d1.values[0], atol=1e-5)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("reinforcing", [True, False])
    def test_bit_exact_against_per_layer_reference(self, seed, reinforcing):
        gen = Rng(seed).generator("ref", str(reinforcing))
        layers = (0, 1, 2, 3) if seed % 2 == 0 else (1, 3)
        shape = (5, 128) if seed < 3 else (3, 4)
        base = random_delta(gen, "m0", layers, shape)
        n = 2 + seed % 3
        if reinforcing:
            # Modules pushing the same way at full weight: the sum outgrows
            # the strongest branch and the clamp engages.
            deltas = [copy_as("m0", base)] + [
                ModulationDelta(f"m{i}", layers,
                                base.values + 0.1 * random_delta(gen, "x", layers, shape).values)
                for i in range(1, n)]
            alpha = {f"m{i}": float(gen.uniform(0.8, 1.2)) for i in range(n)}
        else:
            # Modules that cancel each other: the sum stays below the bound.
            deltas = [copy_as("m0", base)] + [
                ModulationDelta(f"m{i}", layers, (-1) ** i * base.values
                                + 0.1 * random_delta(gen, "x", layers, shape).values)
                for i in range(1, n)]
            alpha = {f"m{i}": 0.5 for i in range(n)}
        expected, s = per_layer_compose(deltas, alpha)
        assert (s < 1.0) == reinforcing
        out = compose_deltas(deltas, alpha)
        assert out.layers == layers
        for k, idx in enumerate(layers):
            np.testing.assert_array_equal(out.values[k], expected[idx])

    def test_empty_and_mismatch_errors(self):
        gen = Rng(16).generator("e")
        with pytest.raises(EmptyInputError):
            compose_deltas([], {"x": 1.0})
        d1 = random_delta(gen, "a", layers=(0,))
        d2 = random_delta(gen, "b", layers=(1,))
        with pytest.raises(DimensionError):
            compose_deltas([d1, d2], {"a": 1.0, "b": 1.0})
        d3 = random_delta(gen, "b", layers=(0,), shape=(2, 2))
        with pytest.raises(DimensionError):
            compose_deltas([d1, d3], {"a": 1.0, "b": 1.0})
        with pytest.raises(ConfigError):
            compose_deltas([d1], {"other": 1.0})
