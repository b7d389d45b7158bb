"""Dense kernel tests: attention vs a naive oracle, bias structure, init."""
import numpy as np
import pytest

from remogen.errors import DimensionError, NumericError
from remogen.tensorcore import (
    SHAPE_ONLY,
    AttentionParams,
    FfnParams,
    RelBiasParams,
    Rng,
    attention_kv,
    ffn_forward,
    fuse_qkv,
    gelu,
    gelu_slope,
    layer_norm,
    linear,
    matmul,
    mha_forward,
    relative_bias,
    seeded_init,
)

F32 = np.float32


def identity_attention(width: int, heads: int = 1) -> AttentionParams:
    """All projections identity, so attention outputs can be checked by hand."""
    eye = np.eye(width, dtype=F32)
    return AttentionParams(heads=heads, width=width, w_q=eye, w_k=eye.copy(),
                           w_v=eye.copy(), w_o=eye.copy(),
                           ln_gain=np.ones(width, dtype=F32),
                           ln_offset=np.zeros(width, dtype=F32))


def naive_attention(q_in, kv_in, p, bias=None):
    """Independent O(T^2) re-implementation: per-head, per-query python loops."""
    t_q, t_kv = q_in.shape[0], kv_in.shape[0]
    dh = p.width // p.heads
    q = q_in.astype(np.float64) @ p.w_q.astype(np.float64)
    k = kv_in.astype(np.float64) @ p.w_k.astype(np.float64)
    v = kv_in.astype(np.float64) @ p.w_v.astype(np.float64)
    out = np.zeros((t_q, p.width))
    for h in range(p.heads):
        qs, ks, vs = (m[:, h * dh:(h + 1) * dh] for m in (q, k, v))
        for i in range(t_q):
            logits = np.array([qs[i] @ ks[j] / np.sqrt(dh) for j in range(t_kv)])
            if bias is not None:
                logits = logits + bias[h, i]
            w = np.exp(logits - logits.max())
            w = w / w.sum()
            out[i, h * dh:(h + 1) * dh] = sum(w[j] * vs[j] for j in range(t_kv))
    return (out @ p.w_o.astype(np.float64)).astype(F32)


def random_attention_params(gen, heads, width):
    mats = [gen.standard_normal((width, width)).astype(F32) for _ in range(4)]
    return AttentionParams(heads, width, *mats,
                           ln_gain=np.ones(width, dtype=F32),
                           ln_offset=np.zeros(width, dtype=F32))


class TestMhaForward:
    def test_single_key_returns_value_row(self):
        p = identity_attention(4)
        q = np.ones((1, 4), dtype=F32)
        v = np.array([[2.0, -1.0, 0.5, 7.0]], dtype=F32)
        out = mha_forward(q, v, p)
        np.testing.assert_allclose(out, v, atol=1e-6)

    def test_masked_key_is_ignored(self):
        p = identity_attention(4)
        q = np.zeros((1, 4), dtype=F32)
        kv = np.array([[1.0, 2.0, 3.0, 4.0], [9.0, 9.0, 9.0, 9.0]], dtype=F32)
        bias = np.array([[[0.0, -1e9]]], dtype=F32)
        out = mha_forward(q, kv, p, bias)
        np.testing.assert_allclose(out, kv[:1], atol=1e-6)

    def test_matches_oracle_seed7(self):
        gen = Rng(7).generator("mha")
        q = gen.standard_normal((4, 8)).astype(F32)
        kv = gen.standard_normal((4, 8)).astype(F32)
        p = random_attention_params(gen, heads=2, width=8)
        np.testing.assert_allclose(mha_forward(q, kv, p), naive_attention(q, kv, p),
                                   atol=1e-6)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_oracle_small_shapes(self, seed):
        gen = Rng(seed).generator("sweep")
        heads = int(gen.choice([1, 2, 4]))
        width = heads * int(gen.integers(1, 16 // heads + 1))
        t_q, t_kv = int(gen.integers(1, 9)), int(gen.integers(1, 9))
        q = gen.standard_normal((t_q, width)).astype(F32)
        kv = gen.standard_normal((t_kv, width)).astype(F32)
        p = random_attention_params(gen, heads, width)
        bias = gen.standard_normal((heads, t_q, t_kv)).astype(F32)
        np.testing.assert_allclose(mha_forward(q, kv, p, bias),
                                   naive_attention(q, kv, p, bias), atol=1e-6)

    def test_bias_row_shift_invariance(self):
        gen = Rng(3).generator("shift")
        q = gen.standard_normal((3, 8)).astype(F32)
        kv = gen.standard_normal((5, 8)).astype(F32)
        p = random_attention_params(gen, 2, 8)
        bias = gen.standard_normal((2, 3, 5)).astype(F32)
        shifted = bias + 17.5
        np.testing.assert_allclose(mha_forward(q, kv, p, bias),
                                   mha_forward(q, kv, p, shifted), atol=1e-5)

    def test_shape_and_finiteness_errors(self):
        p = identity_attention(4)
        with pytest.raises(DimensionError):
            mha_forward(np.ones((2, 3), dtype=F32), np.ones((2, 4), dtype=F32), p)
        with pytest.raises(DimensionError):
            mha_forward(np.ones((2, 4), dtype=F32), np.ones((2, 4), dtype=F32), p,
                        bias=np.ones((1, 3, 3), dtype=F32))
        bad = np.full((2, 4), np.nan, dtype=F32)
        with pytest.raises(NumericError):
            mha_forward(bad, np.ones((2, 4), dtype=F32), p)

    @pytest.mark.parametrize("with_bias", [False, True])
    @pytest.mark.parametrize("heads,width,t_q,t_kv", [(4, 128, 5, 5), (4, 128, 5, 2),
                                                       (2, 8, 3, 7)])
    def test_batched_rows_equal_single_calls(self, with_bias, heads, width, t_q, t_kv):
        gen = Rng(width + t_kv).generator("batch")
        q = gen.standard_normal((3, t_q, width)).astype(F32)
        kv = gen.standard_normal((3, t_kv, width)).astype(F32)
        p = random_attention_params(gen, heads, width)
        bias = gen.standard_normal((heads, t_q, t_kv)).astype(F32) if with_bias else None
        out = mha_forward(q, kv, p, bias)
        assert out.shape == (3, t_q, width)
        for b in range(3):
            np.testing.assert_array_equal(out[b], mha_forward(q[b], kv[b], p, bias))

    def test_batch_shape_errors(self):
        p = identity_attention(4)
        with pytest.raises(DimensionError):
            mha_forward(np.ones((2, 3, 4), dtype=F32), np.ones((3, 4), dtype=F32), p)
        with pytest.raises(DimensionError):
            mha_forward(np.ones((2, 3, 4), dtype=F32), np.ones((1, 3, 4), dtype=F32), p)
        with pytest.raises(DimensionError):
            mha_forward(np.ones((1, 2, 3, 4), dtype=F32), np.ones((1, 2, 3, 4), dtype=F32), p)

    def test_deterministic(self):
        gen = Rng(9).generator("det")
        q = gen.standard_normal((4, 8)).astype(F32)
        kv = gen.standard_normal((6, 8)).astype(F32)
        p = random_attention_params(gen, 2, 8)
        assert np.array_equal(mha_forward(q, kv, p), mha_forward(q, kv, p))


class TestGelu:
    def test_matches_pow_formula(self):
        # The cube is a product, not z ** 3; outputs must not move after rounding.
        x = Rng(12).generator("gelu").uniform(-8.0, 8.0, 1_000_000).astype(F32)
        z = x.astype(np.float64)
        ref = (0.5 * z * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (z + 0.044715 * z ** 3))))
        np.testing.assert_array_equal(gelu(x), ref.astype(F32))

    def test_slope_matches_central_difference(self):
        x = Rng(13).generator("slope").uniform(-8.0, 8.0, 100_000)

        def gelu64(z):
            return 0.5 * z * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (z + 0.044715 * z ** 3)))

        h = 1e-5
        numeric = (gelu64(x + h) - gelu64(x - h)) / (2 * h)
        # Truncation (h^2) plus cancellation (eps / h): 1.2e-10 measured.
        np.testing.assert_allclose(gelu_slope(x), numeric, rtol=0, atol=1e-9)
        assert gelu_slope(np.zeros(1))[0] == 0.5


class TestRelativeBias:
    def test_zero_offset_hits_cosine_axis(self):
        p = RelBiasParams(omega=0.25, w_b=np.eye(2, dtype=F32))
        b = relative_bias(1, 1, p)
        # dt = 0: features are [sin 0, cos 0] = [0, 1]
        np.testing.assert_allclose(b[:, 0, 0], np.eye(2, dtype=F32) @ np.array([0.0, 1.0]),
                                   atol=1e-7)

    def test_known_scalar_value(self):
        p = RelBiasParams(omega=0.25, w_b=np.eye(2, dtype=F32))
        b = relative_bias(3, 1, p)
        # dt = 2 with identity map: [sin 0.5, cos 0.5]
        np.testing.assert_allclose(b[:, 2, 0], [0.4794, 0.8776], atol=1e-4)

    def test_shift_invariance(self):
        p = RelBiasParams(omega=0.25, w_b=np.array([[0.3, -1.1], [0.7, 0.2]], dtype=F32))
        b = relative_bias(5, 5, p)
        np.testing.assert_array_equal(b[:, 1:, 1:], b[:, :-1, :-1])

    @pytest.mark.parametrize("t", [1, 2, 7, 16])
    def test_function_of_offset_only(self, t):
        p = RelBiasParams(omega=0.25, w_b=np.array([[1.0, 0.5], [-0.25, 2.0]], dtype=F32))
        b = relative_bias(t, t, p)
        for i in range(t):
            for j in range(t):
                ref = b[:, max(i - j, 0), max(j - i, 0)]
                np.testing.assert_allclose(b[:, i, j], ref, atol=0)

    def test_rejects_bad_params(self):
        with pytest.raises(DimensionError):
            RelBiasParams(omega=-1.0, w_b=np.eye(2, dtype=F32))
        with pytest.raises(DimensionError):
            relative_bias(0, 3, RelBiasParams(w_b=np.eye(2, dtype=F32)))


L_BLOCKS = 3


def stacked(arrays):
    """Stack per-block parameters the way MimParams.stacked does: vectors as (L, 1, n)."""
    out = np.stack(arrays)
    return out[:, None, :] if out.ndim == 2 else out


def random_blocks(gen, heads, width, hidden):
    attn = [AttentionParams(heads, width,
                            *(gen.standard_normal((width, width)).astype(F32)
                              for _ in range(4)),
                            ln_gain=gen.standard_normal(width).astype(F32),
                            ln_offset=gen.standard_normal(width).astype(F32))
            for _ in range(L_BLOCKS)]
    ffn = [FfnParams(gen.standard_normal((width, hidden)).astype(F32),
                     gen.standard_normal(hidden).astype(F32),
                     gen.standard_normal((hidden, width)).astype(F32),
                     gen.standard_normal(width).astype(F32),
                     gen.standard_normal(width).astype(F32),
                     gen.standard_normal(width).astype(F32))
           for _ in range(L_BLOCKS)]
    attn_s = AttentionParams(heads, width,
                             *(stacked([getattr(a, n) for a in attn])
                               for n in ("w_q", "w_k", "w_v", "w_o", "ln_gain", "ln_offset")))
    ffn_s = FfnParams(*(stacked([getattr(f, n) for f in ffn])
                        for n in ("w1", "b1", "w2", "b2", "ln_gain", "ln_offset")))
    return attn, attn_s, ffn, ffn_s


SHAPES = [(4, 128, 5, 64), (4, 128, 5, 2), (2, 8, 3, 1)]


class TestStackedWeights:
    """Stacked (L, ...) weights run L blocks in one call, each equal to its 2-D call."""

    @pytest.mark.parametrize("shared_input", [True, False])
    @pytest.mark.parametrize("heads,width,t_q,t_kv", SHAPES)
    def test_linear_layer_norm_ffn(self, shared_input, heads, width, t_q, t_kv):
        gen = Rng(width + t_kv).generator("stack-dense")
        attn, attn_s, ffn, ffn_s = random_blocks(gen, heads, width, 2 * width)
        shape = (t_q, width) if shared_input else (L_BLOCKS, t_q, width)
        x = gen.standard_normal(shape).astype(F32)
        rows = [x if shared_input else x[l] for l in range(L_BLOCKS)]
        with_bias = linear(x, ffn_s.w1, ffn_s.b1)
        no_bias = linear(x, ffn_s.w1)
        normed = layer_norm(x, ffn_s.ln_gain, ffn_s.ln_offset)
        out = ffn_forward(x, ffn_s)
        assert out.shape == (L_BLOCKS, t_q, width)
        for l, f in enumerate(ffn):
            np.testing.assert_array_equal(with_bias[l], linear(rows[l], f.w1, f.b1))
            np.testing.assert_array_equal(no_bias[l], linear(rows[l], f.w1))
            np.testing.assert_array_equal(normed[l],
                                          layer_norm(rows[l], f.ln_gain, f.ln_offset))
            np.testing.assert_array_equal(out[l], ffn_forward(rows[l], f))

    @pytest.mark.parametrize("projected", [False, True])
    @pytest.mark.parametrize("with_bias", [False, True])
    @pytest.mark.parametrize("heads,width,t_q,t_kv", SHAPES)
    def test_mha_forward(self, projected, with_bias, heads, width, t_q, t_kv):
        gen = Rng(3 * width + t_kv).generator("stack-mha")
        attn, attn_s, _, _ = random_blocks(gen, heads, width, 2 * width)
        q = gen.standard_normal((L_BLOCKS, t_q, width)).astype(F32)
        context = gen.standard_normal((t_kv, width)).astype(F32)
        bias = (gen.standard_normal((L_BLOCKS, heads, t_q, t_kv)).astype(F32)
                if with_bias else None)
        kv = attention_kv(context, attn_s) if projected \
            else np.broadcast_to(context, (L_BLOCKS, t_kv, width))
        out = mha_forward(q, kv, attn_s, bias)
        assert out.shape == (L_BLOCKS, t_q, width)
        for l, a in enumerate(attn):
            b = None if bias is None else bias[l]
            np.testing.assert_array_equal(out[l], mha_forward(q[l], context, a, b))

    def test_shared_input_and_projected_pair_match_tokens(self):
        gen = Rng(5).generator("stack-shared")
        attn, attn_s, _, _ = random_blocks(gen, 2, 8, 16)
        x = gen.standard_normal((4, 8)).astype(F32)
        out = mha_forward(x, x, attn_s)
        for l, a in enumerate(attn):
            np.testing.assert_array_equal(out[l], mha_forward(x, x, a))
            np.testing.assert_array_equal(mha_forward(x, attention_kv(x, a), a),
                                          mha_forward(x, x, a))

    def test_stacked_relative_bias(self):
        gen = Rng(6).generator("stack-bias")
        maps = [gen.standard_normal((2, 4)).astype(F32) for _ in range(L_BLOCKS)]
        out = relative_bias(5, 7, RelBiasParams(0.25, np.stack(maps)))
        assert out.shape == (L_BLOCKS, 4, 5, 7)
        for l, w_b in enumerate(maps):
            np.testing.assert_array_equal(out[l], relative_bias(5, 7, RelBiasParams(0.25, w_b)))

    def test_bad_shapes_raise_dimension_error(self):
        gen = Rng(7).generator("stack-bad")
        attn, attn_s, ffn, ffn_s = random_blocks(gen, 2, 8, 16)
        wrong_l = np.ones((L_BLOCKS + 1, 4, 8), dtype=F32)
        with pytest.raises(DimensionError):
            linear(wrong_l, ffn_s.w1)
        with pytest.raises(DimensionError):
            linear(np.ones((4, 8), dtype=F32), ffn_s.w1, ffn[0].b1[None, None, :3])
        with pytest.raises(DimensionError):
            layer_norm(wrong_l, ffn_s.ln_gain, ffn_s.ln_offset)
        with pytest.raises(DimensionError):
            ffn_forward(wrong_l, ffn_s)
        with pytest.raises(DimensionError):
            mha_forward(wrong_l, wrong_l, attn_s)
        with pytest.raises(DimensionError):
            AttentionParams(2, 8, attn_s.w_q, attn[0].w_k, attn_s.w_v, attn_s.w_o,
                            attn_s.ln_gain, attn_s.ln_offset)
        q = np.ones((4, 8), dtype=F32)
        k, v = attention_kv(np.ones((3, 8), dtype=F32), attn_s)
        with pytest.raises(DimensionError):
            mha_forward(q, (k, v), attn[0])          # stacked pair, one block
        with pytest.raises(DimensionError):
            mha_forward(q, (k, v[:, :2]), attn_s)
        with pytest.raises(DimensionError):
            mha_forward(q, (k, v), attn_s, np.ones((2, 2, 4, 3), dtype=F32))
        with pytest.raises(DimensionError):
            attention_kv(np.ones((3, 5), dtype=F32), attn_s)
        with pytest.raises(DimensionError):
            relative_bias(2, 2, RelBiasParams(0.25, np.ones((3, 3, 4), dtype=F32)))


class TestSeededInit:
    def test_zeros_scheme(self):
        assert np.all(seeded_init((3, 5), "zeros", Rng(1)) == 0)

    def test_shape_only_rng_allocates_nothing(self):
        t = seeded_init((300, 2000), "uniform-fan", Rng(3, SHAPE_ONLY).child("w"))
        assert t.shape == (300, 2000) and t.strides == (0, 0)

    def test_same_seed_bit_identical(self):
        a = seeded_init((4, 4), "uniform-fan", Rng(42))
        b = seeded_init((4, 4), "uniform-fan", Rng(42))
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = seeded_init((4, 4), "uniform-fan", Rng(1))
        b = seeded_init((4, 4), "uniform-fan", Rng(2))
        assert not np.array_equal(a, b)

    def test_child_streams_differ(self):
        rng = Rng(7)
        a = seeded_init((4, 4), "uniform-fan", rng.child("a"))
        b = seeded_init((4, 4), "uniform-fan", rng.child("b"))
        assert not np.array_equal(a, b)

    def test_unknown_scheme(self):
        with pytest.raises(DimensionError):
            seeded_init((2, 2), "orthogonal", Rng(0))


def test_layer_norm_normalizes_rows():
    gen = Rng(4).generator("ln")
    x = gen.standard_normal((6, 16)).astype(F32) * 3 + 1
    out = layer_norm(x, np.ones(16, dtype=F32), np.zeros(16, dtype=F32))
    np.testing.assert_allclose(out.mean(axis=1), 0, atol=1e-6)
    np.testing.assert_allclose(out.std(axis=1), 1, atol=1e-3)


class TestLeanKernels:
    """The lean kernels against the formulas they replaced, kept here as
    references: every comparison is bit for bit."""

    # (lead shape of the input, number of stacked blocks or None)
    LAYOUTS = [((), None), ((2,), None), ((), L_BLOCKS), ((L_BLOCKS,), L_BLOCKS)]

    @staticmethod
    def attention(gen, heads, width, blocks):
        shape = (width, width) if blocks is None else (blocks, width, width)
        return AttentionParams(heads, width,
                               *(gen.standard_normal(shape).astype(F32) for _ in range(4)),
                               ln_gain=np.ones(width, dtype=F32),
                               ln_offset=np.zeros(width, dtype=F32))

    @pytest.mark.parametrize("lead,blocks", LAYOUTS)
    @pytest.mark.parametrize("heads,width,t", [(4, 128, 5), (4, 128, 64), (2, 8, 9),
                                               (1, 16, 1)])
    def test_fused_projection_equals_three(self, lead, blocks, heads, width, t):
        gen = Rng(width + t).generator("fused", len(lead), blocks or 0)
        p = self.attention(gen, heads, width, blocks)
        x = gen.standard_normal(lead + (t, width)).astype(F32) * 3
        x64 = x.astype(np.float64)
        fused = x64 @ p.w_qkv.astype(np.float64)
        for i, w in enumerate((p.w_q, p.w_k, p.w_v)):
            np.testing.assert_array_equal(fused[..., i * width:(i + 1) * width],
                                          x64 @ w.astype(np.float64))

    @pytest.mark.parametrize("lead,blocks", LAYOUTS)
    @pytest.mark.parametrize("heads,width,t", [(4, 128, 5), (4, 128, 64), (2, 8, 9),
                                               (1, 16, 1)])
    def test_self_attention_dispatch_keeps_bits(self, lead, blocks, heads, width, t):
        """mha_forward(x, x, p) takes the fused path, mha_forward(x, x.copy(), p)
        the separate one; with or without fuse_qkv views they agree."""
        gen = Rng(2 * width + t).generator("dispatch", len(lead), blocks or 0)
        p = self.attention(gen, heads, width, blocks)
        x = gen.standard_normal(lead + (t, width)).astype(F32)
        bias = gen.standard_normal((heads, t, t)).astype(F32)
        for b in (None, bias):
            separate = mha_forward(x, x.copy(), p, b)
            np.testing.assert_array_equal(mha_forward(x, x, p, b), separate)
            np.testing.assert_array_equal(mha_forward(x, x, fuse_qkv(p), b), separate)

    def test_fuse_qkv_keeps_one_copy(self):
        gen = Rng(21).generator("fuse")
        p = self.attention(gen, 2, 8, L_BLOCKS)
        fused = fuse_qkv(p)
        assert fused.w_qkv.shape == (L_BLOCKS, 8, 24)
        for name in ("w_q", "w_k", "w_v"):
            np.testing.assert_array_equal(getattr(fused, name), getattr(p, name))
            assert getattr(fused, name).base is fused.w_qkv
        assert fused.w_o is p.w_o

    def test_self_attention_still_checks_its_input(self):
        p = identity_attention(4)
        bad = np.full((2, 4), np.nan, dtype=F32)
        with pytest.raises(NumericError):
            mha_forward(bad, bad, p)
        wide = np.ones((2, 5), dtype=F32)
        with pytest.raises(DimensionError):
            mha_forward(wide, wide, p)
        cross = AttentionParams(1, 4, np.eye(4, dtype=F32), np.ones((3, 4), dtype=F32),
                                np.ones((3, 4), dtype=F32), np.eye(4, dtype=F32),
                                np.ones(4, dtype=F32), np.zeros(4, dtype=F32))
        x = np.ones((2, 4), dtype=F32)
        with pytest.raises(DimensionError):
            mha_forward(x, x, cross)

    @pytest.mark.parametrize("shape,gain_shape", [((6, 16), (16,)), ((2, 5, 128), (128,)),
                                                  ((5, 128), (L_BLOCKS, 1, 128)),
                                                  ((L_BLOCKS, 5, 128), (L_BLOCKS, 1, 128))])
    def test_layer_norm_equals_mean_var_formula(self, shape, gain_shape):
        gen = Rng(len(shape) + len(gain_shape)).generator("ln-ref", *shape)
        x = (gen.standard_normal(shape) * np.exp(gen.uniform(-8, 8, shape[:-1] + (1,)))
             + gen.uniform(-50, 50, shape[:-1] + (1,))).astype(F32)
        gain = gen.standard_normal(gain_shape).astype(F32)
        offset = gen.standard_normal(gain_shape).astype(F32)
        z = x.astype(np.float64)
        ref = ((z - z.mean(axis=-1, keepdims=True))
               / np.sqrt(z.var(axis=-1, keepdims=True) + 1e-5)
               * gain.astype(np.float64) + offset.astype(np.float64)).astype(F32)
        np.testing.assert_array_equal(layer_norm(x, gain, offset), ref)

    def test_float32_bias_add_equals_float64_add_then_round(self):
        gen = Rng(22).generator("bias-add")
        n = 400_000

        def spread(size):
            # Mantissas in [1, 2), exponents across the float32 range (subnormals,
            # near-overflow and everything between), both signs.
            m = gen.uniform(1.0, 2.0, size) * gen.choice([-1.0, 1.0], size)
            return np.ldexp(m, gen.integers(-150, 128, size)).astype(F32)

        y, b = spread(n), spread(n)
        near = gen.integers(0, n, n // 4)
        b[near] = -y[near] * gen.uniform(0.5, 1.0, near.size).astype(F32)  # cancellation
        with np.errstate(over="ignore"):   # sums past the float32 range are inf in both
            ref = (y.astype(np.float64) + b.astype(np.float64)).astype(F32)
            out = y + b
        assert np.isinf(out).any() and (out == 0).any()
        np.testing.assert_array_equal(out.view(np.uint32), ref.view(np.uint32))

    @pytest.mark.parametrize("blocks", [None, L_BLOCKS])
    def test_linear_equals_float64_bias_formula(self, blocks):
        gen = Rng(23).generator("linear-ref", blocks or 0)
        w_shape = (16, 24) if blocks is None else (blocks, 16, 24)
        b_shape = (24,) if blocks is None else (blocks, 1, 24)
        x = gen.standard_normal((5, 16)).astype(F32)
        w = gen.standard_normal(w_shape).astype(F32)
        b = (gen.standard_normal(b_shape) * 1e3).astype(F32)
        ref = (matmul(x, w).astype(np.float64) + b.astype(np.float64)).astype(F32)
        np.testing.assert_array_equal(linear(x, w, b), ref)
