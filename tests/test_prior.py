"""Prior tests: text embedding, VAE, denoiser delta injection, sampler, rollout."""
import numpy as np
import pytest

from remogen.errors import ConfigError, DimensionError, ProviderError
from remogen.mim import ModulationDelta
from remogen.motion import HistoryWindow, MotionSegment
from remogen.prior import (
    DiffusionSchedule,
    GenerationConfig,
    LossReport,
    ddpm_sample,
    decode_segment,
    denoiser_tokens,
    embed_text,
    encode_segment,
    losses,
    null_embedding,
    predict_clean_latent,
    rollout,
    sample_latent,
    seeded_prior_params,
)
from remogen.tensorcore import Rng

F32 = np.float32


@pytest.fixture(scope="module")
def small_params():
    # Small dims keep the sweep tests fast; the structure is the full one.
    return seeded_prior_params(Rng(5), feature_dim=12, history_len=2, future_len=4,
                               latent_dim=8, text_dim=8, width=16, heads=2,
                               n_blocks=2, ffn_hidden=32, vae_hidden=32)


@pytest.fixture(scope="module")
def small_history(small_params):
    gen = Rng(1).generator("hist")
    return HistoryWindow(gen.standard_normal((2, 12)).astype(F32))


class TestEmbedText:
    def test_empty_string_is_null(self):
        w = embed_text("")
        assert w.null_flag and np.all(w.values == 0)
        assert embed_text("   ").null_flag

    def test_deterministic(self):
        a = embed_text("walk forward quickly")
        b = embed_text("walk forward quickly")
        assert np.array_equal(a.values, b.values)

    def test_case_and_whitespace_normalized(self):
        a = embed_text("Walk  Forward")
        b = embed_text("walk forward")
        assert np.array_equal(a.values, b.values)

    def test_distinct_texts_not_parallel(self):
        a = embed_text("walk forward").values
        b = embed_text("sit down").values
        cos = float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
        assert cos < 1.0 - 1e-6


class TestVae:
    def test_decode_deterministic_and_shaped(self, small_params, small_history):
        z = Rng(2).generator("z").standard_normal(8, dtype=F32)
        a = decode_segment(small_history, z, small_params)
        b = decode_segment(small_history, z, small_params)
        assert a.frames.shape == (4, 12)
        assert np.array_equal(a.frames, b.frames)

    def test_default_future_length(self):
        params = seeded_prior_params(Rng(0))
        hist = HistoryWindow(np.zeros((2, params.feature_dim), dtype=F32))
        seg = decode_segment(hist, np.zeros(params.latent_dim, dtype=F32), params)
        assert seg.frames.shape == (8, params.feature_dim)

    def test_decode_smooth_in_latent(self, small_params, small_history):
        z = Rng(3).generator("z").standard_normal(8, dtype=F32)
        z2 = z.copy()
        z2[0] += 1e-6
        a = decode_segment(small_history, z, small_params)
        b = decode_segment(small_history, z2, small_params)
        assert np.max(np.abs(a.frames - b.frames)) < 1e-3

    def test_encode_moments(self, small_params, small_history):
        seg = MotionSegment(Rng(4).generator("f").standard_normal((4, 12)).astype(F32))
        mean, logvar = encode_segment(small_history, seg, small_params)
        mean2, logvar2 = encode_segment(small_history, seg, small_params)
        assert mean.shape == (8,) and logvar.shape == (8,)
        assert np.array_equal(mean, mean2) and np.array_equal(logvar, logvar2)

    def test_reparameterized_sample(self):
        mean = np.array([1.0, -2.0], dtype=F32)
        logvar = np.zeros(2, dtype=F32)
        # Zero noise passes the mean through regardless of the variance.
        np.testing.assert_array_equal(sample_latent(mean, logvar, np.zeros(2)), mean)
        # Collapsed variance passes the mean through regardless of the noise.
        tiny = np.full(2, -2000.0, dtype=F32)
        np.testing.assert_array_equal(sample_latent(mean, tiny, np.ones(2)), mean)

    def test_shape_errors(self, small_params, small_history):
        with pytest.raises(DimensionError):
            decode_segment(small_history, np.zeros(5, dtype=F32), small_params)
        with pytest.raises(DimensionError):
            encode_segment(small_history, MotionSegment(np.zeros((3, 12), dtype=F32)),
                           small_params)


class TestPredictCleanLatent:
    def test_zero_deltas_bit_equal(self, small_params, small_history):
        gen = Rng(6).generator("z")
        z_t = gen.standard_normal(8, dtype=F32)
        w = embed_text("turn left", dim=8)
        bare = predict_clean_latent(small_params, z_t, 3, small_history, w)
        zero = ModulationDelta("m", {0: np.zeros((5, 16), dtype=F32),
                                     1: np.zeros((5, 16), dtype=F32)})
        with_zero = predict_clean_latent(small_params, z_t, 3, small_history, w, zero)
        assert np.array_equal(bare, with_zero)

    def test_deterministic(self, small_params, small_history):
        z_t = Rng(7).generator("z").standard_normal(8, dtype=F32)
        w = null_embedding(8)
        a = predict_clean_latent(small_params, z_t, 0, small_history, w)
        b = predict_clean_latent(small_params, z_t, 0, small_history, w)
        assert np.array_equal(a, b)

    def test_large_delta_changes_output(self, small_params, small_history):
        z_t = Rng(8).generator("z").standard_normal(8, dtype=F32)
        w = null_embedding(8)
        bare = predict_clean_latent(small_params, z_t, 1, small_history, w)
        kicked = np.zeros((5, 16), dtype=F32)
        kicked[0, 0] = 10.0
        out = predict_clean_latent(small_params, z_t, 1, small_history, w,
                                   ModulationDelta("m", {0: kicked}))
        assert not np.array_equal(bare, out)

    def test_unknown_injection_layer(self, small_params, small_history):
        z_t = np.zeros(8, dtype=F32)
        with pytest.raises(ConfigError):
            predict_clean_latent(small_params, z_t, 0, small_history, null_embedding(8),
                                 ModulationDelta("m", {9: np.zeros((5, 16), dtype=F32)}))

    @pytest.mark.parametrize("layers", ["none", "zero", "some"])
    def test_batched_rows_equal_single_calls(self, small_params, small_history, layers):
        z_t = Rng(10).generator("z").standard_normal(8, dtype=F32)
        texts = (embed_text("turn left", dim=8), null_embedding(8))
        deltas = None
        if layers == "zero":
            deltas = ModulationDelta("m", {0: np.zeros((5, 16), dtype=F32),
                                           1: np.zeros((5, 16), dtype=F32)})
        elif layers == "some":
            kick = Rng(11).generator("d").standard_normal((5, 16)).astype(F32)
            deltas = ModulationDelta("m", {1: kick})
        batched = predict_clean_latent(small_params, z_t, 4, small_history, texts, deltas)
        assert batched.shape == (2, 8)
        for row, w in zip(batched, texts):
            single = predict_clean_latent(small_params, z_t, 4, small_history, w, deltas)
            np.testing.assert_array_equal(row, single)
        if layers == "some":
            bare = predict_clean_latent(small_params, z_t, 4, small_history, texts)
            assert not np.array_equal(batched, bare)

    def test_batched_delta_shape_checked(self, small_params, small_history):
        texts = (null_embedding(8), null_embedding(8))
        with pytest.raises(DimensionError):
            predict_clean_latent(small_params, np.zeros(8, dtype=F32), 0, small_history,
                                 texts, ModulationDelta("m", {0: np.zeros((4, 16), dtype=F32)}))

    def test_token_count(self, small_params, small_history):
        toks = denoiser_tokens(small_params, np.zeros(8, dtype=F32), 0, small_history,
                               null_embedding(8))
        assert toks.shape == (2 + 3, 16)

    def test_batched_tokens_equal_single_calls(self, small_params, small_history):
        z_t = Rng(13).generator("z").standard_normal(8, dtype=F32)
        texts = (embed_text("wave", dim=8), null_embedding(8), embed_text("sit", dim=8))
        toks = denoiser_tokens(small_params, z_t, 2, small_history, texts)
        assert toks.shape == (3, 5, 16)
        for row, w in zip(toks, texts):
            np.testing.assert_array_equal(
                row, denoiser_tokens(small_params, z_t, 2, small_history, w))


def pair_stub(fn):
    """Lift a one-text stub fn(z, t, h, w, d) -> (d_z,) to the batched denoise_fn contract."""
    return lambda z, t, h, texts, d: np.stack([fn(z, t, h, w, d) for w in texts])


class TestDdpmSample:
    def test_constant_stub_recovered(self, small_history):
        cfg = GenerationConfig(history_len=2, future_len=4, steps=10)
        z_star = np.linspace(-1, 1, 8).astype(F32)
        for seed in range(10):
            out = ddpm_sample(None, small_history, null_embedding(8), None, cfg,
                              Rng(seed), denoise_fn=pair_stub(lambda z, t, h, w, d: z_star),
                              latent_dim=8)
            assert np.max(np.abs(out - z_star)) < 1e-5

    def test_exactly_two_calls_per_step(self, small_history):
        cfg = GenerationConfig(steps=10)
        calls = {"passes": 0, "n": 0, "cond": 0, "uncond": 0}

        def stub(z, t, h, texts, d):
            calls["passes"] += 1
            for w in texts:
                calls["n"] += 1
                calls["uncond" if w.null_flag else "cond"] += 1
            return np.zeros((len(texts), 8), dtype=F32)

        ddpm_sample(None, small_history, embed_text("x", 8), None, cfg, Rng(0),
                    denoise_fn=stub, latent_dim=8)
        assert calls["passes"] == 10
        assert calls["n"] == 20
        assert calls["cond"] == 10 and calls["uncond"] == 10

    def test_guidance_one_ignores_unconditional(self, small_history):
        cfg = GenerationConfig(steps=6, guidance_scale=1.0)
        gen = Rng(9).generator("g")
        target = gen.standard_normal(8, dtype=F32)
        garbage = gen.standard_normal(8, dtype=F32) * 1e6

        def stub(z, t, h, w, d):
            return garbage if w.null_flag else target

        out = ddpm_sample(None, small_history, embed_text("x", 8), None, cfg, Rng(1),
                          denoise_fn=pair_stub(stub), latent_dim=8)
        clean = ddpm_sample(None, small_history, embed_text("x", 8), None, cfg, Rng(1),
                            denoise_fn=pair_stub(lambda z, t, h, w, d: target),
                            latent_dim=8)
        assert np.array_equal(out, clean)

    def test_deterministic_given_seed(self, small_params, small_history):
        cfg = GenerationConfig(steps=4)
        w = embed_text("spin", 8)
        a = ddpm_sample(small_params, small_history, w, None, cfg, Rng(3))
        b = ddpm_sample(small_params, small_history, w, None, cfg, Rng(3))
        assert np.array_equal(a, b)

    def test_deltas_provider_called_each_step(self, small_history):
        cfg = GenerationConfig(steps=5)
        seen = []

        def provider(z, t):
            seen.append(t)
            return None

        ddpm_sample(None, small_history, null_embedding(8), provider, cfg, Rng(2),
                    denoise_fn=pair_stub(lambda z, t, h, w, d: np.zeros(8, dtype=F32)),
                    latent_dim=8)
        assert seen == [4, 3, 2, 1, 0]


class TestSchedule:
    def test_linear_schedule_invariants(self):
        sched = DiffusionSchedule.linear(10)
        assert sched.steps == 10
        assert np.all(np.diff(sched.betas) > 0)
        assert np.all((sched.betas > 0) & (sched.betas < 1))
        assert np.all(np.diff(sched.alpha_bars) < 0)

    def test_rejects_flat_schedule(self):
        with pytest.raises(ConfigError):
            DiffusionSchedule(np.array([0.1, 0.1]))


class TestRollout:
    def test_zero_segments_empty(self, small_params):
        cfg = GenerationConfig(history_len=2, future_len=4, steps=3)
        out = rollout(small_params, "idle", 0, None, cfg, Rng(0))
        assert out.frames.shape == (0, 12)

    def test_length_and_determinism(self, small_params):
        cfg = GenerationConfig(history_len=2, future_len=4, steps=3)
        a = rollout(small_params, "wave", 3, None, cfg, Rng(4))
        b = rollout(small_params, "wave", 3, None, cfg, Rng(4))
        assert a.frames.shape == (12, 12)
        assert np.array_equal(a.frames, b.frames)

    def test_matches_manual_segment_loop(self, small_params):
        """Re-derive the rollout by hand: sample, decode, concat-truncate history."""
        cfg = GenerationConfig(history_len=2, future_len=4, steps=3)
        text = "walk then stop"
        out = rollout(small_params, text, 3, None, cfg, Rng(11))

        gen = Rng(11).generator("rollout", cfg.seed)
        w = embed_text(text, small_params.text_dim)
        frames = np.zeros((0, 12), dtype=F32)
        hist_frames = np.zeros((2, 12), dtype=F32)
        for _ in range(3):
            z0 = ddpm_sample(small_params, HistoryWindow(hist_frames), w, None, cfg, gen)
            seg = decode_segment(HistoryWindow(hist_frames), z0, small_params, fps=cfg.fps)
            frames = np.vstack([frames, seg.frames])
            hist_frames = np.vstack([hist_frames, seg.frames])[-2:]
        assert np.array_equal(out.frames, frames)

    def test_history_passed_to_providers(self, small_params):
        cfg = GenerationConfig(history_len=2, future_len=4, steps=2)
        seen = []

        def factory(i, history):
            seen.append((i, history.frames.copy()))
            return None

        out = rollout(small_params, "x", 3, factory, cfg, Rng(7))
        assert [i for i, _ in seen] == [0, 1, 2]
        # History before segment i equals the last H generated frames.
        np.testing.assert_array_equal(seen[1][1], out.frames[2:4])
        np.testing.assert_array_equal(seen[2][1], out.frames[6:8])

    def test_provider_failure_carries_segment_index(self, small_params):
        cfg = GenerationConfig(history_len=2, future_len=4, steps=2)

        def factory(i, history):
            if i == 2:
                raise RuntimeError("sensor offline")
            return None

        with pytest.raises(ProviderError) as err:
            rollout(small_params, "x", 4, factory, cfg, Rng(0))
        assert err.value.segment_index == 2


class TestLosses:
    def test_identical_inputs_zero(self):
        seg = MotionSegment(np.ones((3, 4), dtype=F32))
        z = np.ones(5, dtype=F32)
        report = losses(seg, seg, z, z)
        assert report == LossReport(0.0, 0.0)

    def test_unit_offset(self):
        a = MotionSegment(np.zeros((3, 4), dtype=F32))
        b = MotionSegment(np.ones((3, 4), dtype=F32))
        assert losses(a, b, np.zeros(2), np.zeros(2)).rec == pytest.approx(1.0)

    def test_matches_hand_mse(self):
        gen = Rng(5).generator("mse")
        x = gen.standard_normal((4, 3)).astype(F32)
        y = gen.standard_normal((4, 3)).astype(F32)
        zx = gen.standard_normal(6).astype(F32)
        zy = gen.standard_normal(6).astype(F32)
        report = losses(MotionSegment(x), MotionSegment(y), zx, zy)
        assert report.rec == pytest.approx(float(np.mean((x - y) ** 2)), rel=1e-6)
        assert report.latent == pytest.approx(float(np.mean((zx - zy) ** 2)), rel=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            losses(MotionSegment(np.zeros((2, 3), dtype=F32)),
                   MotionSegment(np.zeros((3, 3), dtype=F32)),
                   np.zeros(2), np.zeros(2))
