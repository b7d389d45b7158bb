"""Prior tests: text embedding, VAE, denoiser delta injection, sampler, rollout.

The segment-autoregressive rollout is driven by the runtime engine; its
segment mode is checked here against a hand loop over the prior's pieces.
"""
import numpy as np
import pytest
from token_reference import reference_tokens

from remogen.errors import ConfigError, DimensionError
from remogen.mim import ModulationDelta
from remogen.motion import (
    FeatureLayout,
    HistoryWindow,
    MotionSegment,
    rest_history,
    update_history,
)
from remogen.prior import (
    DiffusionSchedule,
    LossReport,
    ddpm_sample,
    decode_batch,
    decode_segment,
    denoiser_tokens,
    embed_text,
    encode_segment,
    losses,
    null_embedding,
    predict_clean_latent,
    sample_latent,
    seeded_prior_params,
    segment_tokens,
)
from remogen.runtime import Engine, EngineConfig, init_weights
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

    @pytest.mark.parametrize("compact", [False, True], ids=["engine", "compact"])
    def test_one_frame_range_equals_full_decode(self, compact, small_params):
        """Frame f of a one-frame decode equals frame f of the full decode bit
        for bit, for every f, in decode_segment and in decode_batch."""
        if compact:
            params = small_params
        else:
            params = Engine(init_weights(EngineConfig(), 3), EngineConfig()).prior
        gen = Rng(40).generator("range", int(compact))
        f_len, d = params.future_len, params.feature_dim
        for case in range(320):
            m_h = HistoryWindow(gen.standard_normal((params.history_len, d)).astype(F32))
            f = case % f_len
            if case % 2 == 0:
                z = gen.standard_normal(params.latent_dim, dtype=F32)
                full = decode_segment(m_h, z, params).frames
                one = decode_segment(m_h, z, params, frames=slice(f, f + 1)).frames
                assert one.shape == (1, d)
                assert np.array_equal(one[0], full[f]), (case, f)
            else:
                zs = gen.standard_normal((1 + case % 3, params.latent_dim), dtype=F32)
                full = decode_batch(m_h, zs, params)
                one = decode_batch(m_h, zs, params, slice(f, f + 1))
                assert one.shape == (len(zs), 1, d)
                assert np.array_equal(one[:, 0], full[:, f]), (case, f)

    def test_frame_range_is_a_contiguous_slice(self, small_params, small_history):
        z = Rng(41).generator("z").standard_normal(8, dtype=F32)
        full = decode_segment(small_history, z, small_params).frames
        middle = decode_segment(small_history, z, small_params, frames=slice(1, 3)).frames
        np.testing.assert_array_equal(middle, full[1:3])
        np.testing.assert_array_equal(
            decode_segment(small_history, z, small_params, frames=slice(None, 4)).frames,
            full)

    @pytest.mark.parametrize("frames", [slice(2, 2), slice(3, 1), slice(0, 5), slice(4, 5),
                                        slice(-1, None), slice(0, 4, 2), slice(0, 4, -1)],
                             ids=repr)
    def test_bad_frame_range_rejected(self, frames, small_params, small_history):
        z = np.zeros(small_params.latent_dim, dtype=F32)
        with pytest.raises(DimensionError):
            decode_segment(small_history, z, small_params, frames=frames)
        with pytest.raises(DimensionError):
            decode_batch(small_history, z[None, :], small_params, frames)

    def test_shape_errors(self, small_params, small_history):
        with pytest.raises(DimensionError):
            decode_segment(small_history, np.zeros(5, dtype=F32), small_params)
        with pytest.raises(DimensionError):
            encode_segment(small_history, MotionSegment(np.zeros((3, 12), dtype=F32)),
                           small_params)


def embed(params, z_t, t, m_h, texts):
    """The tokens of one step: the segment's rows, then the step's."""
    return denoiser_tokens(params, z_t, t, segment_tokens(params, m_h, texts))


def clean_latent(params, z_t, t, m_h, texts, deltas=None):
    """The denoiser on one (z_t, t, m_h): embed the texts, then run the blocks."""
    return predict_clean_latent(params, embed(params, z_t, t, m_h, texts), deltas)


class TestPredictCleanLatent:
    def test_zero_deltas_bit_equal(self, small_params, small_history):
        gen = Rng(6).generator("z")
        z_t = gen.standard_normal(8, dtype=F32)
        w = (embed_text("turn left", dim=8),)
        bare = clean_latent(small_params, z_t, 3, small_history, w)
        zero = ModulationDelta("m", (0, 1), np.zeros((2, 5, 16), dtype=F32))
        with_zero = clean_latent(small_params, z_t, 3, small_history, w, zero)
        assert np.array_equal(bare, with_zero)

    def test_deterministic(self, small_params, small_history):
        z_t = Rng(7).generator("z").standard_normal(8, dtype=F32)
        w = (null_embedding(8),)
        a = clean_latent(small_params, z_t, 0, small_history, w)
        b = clean_latent(small_params, z_t, 0, small_history, w)
        assert np.array_equal(a, b)

    def test_large_delta_changes_output(self, small_params, small_history):
        z_t = Rng(8).generator("z").standard_normal(8, dtype=F32)
        w = (null_embedding(8),)
        bare = clean_latent(small_params, z_t, 1, small_history, w)
        kicked = np.zeros((5, 16), dtype=F32)
        kicked[0, 0] = 10.0
        out = clean_latent(small_params, z_t, 1, small_history, w,
                           ModulationDelta("m", (0,), kicked[None]))
        assert not np.array_equal(bare, out)

    def test_unknown_injection_layer(self, small_params, small_history):
        z_t = np.zeros(8, dtype=F32)
        with pytest.raises(ConfigError):
            clean_latent(small_params, z_t, 0, small_history, (null_embedding(8),),
                         ModulationDelta("m", (9,), np.zeros((1, 5, 16), dtype=F32)))

    @pytest.mark.parametrize("layers", ["none", "zero", "some"])
    def test_batched_rows_equal_single_calls(self, small_params, small_history, layers):
        z_t = Rng(10).generator("z").standard_normal(8, dtype=F32)
        texts = (embed_text("turn left", dim=8), null_embedding(8))
        deltas = None
        if layers == "zero":
            deltas = ModulationDelta("m", (0, 1), np.zeros((2, 5, 16), dtype=F32))
        elif layers == "some":
            kick = Rng(11).generator("d").standard_normal((5, 16)).astype(F32)
            deltas = ModulationDelta("m", (1,), kick[None])
        batched = clean_latent(small_params, z_t, 4, small_history, texts, deltas)
        assert batched.shape == (2, 8)
        for row, w in zip(batched, texts):
            single = clean_latent(small_params, z_t, 4, small_history, (w,), deltas)
            assert single.shape == (1, 8)
            np.testing.assert_array_equal(row, single[0])
        if layers == "some":
            bare = clean_latent(small_params, z_t, 4, small_history, texts)
            assert not np.array_equal(batched, bare)

    def test_batched_delta_shape_checked(self, small_params, small_history):
        texts = (null_embedding(8), null_embedding(8))
        with pytest.raises(DimensionError):
            clean_latent(small_params, np.zeros(8, dtype=F32), 0, small_history,
                         texts, ModulationDelta("m", (0,), np.zeros((1, 4, 16), dtype=F32)))

    def test_zero_rows_of_a_stack_are_skipped(self, small_params, small_history):
        z_t = Rng(12).generator("z").standard_normal(8, dtype=F32)
        texts = (embed_text("turn left", dim=8), null_embedding(8))
        kick = Rng(13).generator("d").standard_normal((5, 16)).astype(F32)
        stacked = ModulationDelta("m", (0, 1), np.stack([np.zeros_like(kick), kick]))
        alone = ModulationDelta("m", (1,), kick[None])
        np.testing.assert_array_equal(
            clean_latent(small_params, z_t, 2, small_history, texts, stacked),
            clean_latent(small_params, z_t, 2, small_history, texts, alone))

    def test_token_count(self, small_params, small_history):
        toks = embed(small_params, np.zeros(8, dtype=F32), 0, small_history,
                     (null_embedding(8),))
        assert toks.shape == (1, 2 + 3, 16)

    def test_batched_tokens_equal_single_calls(self, small_params, small_history):
        z_t = Rng(13).generator("z").standard_normal(8, dtype=F32)
        texts = (embed_text("wave", dim=8), null_embedding(8), embed_text("sit", dim=8))
        toks = embed(small_params, z_t, 2, small_history, texts)
        assert toks.shape == (3, 5, 16)
        for row, w in zip(toks, texts):
            np.testing.assert_array_equal(
                row, embed(small_params, z_t, 2, small_history, (w,))[0])

    @pytest.mark.parametrize("t", [0, 3, 9])
    def test_hoisted_tokens_equal_per_step_reference(self, small_params, small_history, t):
        """Rows built once per segment plus the step's rows equal the per-step
        float64 embedding bit for bit, for any texts, history and step."""
        gen = Rng(14 + t).generator("tokens")
        texts = (embed_text("wave", dim=8), null_embedding(8), embed_text("sit down", dim=8))
        for _ in range(5):
            m_h = HistoryWindow(gen.standard_normal((2, 12)).astype(F32) * 3)
            prefix = segment_tokens(small_params, m_h, texts)
            for _ in range(3):
                z_t = gen.standard_normal(8, dtype=F32) * 2
                np.testing.assert_array_equal(
                    denoiser_tokens(small_params, z_t, t, prefix),
                    reference_tokens(small_params, z_t, t, m_h, texts))

    def test_segment_rows_are_not_shared_with_a_step(self, small_params, small_history):
        texts = (null_embedding(8),)
        prefix = segment_tokens(small_params, small_history, texts)
        before = prefix.copy()
        toks = denoiser_tokens(small_params, np.ones(8, dtype=F32), 1, prefix)
        toks[:] = 0
        np.testing.assert_array_equal(prefix, before)
        np.testing.assert_array_equal(small_params.time_token(1),
                                      reference_tokens(small_params, np.ones(8, dtype=F32), 1,
                                                       small_history, texts)[0, :1])

    def test_segment_tokens_check_dimensions(self, small_params, small_history):
        with pytest.raises(DimensionError):
            segment_tokens(small_params, HistoryWindow(np.zeros((3, 12), dtype=F32)),
                           (null_embedding(8),))
        with pytest.raises(DimensionError):
            segment_tokens(small_params, small_history, (embed_text("wave", dim=6),))


def pair_stub(fn):
    """Lift a per-branch stub fn(z, t, cond) -> (d_z,) to the denoise(z_t, t)
    contract: the conditional row, then the unconditional one."""
    return lambda z, t: np.stack([fn(z, t, True), fn(z, t, False)])


class TestDdpmSample:
    def test_constant_stub_recovered(self):
        z_star = np.linspace(-1, 1, 8).astype(F32)
        for seed in range(10):
            out = ddpm_sample(pair_stub(lambda z, t, cond: z_star), 8, 10, 2.0,
                              Rng(seed).generator("ddpm", 0))
            assert np.max(np.abs(out - z_star)) < 1e-5

    def test_exactly_two_calls_per_step(self):
        """Two denoiser evaluations per step, as one call returning both rows,
        with t counting down from steps - 1."""
        calls = {"passes": 0, "n": 0, "t": []}

        def stub(z, t):
            assert z.shape == (8,) and z.dtype == F32
            calls["passes"] += 1
            calls["t"].append(t)
            rows = np.zeros((2, 8), dtype=F32)
            calls["n"] += len(rows)
            return rows

        ddpm_sample(stub, 8, 10, 2.0, Rng(0).generator("ddpm", 0))
        assert calls["passes"] == 10
        assert calls["n"] == 20
        assert calls["t"] == list(range(9, -1, -1))

    def test_deltas_provider_called_each_step(self, small_params, small_history):
        """A per-step deltas provider inside denoise, as the engine builds it,
        sees each step's tokens once, with t counting down."""
        texts = (embed_text("x", 8), null_embedding(8))
        seen = []

        def provider(tokens, t):
            assert tokens.shape[0] == 2
            seen.append(t)
            return None

        prefix = segment_tokens(small_params, small_history, texts)

        def denoise(z_t, t):
            tokens = denoiser_tokens(small_params, z_t, t, prefix)
            return predict_clean_latent(small_params, tokens, provider(tokens, t))

        ddpm_sample(denoise, 8, 5, 2.0, Rng(2).generator("ddpm", 0))
        assert seen == [4, 3, 2, 1, 0]

    def test_guidance_one_ignores_unconditional(self):
        gen = Rng(9).generator("g")
        target = gen.standard_normal(8, dtype=F32)
        garbage = gen.standard_normal(8, dtype=F32) * 1e6

        def stub(z, t, cond):
            return target if cond else garbage

        out = ddpm_sample(pair_stub(stub), 8, 6, 1.0, Rng(1).generator("ddpm", 0))
        clean = ddpm_sample(pair_stub(lambda z, t, cond: target), 8, 6, 1.0,
                            Rng(1).generator("ddpm", 0))
        assert np.array_equal(out, clean)

    def test_deterministic_given_seed(self, small_params, small_history):
        texts = (embed_text("spin", 8), null_embedding(8))

        def denoise(z_t, t):
            return clean_latent(small_params, z_t, t, small_history, texts)

        a = ddpm_sample(denoise, 8, 4, 2.0, Rng(3).generator("ddpm", 0))
        b = ddpm_sample(denoise, 8, 4, 2.0, Rng(3).generator("ddpm", 0))
        assert np.array_equal(a, b)


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


# A small rollout engine. init_weights leaves the normalizer at the identity,
# so emitted and normalized frames are the same numbers.
ROLLOUT_CFG = EngineConfig(history_len=2, future_len=4, steps=3, latent_dim=8,
                           text_dim=8, width=16, heads=2, n_blocks=2, ffn_hidden=32,
                           vae_hidden=32, injection_layers=(0, 1), seed=11)


@pytest.fixture(scope="module")
def rollout_archive():
    return init_weights(ROLLOUT_CFG, seed=5)


def segment_engine(archive, text=""):
    engine = Engine(archive, ROLLOUT_CFG, mode="segment")
    engine.set_text(text)
    return engine


class TestRollout:
    def test_zero_segments_empty(self, rollout_archive):
        engine = segment_engine(rollout_archive, "idle")
        assert engine.run_ticks(0) == []
        # Ticks short of a segment boundary emit nothing.
        assert all(engine.tick() == [] for _ in range(ROLLOUT_CFG.future_len - 1))

    def test_length_and_determinism(self, rollout_archive):
        a = np.stack(segment_engine(rollout_archive, "wave").run_ticks(12))
        b = np.stack(segment_engine(rollout_archive, "wave").run_ticks(12))
        assert a.shape == (12, FeatureLayout(ROLLOUT_CFG.joints).dim)
        assert np.array_equal(a, b)

    def test_matches_manual_segment_loop(self, rollout_archive):
        """Re-derive segment mode by hand: sample, decode, concat-truncate history."""
        cfg = ROLLOUT_CFG
        text = "walk then stop"
        engine = segment_engine(rollout_archive, text)
        out = np.stack(engine.run_ticks(3 * cfg.future_len))

        params = engine.prior
        gen = Rng(cfg.seed).generator("engine")
        texts = (embed_text(text, params.text_dim), null_embedding(params.text_dim))
        history = rest_history(cfg.history_len, FeatureLayout(cfg.joints), fps=cfg.fps)
        frames = []
        for _ in range(3):
            def denoise(z_t, t, m_h=history):
                return predict_clean_latent(params, reference_tokens(params, z_t, t, m_h, texts))

            z0 = ddpm_sample(denoise, params.latent_dim, cfg.steps, cfg.guidance_scale, gen)
            seg = decode_segment(history, z0, params, fps=cfg.fps)
            frames.append(seg.frames)
            history = update_history(history, seg)
        assert np.array_equal(out, np.vstack(frames))

    def test_history_passed_to_providers(self, rollout_archive, monkeypatch):
        """Every denoising step embeds the last H emitted frames as its history
        tokens, which the denoiser and the modules share: each segment embeds
        its history once, and each of its steps gets exactly those rows."""
        import remogen.runtime.engine as engine_module

        segments, steps_seen = [], []
        real_segment, real_tokens = engine_module.segment_tokens, engine_module.denoiser_tokens

        def recording_segment(params, m_h, texts):
            prefix = real_segment(params, m_h, texts)
            segments.append((m_h.frames.copy(), prefix.copy()))
            return prefix

        def recording_tokens(params, z_t, t, prefix):
            tokens = real_tokens(params, z_t, t, prefix)
            steps_seen.append(tokens.copy())
            return tokens

        monkeypatch.setattr(engine_module, "segment_tokens", recording_segment)
        monkeypatch.setattr(engine_module, "denoiser_tokens", recording_tokens)
        engine = segment_engine(rollout_archive, "x")
        seed_frames = engine.history.frames.copy()
        out = np.stack(engine.run_ticks(12))
        steps = ROLLOUT_CFG.steps
        assert len(segments) == 3 and len(steps_seen) == 3 * steps
        for k, expected in enumerate([seed_frames, out[2:4], out[6:8]]):
            frames, prefix = segments[k]
            np.testing.assert_array_equal(frames, expected)
            for tokens in steps_seen[k * steps:(k + 1) * steps]:
                np.testing.assert_array_equal(tokens[:, 1:-1], prefix[:, 1:-1])


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
