"""Prior tests: text embedding, VAE decoder, denoiser delta injection, sampler, rollout.

The segment-autoregressive rollout is driven by the runtime engine; its
segment mode is checked here against a hand loop over the prior's pieces.
"""
import numpy as np
import pytest
from decoder_reference import reference_decode
from schedule_reference import reference_coefficients, reference_sample
from token_reference import reference_tokens

from remogen.errors import ConfigError, DimensionError
from remogen.motion import FeatureLayout, rest_history
from remogen.prior import (
    ddpm_sample,
    decode_batch,
    decode_segment,
    decoder_sensitivity,
    denoiser_tokens,
    embed_text,
    posterior_table,
    predict_clean_latent,
    project_history,
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
def engine_prior():
    return Engine(init_weights(EngineConfig(), 3), EngineConfig()).prior


@pytest.fixture(scope="module")
def small_history(small_params):
    gen = Rng(1).generator("hist")
    return gen.standard_normal((2, 12)).astype(F32)


@pytest.fixture(scope="module")
def small_projection(small_params, small_history):
    return project_history(small_history, small_params)


class TestEmbedText:
    def test_empty_string_is_null(self):
        assert embed_text("", 32) is None
        assert embed_text("   ", 32) is None

    def test_deterministic(self):
        a = embed_text("walk forward quickly", 32)
        b = embed_text("walk forward quickly", 32)
        assert a.shape == (32,) and a.dtype == F32
        assert np.array_equal(a, b)

    def test_case_and_whitespace_normalized(self):
        a = embed_text("Walk  Forward", 32)
        b = embed_text("walk forward", 32)
        assert np.array_equal(a, b)

    def test_distinct_texts_not_parallel(self):
        a = embed_text("walk forward", 32)
        b = embed_text("sit down", 32)
        cos = float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
        assert cos < 1.0 - 1e-6


class TestVae:
    def test_decode_deterministic_and_shaped(self, small_params, small_projection):
        z = Rng(2).generator("z").standard_normal(8, dtype=F32)
        a = decode_segment(small_projection, z, small_params)
        b = decode_segment(small_projection, z, small_params)
        assert a.shape == (4, 12) and a.dtype == F32
        assert np.array_equal(a, b)

    def test_default_future_length(self, engine_prior):
        params = engine_prior
        hist = np.zeros((2, params.feature_dim), dtype=F32)
        seg = decode_segment(project_history(hist, params),
                             np.zeros(params.latent_dim, dtype=F32), params)
        assert seg.shape == (8, params.feature_dim)

    def test_decode_smooth_in_latent(self, small_params, small_projection):
        z = Rng(3).generator("z").standard_normal(8, dtype=F32)
        z2 = z.copy()
        z2[0] += 1e-6
        a = decode_segment(small_projection, z, small_params)
        b = decode_segment(small_projection, z2, small_params)
        assert np.max(np.abs(a - b)) < 1e-3

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
            m_h = project_history(
                gen.standard_normal((params.history_len, d)).astype(F32), params)
            f = case % f_len
            if case % 2 == 0:
                z = gen.standard_normal(params.latent_dim, dtype=F32)
                full = decode_segment(m_h, z, params)
                one = decode_segment(m_h, z, params, frames=slice(f, f + 1))
                assert one.shape == (1, d)
                assert np.array_equal(one[0], full[f]), (case, f)
            else:
                zs = gen.standard_normal((1 + case % 3, params.latent_dim), dtype=F32)
                full = decode_batch(m_h, zs, params)
                one = decode_batch(m_h, zs, params, slice(f, f + 1))
                assert one.shape == (len(zs), 1, d)
                assert np.array_equal(one[:, 0], full[:, f]), (case, f)

    def test_frame_range_is_a_contiguous_slice(self, small_params, small_projection):
        z = Rng(41).generator("z").standard_normal(8, dtype=F32)
        full = decode_segment(small_projection, z, small_params)
        middle = decode_segment(small_projection, z, small_params, frames=slice(1, 3))
        np.testing.assert_array_equal(middle, full[1:3])
        np.testing.assert_array_equal(
            decode_segment(small_projection, z, small_params, frames=slice(None, 4)),
            full)

    @pytest.mark.parametrize("frames", [slice(2, 2), slice(3, 1), slice(0, 5), slice(4, 5),
                                        slice(-1, None), slice(0, 4, 2), slice(0, 4, -1)],
                             ids=repr)
    def test_bad_frame_range_rejected(self, frames, small_params, small_projection):
        z = np.zeros(small_params.latent_dim, dtype=F32)
        with pytest.raises(DimensionError):
            decode_segment(small_projection, z, small_params, frames=frames)
        with pytest.raises(DimensionError):
            decode_batch(small_projection, z[None, :], small_params, frames)

    def test_shape_errors(self, small_params, small_projection):
        with pytest.raises(DimensionError):
            decode_segment(small_projection, np.zeros(5, dtype=F32), small_params)

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("compact", [False, True], ids=["engine", "compact"])
    def test_projected_history_decodes_bit_for_bit(self, compact, n, small_params,
                                                   engine_prior):
        """A decode through a history projection equals the one-product
        reference decoder bit for bit, for every one-frame range and the full
        range, batched and one latent at a time."""
        params = small_params if compact else engine_prior
        gen = Rng(42).generator("projection", n, int(compact))
        ranges = [slice(None)] + [slice(f, f + 1) for f in range(params.future_len)]
        for _ in range(12):
            m_h = gen.standard_normal((params.history_len, params.feature_dim)).astype(F32)
            zs = gen.standard_normal((n, params.latent_dim), dtype=F32)
            projection = project_history(m_h, params)
            assert projection.shape == (1, params.vae_dec.w1.shape[1])
            assert projection.dtype == np.float64
            reference = reference_decode(m_h, zs, params)
            for frames in ranges:
                via = decode_batch(projection, zs, params, frames)
                assert np.array_equal(via, reference[:, frames]), frames
                for z, row in zip(zs, via):
                    one = decode_segment(projection, z, params, frames=frames)
                    assert np.array_equal(one, row), frames

    def test_projection_dimension_errors(self, small_params, small_history):
        """A history or latent that does not fit the prior is a DimensionError,
        when the history is projected or when the projection is decoded."""
        frames = small_history
        for bad in (frames[:, :-1], frames[:1], np.vstack([frames, frames[:1]]),
                    frames.reshape(-1), frames[None]):
            with pytest.raises(DimensionError, match="does not match"):
                project_history(bad, small_params)
        projection = project_history(small_history, small_params)
        for zs in (np.zeros((1, 7), dtype=F32), np.zeros((1, 9), dtype=F32),
                   np.zeros(8, dtype=F32), np.zeros((1, 1, 8), dtype=F32)):
            with pytest.raises(DimensionError):
                decode_batch(projection, zs, small_params)
        for z in (np.zeros(5, dtype=F32), np.zeros(9, dtype=F32)):
            with pytest.raises(DimensionError):
                decode_segment(projection, z, small_params)
            with pytest.raises(DimensionError):
                decoder_sensitivity(projection, z, small_params)
        # A projection built for a prior of another hidden width is caught
        # where it is used.
        z = np.zeros(small_params.latent_dim, dtype=F32)
        narrow = seeded_prior_params(Rng(5), feature_dim=12, history_len=2, future_len=4,
                                     latent_dim=8, text_dim=8, width=16, heads=2,
                                     n_blocks=2, ffn_hidden=32, vae_hidden=16)
        bad = project_history(small_history, narrow)
        with pytest.raises(DimensionError):
            decode_segment(bad, z, small_params)
        with pytest.raises(DimensionError):
            decoder_sensitivity(bad, z, small_params)


def embed(params, z_t, t, m_h, text):
    """The (text, null) tokens of one step: the segment's rows, then the step's."""
    return denoiser_tokens(params, z_t, t, segment_tokens(params, m_h, text))


def clean_latent(params, z_t, t, m_h, text, residuals=None):
    """The denoiser on one (z_t, t, m_h): embed the text, then run the blocks."""
    return predict_clean_latent(params, embed(params, z_t, t, m_h, text), residuals)


class TestPredictCleanLatent:
    def test_zero_deltas_bit_equal(self, small_params, small_history):
        gen = Rng(6).generator("z")
        z_t = gen.standard_normal(8, dtype=F32)
        w = "turn left"
        bare = clean_latent(small_params, z_t, 3, small_history, w)
        zero = {0: np.zeros((5, 16), dtype=F32), 1: np.zeros((5, 16), dtype=F32)}
        with_zero = clean_latent(small_params, z_t, 3, small_history, w, zero)
        assert np.array_equal(bare, with_zero)

    def test_deterministic(self, small_params, small_history):
        z_t = Rng(7).generator("z").standard_normal(8, dtype=F32)
        w = ""
        a = clean_latent(small_params, z_t, 0, small_history, w)
        b = clean_latent(small_params, z_t, 0, small_history, w)
        assert np.array_equal(a, b)

    def test_large_delta_changes_output(self, small_params, small_history):
        z_t = Rng(8).generator("z").standard_normal(8, dtype=F32)
        w = ""
        bare = clean_latent(small_params, z_t, 1, small_history, w)
        kicked = np.zeros((5, 16), dtype=F32)
        kicked[0, 0] = 10.0
        out = clean_latent(small_params, z_t, 1, small_history, w,
                           {0: kicked})
        assert not np.array_equal(bare, out)

    def test_unknown_injection_layer(self, small_params, small_history):
        z_t = np.zeros(8, dtype=F32)
        with pytest.raises(ConfigError):
            clean_latent(small_params, z_t, 0, small_history, "",
                         {9: np.zeros((5, 16), dtype=F32)})

    @pytest.mark.parametrize("layers", ["none", "zero", "some"])
    def test_batched_rows_equal_single_calls(self, small_params, small_history, layers):
        z_t = Rng(10).generator("z").standard_normal(8, dtype=F32)
        tokens = embed(small_params, z_t, 4, small_history, "turn left")
        residuals = None
        if layers == "zero":
            residuals = {0: np.zeros((5, 16), dtype=F32), 1: np.zeros((5, 16), dtype=F32)}
        elif layers == "some":
            residuals = {1: Rng(11).generator("d").standard_normal((5, 16)).astype(F32)}
        batched = predict_clean_latent(small_params, tokens, residuals)
        assert batched.shape == (2, 8)
        for b, row in enumerate(batched):
            single = predict_clean_latent(small_params, tokens[b:b + 1], residuals)
            assert single.shape == (1, 8)
            np.testing.assert_array_equal(row, single[0])
        if layers == "some":
            bare = predict_clean_latent(small_params, tokens)
            assert not np.array_equal(batched, bare)

    def test_zero_rows_of_a_stack_are_skipped(self, small_params, small_history):
        z_t = Rng(12).generator("z").standard_normal(8, dtype=F32)
        text = "turn left"
        kick = Rng(13).generator("d").standard_normal((5, 16)).astype(F32)
        stacked = {0: np.zeros_like(kick), 1: kick}
        alone = {1: kick}
        np.testing.assert_array_equal(
            clean_latent(small_params, z_t, 2, small_history, text, stacked),
            clean_latent(small_params, z_t, 2, small_history, text, alone))

    def test_token_count(self, small_params, small_history):
        toks = embed(small_params, np.zeros(8, dtype=F32), 0, small_history, "")
        assert toks.shape == (2, 2 + 3, 16)

    def test_null_row_does_not_depend_on_text(self, small_params, small_history):
        """Row 1 is the null row whatever the text; a text with no tokens
        conditions row 0 on the null token too."""
        z_t = Rng(13).generator("z").standard_normal(8, dtype=F32)
        null = embed(small_params, z_t, 2, small_history, "")
        np.testing.assert_array_equal(null[0], null[1])
        for text in ("wave", "sit"):
            toks = embed(small_params, z_t, 2, small_history, text)
            np.testing.assert_array_equal(toks[1], null[1])
            assert not np.array_equal(toks[0], null[0])

    @pytest.mark.parametrize("t", [0, 3, 9])
    def test_hoisted_tokens_equal_per_step_reference(self, small_params, small_history, t):
        """Rows built once per segment plus the step's rows equal the per-step
        float64 embedding bit for bit, for any text, history and step."""
        gen = Rng(14 + t).generator("tokens")
        for text in ("wave", "", "sit down"):
            m_h = gen.standard_normal((2, 12)).astype(F32) * 3
            prefix = segment_tokens(small_params, m_h, text)
            for _ in range(3):
                z_t = gen.standard_normal(8, dtype=F32) * 2
                np.testing.assert_array_equal(
                    denoiser_tokens(small_params, z_t, t, prefix),
                    reference_tokens(small_params, z_t, t, m_h, text))

    def test_segment_rows_are_not_shared_with_a_step(self, small_params, small_history):
        prefix = segment_tokens(small_params, small_history, "")
        before = prefix.copy()
        toks = denoiser_tokens(small_params, np.ones(8, dtype=F32), 1, prefix)
        toks[:] = 0
        np.testing.assert_array_equal(prefix, before)
        np.testing.assert_array_equal(small_params.time_token(1),
                                      reference_tokens(small_params, np.ones(8, dtype=F32), 1,
                                                       small_history, "")[0, :1])

    def test_segment_tokens_check_dimensions(self, small_params, small_history):
        with pytest.raises(DimensionError):
            segment_tokens(small_params, np.zeros((3, 12), dtype=F32), "")


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
        seen = []

        def provider(tokens, t):
            assert tokens.shape[0] == 2
            seen.append(t)
            return None

        prefix = segment_tokens(small_params, small_history, "x")

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
        def denoise(z_t, t):
            return clean_latent(small_params, z_t, t, small_history, "spin")

        a = ddpm_sample(denoise, 8, 4, 2.0, Rng(3).generator("ddpm", 0))
        b = ddpm_sample(denoise, 8, 4, 2.0, Rng(3).generator("ddpm", 0))
        assert np.array_equal(a, b)


class TestSchedule:
    @pytest.mark.parametrize("steps", [1, 2, 3, 10, 50])
    def test_table_matches_per_step_reference(self, steps):
        """The cached table holds the per-step scalar math's coefficients bit
        for bit, and the sampler over it draws the reference's latents."""
        table = np.array(posterior_table(steps), dtype=np.float64)
        expected = np.array(reference_coefficients(steps), dtype=np.float64)
        assert table.shape == (steps, 3)
        np.testing.assert_array_equal(table.view(np.int64), expected.view(np.int64))
        assert posterior_table(steps) is posterior_table(steps)

        w = np.linspace(-1.0, 1.0, 8 * 8).reshape(8, 8).astype(F32)

        def denoise(z, t):
            # Depends on z and t, and differs per branch, so every coefficient counts.
            return np.stack([np.tanh(z @ w) + 0.1 * t, np.cos(z) - 0.05 * t]).astype(F32)

        for s in (1.0, 2.5):
            np.testing.assert_array_equal(
                ddpm_sample(denoise, 8, steps, s, Rng(steps).generator("ddpm", 0)),
                reference_sample(denoise, 8, steps, s, Rng(steps).generator("ddpm", 0)))

    @pytest.mark.parametrize("steps", [0, -1])
    def test_rejects_empty_chain(self, steps):
        calls = []
        with pytest.raises(DimensionError):
            ddpm_sample(lambda z, t: calls.append(t), 8, steps, 2.0,
                        Rng(0).generator("ddpm", 0))
        assert calls == []


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
        history = rest_history(cfg.history_len, FeatureLayout(cfg.joints))
        frames = []
        for _ in range(3):
            def denoise(z_t, t, m_h=history):
                return predict_clean_latent(params, reference_tokens(params, z_t, t, m_h, text))

            z0 = ddpm_sample(denoise, params.latent_dim, cfg.steps, cfg.guidance_scale, gen)
            seg = decode_segment(project_history(history, params), z0, params)
            frames.append(seg)
            history = np.vstack([history, seg])[-cfg.history_len:]
        assert np.array_equal(out, np.vstack(frames))

    def test_history_passed_to_providers(self, rollout_archive, monkeypatch):
        """Every denoising step embeds the last H emitted frames as its history
        tokens, which the denoiser and the modules share: each segment embeds
        its history once, and each of its steps gets exactly those rows."""
        import remogen.runtime.engine as engine_module

        segments, steps_seen = [], []
        real_segment, real_tokens = engine_module.segment_tokens, engine_module.denoiser_tokens

        def recording_segment(params, m_h, text):
            prefix = real_segment(params, m_h, text)
            segments.append((m_h.copy(), prefix.copy()))
            return prefix

        def recording_tokens(params, z_t, t, prefix):
            tokens = real_tokens(params, z_t, t, prefix)
            steps_seen.append(tokens.copy())
            return tokens

        monkeypatch.setattr(engine_module, "segment_tokens", recording_segment)
        monkeypatch.setattr(engine_module, "denoiser_tokens", recording_tokens)
        engine = segment_engine(rollout_archive, "x")
        seed_frames = engine.state.history.copy()
        out = np.stack(engine.run_ticks(12))
        steps = ROLLOUT_CFG.steps
        assert len(segments) == 3 and len(steps_seen) == 3 * steps
        for k, expected in enumerate([seed_frames, out[2:4], out[6:8]]):
            frames, prefix = segments[k]
            np.testing.assert_array_equal(frames, expected)
            for tokens in steps_seen[k * steps:(k + 1) * steps]:
                np.testing.assert_array_equal(tokens[:, 1:-1], prefix[:, 1:-1])

