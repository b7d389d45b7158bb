"""Refinement tests: sensitivity probe, safe scaling, the per-frame loop."""
import dataclasses

import numpy as np
import pytest
from decoder_reference import window_decoder
from sensitivity_oracle import estimate_sensitivity

from remogen.errors import DimensionError, NumericError
from remogen.fwsr import (
    FwsrParams,
    refine_latent,
    seeded_fwsr_params,
)
from remogen.motion import FeatureLayout, HistoryWindow, featurize, normalize, synthetic_sequence
from remogen.prior import (
    decode_segment,
    decoder_sensitivity,
    project_history,
    seeded_prior_params,
)
from remogen.runtime import Engine, EngineConfig, WeightArchive, init_weights
from remogen.runtime.bench import LatencyRecorder
from remogen.tensorcore import (
    AttentionParams,
    RelBiasParams,
    Rng,
    attention_kv,
    layer_norm,
    linear,
    mha_forward,
    relative_bias,
    sinusoidal_embedding,
)

F32 = np.float32

D = 6      # feature width for these tests
DZ = 4     # latent width


def linear_decoder(a, rows=3):
    """Batch decoder returning each (a @ z) reshaped; its sensitivity is a's column norms."""
    def decode(m_h, zs):
        out = np.asarray(zs, dtype=np.float64) @ a.astype(np.float64).T
        return out.reshape(len(zs), rows, -1).astype(F32)
    return decode


def history(gen=None):
    g = gen or Rng(0).generator("h")
    return HistoryWindow(g.standard_normal((2, D)).astype(F32))


def hand_params(tanh_gamma, tanh_beta, beta_sens=1.0, d_z=1):
    """Params whose FiLM head ignores the context and emits fixed gamma/beta."""
    eye = np.eye(d_z, dtype=F32)

    def attn(q_in):
        return AttentionParams(1, d_z, np.eye(q_in, d_z, dtype=F32), eye.copy(),
                               eye.copy(), eye.copy(), np.ones(d_z, dtype=F32),
                               np.zeros(d_z, dtype=F32))

    film_b = np.concatenate([np.full(d_z, np.arctanh(tanh_gamma)),
                             np.full(d_z, np.arctanh(tanh_beta))]).astype(F32)
    return FwsrParams(dyn_w=np.zeros((D, d_z), dtype=F32), dyn_b=np.zeros(d_z, dtype=F32),
                      dyn_attn=attn(d_z), cross_attn=attn(d_z),
                      rel_bias=RelBiasParams(np.zeros((2, 1), dtype=F32)),
                      film_w=np.zeros((d_z, 2 * d_z), dtype=F32), film_b=film_b,
                      beta_sens=beta_sens)


class TestEstimateSensitivity:
    """The finite-difference oracle itself, on decoders with known answers."""

    @pytest.mark.parametrize("seed", range(5))
    def test_linear_decoder_column_norms(self, seed):
        gen = Rng(seed).generator("sens")
        a = gen.standard_normal((12, DZ))
        s = estimate_sensitivity(linear_decoder(a), history(), np.zeros(DZ, dtype=F32))
        np.testing.assert_allclose(s, np.linalg.norm(a, axis=0), atol=1e-4)

    def test_ignored_dimension_is_zero(self):
        gen = Rng(1).generator("sens")
        a = gen.standard_normal((12, DZ))
        a[:, 2] = 0.0
        s = estimate_sensitivity(linear_decoder(a), history(), np.zeros(DZ, dtype=F32))
        assert s[2] == 0.0

    def test_probe_sign_symmetric(self):
        gen = Rng(2).generator("sens")
        a = gen.standard_normal((12, DZ))
        z0 = gen.standard_normal(DZ).astype(F32)
        s_pos = estimate_sensitivity(linear_decoder(a), history(), z0)
        s_neg = estimate_sensitivity(linear_decoder(-a), history(), z0)
        np.testing.assert_allclose(s_pos, s_neg, atol=1e-6)

    def test_nonfinite_decode_raises(self):
        def bad(m_h, zs):
            return np.full((len(zs), 2, 3), np.nan, dtype=F32)

        with pytest.raises(NumericError):
            estimate_sensitivity(bad, history(), np.zeros(DZ, dtype=F32))

# Prior sizes the probe is checked at: compact (as the acceptance sweeps use)
# and the engine defaults.
PRIOR_SIZES = {
    "compact": EngineConfig(latent_dim=16, text_dim=16, width=32, heads=2, n_blocks=2,
                            ffn_hidden=64, vae_hidden=64, injection_layers=(0, 1)),
    "engine": EngineConfig(),
}


def seeded_probe_point(size, seed):
    """A seeded prior with a random history window and latent to probe at."""
    cfg = PRIOR_SIZES[size]
    params = seeded_prior_params(
        Rng(seed).child("prior"), feature_dim=FeatureLayout(cfg.joints).dim,
        history_len=cfg.history_len, future_len=cfg.future_len, latent_dim=cfg.latent_dim,
        text_dim=cfg.text_dim, width=cfg.width, heads=cfg.heads, n_blocks=cfg.n_blocks,
        ffn_hidden=cfg.ffn_hidden, vae_hidden=cfg.vae_hidden)
    gen = Rng(seed).generator("probe")
    m_h = HistoryWindow(gen.standard_normal((params.history_len, params.feature_dim))
                        .astype(F32))
    return params, m_h, gen.standard_normal(params.latent_dim).astype(F32)


def _gelu64(x):
    return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x ** 3)))


class TestDecoderSensitivity:
    @pytest.mark.parametrize("size", sorted(PRIOR_SIZES))
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_finite_difference_oracle(self, size, seed):
        params, m_h, z0 = seeded_probe_point(size, seed)
        exact = decoder_sensitivity(project_history(m_h, params), z0, params)
        oracle = estimate_sensitivity(window_decoder(params), m_h, z0)
        assert exact.dtype == F32 and exact.shape == (params.latent_dim,)
        # The oracle's own error is float32 storage of its probes and decodes
        # over a 2e-3 step: at most 7.1e-4 relative on compact priors and
        # 4.7e-4 on engine-size ones over seeds 0..7.
        np.testing.assert_allclose(exact, oracle, rtol=1e-3)

    @pytest.mark.parametrize("size", sorted(PRIOR_SIZES))
    def test_matches_float64_central_difference(self, size):
        """Against an unrounded central difference of the decoder recomputed
        in float64, the probe is exact to float32 storage (6.1e-8 relative
        measured)."""
        params, m_h, z0 = seeded_probe_point(size, 3)
        p, d_z, h = params.vae_dec, params.latent_dim, 1e-5

        def decode64(zs):
            x = np.concatenate([np.tile(m_h.frames.reshape(1, -1), (len(zs), 1)), zs], 1)
            for w, b, act in ((p.w1, p.b1, True), (p.w2, p.b2, True), (p.w3, p.b3, False)):
                x = x @ w.astype(np.float64) + b.astype(np.float64)
                x = _gelu64(x) if act else x
            return x

        z = z0.astype(np.float64) + np.zeros((d_z, 1))
        step = np.eye(d_z) * h
        expected = np.linalg.norm(decode64(z + step) - decode64(z - step), axis=1) / (2 * h)
        np.testing.assert_allclose(decoder_sensitivity(project_history(m_h, params), z0, params),
                                   expected, rtol=1e-6)

    def test_ignored_dimension_is_zero(self):
        params, m_h, z0 = seeded_probe_point("compact", 1)
        w1 = params.vae_dec.w1.copy()
        w1[-params.latent_dim + 2] = 0.0   # latent dimension 2 feeds nothing
        params = dataclasses.replace(params, vae_dec=dataclasses.replace(params.vae_dec, w1=w1))
        s = decoder_sensitivity(project_history(m_h, params), z0, params)
        assert s[2] == 0.0 and np.all(np.delete(s, 2) > 0)

    def test_gram_built_on_first_probe(self):
        params, m_h, z0 = seeded_probe_point("compact", 2)
        assert "decoder_gram" not in vars(params)
        decoder_sensitivity(project_history(m_h, params), z0, params)
        w3 = params.vae_dec.w3.astype(np.float64)
        np.testing.assert_array_equal(vars(params)["decoder_gram"], w3 @ w3.T)

    def test_dimension_errors(self):
        params, m_h, z0 = seeded_probe_point("compact", 0)
        with pytest.raises(DimensionError):
            decoder_sensitivity(project_history(m_h, params), z0[:-1], params)
        with pytest.raises(DimensionError):
            decoder_sensitivity(project_history(HistoryWindow(m_h.frames[:, :-1]), params),
                                z0, params)

    def test_nonfinite_latent_fails_the_refiner(self):
        params, m_h, z0 = seeded_probe_point("compact", 0)
        z0[3] = np.nan
        fwsr = seeded_fwsr_params(Rng(1), params.feature_dim, params.latent_dim, heads=4,
                                  beta_sens=1.0, zero_film=True)
        with pytest.raises(NumericError):
            refine_latent(z0, m_h, np.zeros((0, params.feature_dim), dtype=F32),
                          np.zeros(params.latent_dim, dtype=F32), fwsr)


class TestRefineLatent:
    def test_zero_film_head_is_identity(self):
        params = seeded_fwsr_params(Rng(3), feature_dim=D, latent_dim=DZ,
                                    heads=2, beta_sens=1.0, zero_film=True)
        gen = Rng(4).generator("z")
        z0 = gen.standard_normal(DZ, dtype=F32)
        out = refine_latent(z0, history(), gen.standard_normal((2, D)).astype(F32),
                            np.zeros(DZ, dtype=F32), params)
        assert np.array_equal(out, z0)

    def test_zero_sensitivity_no_suppression(self):
        params = hand_params(0.5, 0.2, beta_sens=1.0, d_z=1)
        z0 = np.array([1.0], dtype=F32)
        out_free = refine_latent(z0, history(), np.zeros((0, D), dtype=F32),
                                 np.zeros(1, dtype=F32), params)
        # s = 0 leaves the raw delta: 0.5 * 1 + 0.2 = 0.7
        np.testing.assert_allclose(out_free, [1.7], atol=1e-6)

    def test_scalar_suppression_chain(self):
        params = hand_params(0.5, 0.2, beta_sens=1.0, d_z=1)
        z0 = np.array([1.0], dtype=F32)
        out = refine_latent(z0, history(), np.zeros((0, D), dtype=F32),
                            np.array([1.0], dtype=F32), params)
        # delta_raw = 0.7, suppressed by (1 + 1*1) -> 0.35
        np.testing.assert_allclose(out, [1.35], atol=1e-6)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_scalar_oracle(self, seed):
        """Small-dim oracle evaluating the published chain step by step."""
        gen = Rng(seed).generator("oracle")
        d_z = int(gen.integers(1, 4))
        params = seeded_fwsr_params(Rng(seed + 100), feature_dim=D, latent_dim=d_z,
                                    heads=1, zero_film=False,
                                    beta_sens=float(gen.uniform(0, 2)))
        z0 = gen.standard_normal(d_z, dtype=F32)
        m_h = history(gen)
        window = gen.standard_normal((2, D)).astype(F32)
        sens = np.abs(gen.standard_normal(d_z)).astype(F32)
        got = refine_latent(z0, m_h, window, sens, params)

        rows = np.vstack([m_h.frames, window])
        toks = linear(rows, params.dyn_w, params.dyn_b)
        pos = sinusoidal_embedding(np.arange(len(rows)), d_z).astype(np.float64)
        toks = (toks.astype(np.float64) + pos).astype(F32)
        normed = layer_norm(toks, params.dyn_attn.ln_gain, params.dyn_attn.ln_offset)
        c_dyn = toks + mha_forward(normed, normed, params.dyn_attn)
        r = mha_forward(z0[None, :], attention_kv(c_dyn, params.cross_attn),
                        params.cross_attn, relative_bias(1, len(rows), params.rel_bias))
        film = (r.astype(np.float64) @ params.film_w.astype(np.float64)
                + params.film_b.astype(np.float64))[0]
        d_raw = np.tanh(film[:d_z]) * z0 + np.tanh(film[d_z:])
        expected = z0 + d_raw / (1.0 + params.beta_sens * sens.astype(np.float64))
        np.testing.assert_allclose(got, expected.astype(F32), atol=1e-6)

    def test_context_rows_cached_per_token_count(self):
        params = seeded_fwsr_params(Rng(5), feature_dim=D, latent_dim=DZ, heads=2,
                                    beta_sens=1.0, zero_film=True)
        for n in (2, 3, 4, 3):
            pos, bias = params.context_rows(n)
            np.testing.assert_array_equal(pos, sinusoidal_embedding(np.arange(n), DZ))
            np.testing.assert_array_equal(bias, relative_bias(1, n, params.rel_bias))
            again = params.context_rows(n)
            assert again[0] is pos and again[1] is bias

    @pytest.mark.parametrize("seed", range(4))
    def test_cached_context_rows_match_uncached_reference(self, seed):
        """Bit for bit the formula that embedded positions and built the
        relative bias on every call, over windows of 0, 1 and 2 rows, with
        the rows cached and not, and with the float64 weight twins."""
        gen = Rng(seed).generator("uncached")
        params = seeded_fwsr_params(Rng(seed + 200), feature_dim=D, latent_dim=8, heads=2,
                                    zero_film=False, beta_sens=float(gen.uniform(0, 2)))
        for rows_in_window in (0, 1, 2, 2, 1, 0):
            z0 = gen.standard_normal(8, dtype=F32)
            m_h = history(gen)
            window = gen.standard_normal((rows_in_window, D)).astype(F32)
            sens = np.abs(gen.standard_normal(8)).astype(F32)
            got = refine_latent(z0, m_h, window, sens, params)
            assert np.array_equal(
                refine_latent(z0, m_h, window, sens, params.float64_weights), got)

            rows = np.vstack([m_h.frames, window])
            toks = linear(rows, params.dyn_w, params.dyn_b)
            pos = sinusoidal_embedding(np.arange(len(rows)), 8)
            toks = (toks.astype(np.float64) + pos.astype(np.float64)).astype(F32)
            normed = layer_norm(toks, params.dyn_attn.ln_gain, params.dyn_attn.ln_offset)
            c_dyn = toks + mha_forward(normed, normed, params.dyn_attn)
            r = mha_forward(z0[None, :], attention_kv(c_dyn, params.cross_attn),
                            params.cross_attn, relative_bias(1, len(rows), params.rel_bias))
            film = linear(r, params.film_w, params.film_b)[0].astype(np.float64)
            d_raw = np.tanh(film[:8]) * z0.astype(np.float64) + np.tanh(film[8:])
            d_safe = d_raw / (1.0 + params.beta_sens * sens.astype(np.float64))
            expected = (z0.astype(np.float64) + d_safe).astype(F32)
            assert np.array_equal(got, expected), rows_in_window

    def test_empty_window_of_any_shape(self):
        params = seeded_fwsr_params(Rng(6), feature_dim=D, latent_dim=DZ, heads=2,
                                    beta_sens=1.0, zero_film=False)
        gen = Rng(7).generator("empty")
        z0 = gen.standard_normal(DZ, dtype=F32)
        m_h = history(gen)
        s = np.full(DZ, 0.5, dtype=F32)
        outs = [refine_latent(z0, m_h, w, s, params)
                for w in ([], np.zeros(0, dtype=F32), np.zeros((0, D), dtype=F32),
                          np.zeros((0, 3), dtype=np.float64))]
        assert not np.array_equal(outs[0], z0)
        for out in outs[1:]:
            assert np.array_equal(out, outs[0])

    def test_monotone_suppression_in_sensitivity(self):
        params = hand_params(0.5, 0.2, beta_sens=1.0, d_z=1)
        z0 = np.array([1.0], dtype=F32)
        deltas = []
        for s_val in (0.0, 0.5, 1.0, 4.0, 16.0):
            out = refine_latent(z0, history(), np.zeros((0, D), dtype=F32),
                                np.array([s_val], dtype=F32), params)
            deltas.append(abs(float(out[0] - z0[0])))
        assert all(a >= b for a, b in zip(deltas, deltas[1:]))

    def test_monotone_suppression_in_strength(self):
        z0 = np.array([1.0], dtype=F32)
        s = np.array([2.0], dtype=F32)
        deltas = []
        for strength in (0.0, 0.25, 1.0, 4.0, 16.0):
            params = hand_params(0.5, 0.2, beta_sens=strength, d_z=1)
            out = refine_latent(z0, history(), np.zeros((0, D), dtype=F32), s, params)
            deltas.append(abs(float(out[0] - z0[0])))
        assert all(a >= b for a, b in zip(deltas, deltas[1:]))

    def test_dimension_error(self):
        params = hand_params(0.5, 0.2)
        with pytest.raises(DimensionError):
            refine_latent(np.zeros(2, dtype=F32), history(),
                          np.zeros((0, D), dtype=F32),
                          np.zeros(1, dtype=F32), params)


# A compact engine with the defaults' structure, in fwsr mode. init_weights
# leaves the normalizer at the identity, so emitted frames and the engine's
# normalized frames are the same numbers.
COMPACT_FWSR = EngineConfig(latent_dim=16, text_dim=16, width=32, heads=2, n_blocks=2,
                            ffn_hidden=64, vae_hidden=64, injection_layers=(0, 1), fwsr=True)


@pytest.fixture(scope="module")
def compact_archive():
    return init_weights(COMPACT_FWSR, 7)


@pytest.fixture(scope="module")
def film_archive(compact_archive):
    """The compact archive with a seeded non-zero FiLM head, so refinement moves z0."""
    tensors = dict(compact_archive.tensors)
    shape = tensors["fwsr.film_w"].shape
    tensors["fwsr.film_w"] = Rng(8).generator("film").uniform(-0.5, 0.5, shape).astype(F32)
    return WeightArchive(tensors)


@pytest.fixture(scope="module")
def partner():
    return featurize(synthetic_sequence(2 * COMPACT_FWSR.future_len, seed=2)).frames


@pytest.fixture()
def engine_calls(monkeypatch):
    """Counts the engine's refine_latent calls and records the frame range of
    each of its decode_segment calls, at the names the engine calls them by."""
    import remogen.runtime.engine as engine_module

    calls = {"refine": 0, "decodes": []}
    real_refine, real_decode = engine_module.refine_latent, engine_module.decode_segment

    def counting_refine(*args, **kwargs):
        calls["refine"] += 1
        return real_refine(*args, **kwargs)

    def recording_decode(*args, frames=slice(None), **kwargs):
        calls["decodes"].append(frames)
        return real_decode(*args, frames=frames, **kwargs)

    monkeypatch.setattr(engine_module, "refine_latent", counting_refine)
    monkeypatch.setattr(engine_module, "decode_segment", recording_decode)
    return calls


class TestRefineSegment:
    """Segments as the fwsr engine runs them: z0 sampled and frame 0 decoded
    on the boundary tick, then one refinement of z0 and a one-frame decode on
    each later tick."""

    def test_zero_film_reproduces_shifted_redecode(self, compact_archive):
        """With the FiLM head at zero refinement keeps z0: frame 0 is the full
        decode's, and frames 1..F-1 are the decode of z0 against the history
        slid by frame 0."""
        f_len = COMPACT_FWSR.future_len
        for seed in range(20):
            engine = Engine(compact_archive, dataclasses.replace(COMPACT_FWSR, seed=seed))
            for _ in range(2):
                m_h = engine.history
                out = np.stack(engine.run_ticks(f_len))
                z0 = engine.segment.z0
                full = decode_segment(project_history(m_h, engine.prior), z0, engine.prior)
                shifted = decode_segment(project_history(m_h.slide(full[0]), engine.prior),
                                         z0, engine.prior)
                assert np.array_equal(out[0], full[0])
                assert np.array_equal(out[1:], shifted[1:])

    def test_zero_film_independent_of_dynamics(self, compact_archive, film_archive, partner):
        """Partner frames reach only refinement: with the FiLM head at zero
        they change no frame, with a non-zero head they do."""
        def run(archive, partner_frames):
            return np.stack(Engine(archive, COMPACT_FWSR).run_ticks(len(partner),
                                                                     partner_frames))

        assert np.array_equal(run(compact_archive, None), run(compact_archive, partner))
        assert not np.array_equal(run(film_archive, None), run(film_archive, partner))

    def test_single_frame_segment_no_refinement(self, engine_calls):
        """An fwsr engine with one-frame segments decodes once per segment and
        never refines."""
        cfg = EngineConfig(history_len=2, future_len=1, steps=2, latent_dim=8, text_dim=8,
                           width=16, heads=2, n_blocks=1, ffn_hidden=16, vae_hidden=16,
                           injection_layers=(0,), fwsr=True)
        engine = Engine(init_weights(cfg, seed=8), cfg)
        out = engine.run_ticks(5)
        assert len(out) == 5
        assert engine_calls["refine"] == 0
        assert engine_calls["decodes"] == [slice(0, 1)] * 5

    def test_probe_runs_once_on_the_first_step(self, film_archive, partner, monkeypatch):
        """Each segment probes once, at the boundary history's projection and
        z0, which the frame-0 decode shares; every refined frame decodes
        against one projection, of the first updated history, not the rolled
        one."""
        import remogen.runtime.engine as engine_module

        probes, histories = [], []
        real_probe, real_decode = (engine_module.decoder_sensitivity,
                                   engine_module.decode_segment)

        def probe(m_h, z0, params):
            probes.append((m_h, z0))
            return real_probe(m_h, z0, params)

        def decode(m_h, z, params, **kwargs):
            histories.append(m_h)
            return real_decode(m_h, z, params, **kwargs)

        monkeypatch.setattr(engine_module, "decoder_sensitivity", probe)
        monkeypatch.setattr(engine_module, "decode_segment", decode)
        engine = Engine(film_archive, COMPACT_FWSR)
        f_len = COMPACT_FWSR.future_len
        for segment in range(2):
            m_h = engine.history
            probes.clear()
            histories.clear()
            out = engine.run_ticks(f_len, partner[segment * f_len:])
            assert len(probes) == 1 and probes[0][1] is engine.segment.z0
            boundary, decode_history = probes[0][0], histories[1]
            assert histories[0] is boundary
            np.testing.assert_array_equal(boundary, project_history(m_h, engine.prior))
            assert all(h is decode_history for h in histories[1:])
            np.testing.assert_array_equal(
                decode_history, project_history(m_h.slide(out[0]), engine.prior))

    def test_cost_contract(self, film_archive, partner, engine_calls):
        """Each segment makes F-1 refinements and F-1 one-frame decodes, in
        their own scope, beside its frame-0 decode."""
        recorder = LatencyRecorder()
        engine = Engine(film_archive, COMPACT_FWSR, recorder=recorder)
        f_len = COMPACT_FWSR.future_len
        assert len(engine.run_ticks(2 * f_len, partner)) == 2 * f_len
        assert engine_calls["refine"] == 2 * (f_len - 1)
        assert engine_calls["decodes"] == [slice(f, f + 1) for f in range(f_len)] * 2
        assert len(recorder.durations["fwsr_decode"]) == 2 * (f_len - 1)


class TestObservedEgo:
    """A pose given to observe_ego in the middle of an fwsr segment becomes
    the newest history row, and the refiner reads it on the next tick."""

    CFG = dataclasses.replace(COMPACT_FWSR, alpha={"hhi": 1.0})

    @pytest.mark.parametrize("phase", [1, 3, COMPACT_FWSR.future_len - 1])
    def test_pose_observed_before_a_refinement_tick_moves_its_frame(self, phase, partner,
                                                                    monkeypatch):
        """Two engines see the same partner frames; one also observes a pose
        before refinement tick `phase`. That tick's frame differs, the pose
        is the newest history row the refiner read, and the decode history
        projected on tick 1 holds it only if it came before tick 1."""
        import remogen.runtime.engine as engine_module
        from test_golden import golden_archive

        archive = golden_archive(self.CFG)  # non-zero module gates and FiLM head
        plain, observed = Engine(archive, self.CFG), Engine(archive, self.CFG)
        pose = featurize(synthetic_sequence(3, seed=11)).frames[2]
        for frame in partner[:phase]:
            plain.tick(frame)
            observed.tick(frame)
        expected = plain.tick(partner[phase])[0]
        observed.observe_ego(pose)
        normalized = normalize(pose[None], observed.normalizer)[0]
        before = observed.history
        np.testing.assert_array_equal(before.frames[-1], normalized)
        reads, real_refine = [], engine_module.refine_latent

        def refine(z0, m_h, *args):
            reads.append(m_h.frames[-1].copy())
            return real_refine(z0, m_h, *args)

        monkeypatch.setattr(engine_module, "refine_latent", refine)
        got = observed.tick(partner[phase])[0]
        assert not np.array_equal(got, expected)
        assert len(reads) == 1
        np.testing.assert_array_equal(reads[0], normalized)
        rows = observed.segment.decode_history
        if phase == 1:
            np.testing.assert_array_equal(rows, project_history(before, observed.prior))
            assert not np.array_equal(rows, plain.segment.decode_history)
        else:
            np.testing.assert_array_equal(rows, plain.segment.decode_history)
