"""Refinement tests: sensitivity estimation, safe scaling, the per-frame loop."""
import numpy as np
import pytest

from remogen.errors import DimensionError, NumericError
from remogen.fwsr import (
    DynamicContext,
    FwsrParams,
    RefinementTrace,
    SensitivityVector,
    estimate_sensitivity,
    refine_latent,
    refine_segment,
    seeded_fwsr_params,
)
from remogen.motion import HistoryWindow, MotionSegment
from remogen.tensorcore import AttentionParams, RelBiasParams, Rng

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
                      rel_bias=RelBiasParams(0.25, np.zeros((2, 1), dtype=F32)),
                      film_w=np.zeros((d_z, 2 * d_z), dtype=F32), film_b=film_b,
                      beta_sens=beta_sens)


class TestEstimateSensitivity:
    @pytest.mark.parametrize("seed", range(5))
    def test_linear_decoder_column_norms(self, seed):
        gen = Rng(seed).generator("sens")
        a = gen.standard_normal((12, DZ))
        s = estimate_sensitivity(linear_decoder(a), history(), np.zeros(DZ, dtype=F32))
        np.testing.assert_allclose(s.s, np.linalg.norm(a, axis=0), atol=1e-4)

    def test_ignored_dimension_is_zero(self):
        gen = Rng(1).generator("sens")
        a = gen.standard_normal((12, DZ))
        a[:, 2] = 0.0
        s = estimate_sensitivity(linear_decoder(a), history(), np.zeros(DZ, dtype=F32))
        assert s.s[2] == 0.0

    def test_probe_sign_symmetric(self):
        gen = Rng(2).generator("sens")
        a = gen.standard_normal((12, DZ))
        z0 = gen.standard_normal(DZ).astype(F32)
        s_pos = estimate_sensitivity(linear_decoder(a), history(), z0)
        s_neg = estimate_sensitivity(linear_decoder(-a), history(), z0)
        np.testing.assert_allclose(s_pos.s, s_neg.s, atol=1e-6)

    def test_nonfinite_decode_raises(self):
        def bad(m_h, zs):
            return np.full((len(zs), 2, 3), np.nan, dtype=F32)

        with pytest.raises(NumericError):
            estimate_sensitivity(bad, history(), np.zeros(DZ, dtype=F32))

    def test_nonnegative_invariant(self):
        with pytest.raises(NumericError):
            SensitivityVector(np.array([-0.5], dtype=F32))


class TestRefineLatent:
    def test_zero_film_head_is_identity(self):
        params = seeded_fwsr_params(Rng(3), feature_dim=D, latent_dim=DZ,
                                    heads=2, zero_film=True)
        gen = Rng(4).generator("z")
        z0 = gen.standard_normal(DZ, dtype=F32)
        out = refine_latent(z0, history(), gen.standard_normal((2, D)).astype(F32),
                            SensitivityVector.zeros(DZ), params)
        assert np.array_equal(out, z0)

    def test_zero_sensitivity_no_suppression(self):
        params = hand_params(0.5, 0.2, beta_sens=1.0, d_z=1)
        z0 = np.array([1.0], dtype=F32)
        out_free = refine_latent(z0, history(), np.zeros((0, D), dtype=F32),
                                 SensitivityVector.zeros(1), params)
        # s = 0 leaves the raw delta: 0.5 * 1 + 0.2 = 0.7
        np.testing.assert_allclose(out_free, [1.7], atol=1e-6)

    def test_scalar_suppression_chain(self):
        params = hand_params(0.5, 0.2, beta_sens=1.0, d_z=1)
        z0 = np.array([1.0], dtype=F32)
        out = refine_latent(z0, history(), np.zeros((0, D), dtype=F32),
                            SensitivityVector(np.array([1.0], dtype=F32)), params)
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
        sens = SensitivityVector(np.abs(gen.standard_normal(d_z)).astype(F32))
        got = refine_latent(z0, m_h, window, sens, params)

        from remogen.tensorcore import (
            layer_norm,
            linear,
            mha_forward,
            relative_bias,
            sinusoidal_embedding,
        )

        rows = np.vstack([m_h.frames, window])
        toks = linear(rows, params.dyn_w, params.dyn_b)
        pos = sinusoidal_embedding(np.arange(len(rows)), d_z).astype(np.float64)
        toks = (toks.astype(np.float64) + pos).astype(F32)
        normed = layer_norm(toks, params.dyn_attn.ln_gain, params.dyn_attn.ln_offset)
        c_dyn = toks + mha_forward(normed, normed, params.dyn_attn)
        r = mha_forward(z0[None, :], c_dyn, params.cross_attn,
                        relative_bias(1, len(rows), params.rel_bias))
        film = (r.astype(np.float64) @ params.film_w.astype(np.float64)
                + params.film_b.astype(np.float64))[0]
        d_raw = np.tanh(film[:d_z]) * z0 + np.tanh(film[d_z:])
        expected = z0 + d_raw / (1.0 + params.beta_sens * sens.s.astype(np.float64))
        np.testing.assert_allclose(got, expected.astype(F32), atol=1e-6)

    def test_monotone_suppression_in_sensitivity(self):
        params = hand_params(0.5, 0.2, beta_sens=1.0, d_z=1)
        z0 = np.array([1.0], dtype=F32)
        deltas = []
        for s_val in (0.0, 0.5, 1.0, 4.0, 16.0):
            out = refine_latent(z0, history(), np.zeros((0, D), dtype=F32),
                                SensitivityVector(np.array([s_val], dtype=F32)), params)
            deltas.append(abs(float(out[0] - z0[0])))
        assert all(a >= b for a, b in zip(deltas, deltas[1:]))

    def test_monotone_suppression_in_strength(self):
        z0 = np.array([1.0], dtype=F32)
        s = SensitivityVector(np.array([2.0], dtype=F32))
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
                          SensitivityVector.zeros(1), params)


class TestDynamicContext:
    def test_window_tracks_cursor(self):
        dyn = DynamicContext(history_len=2, feature_dim=3)
        for i in range(4):
            dyn.push(np.full(3, i, dtype=F32))
        dyn.mark_segment_start()
        dyn.push(np.full(3, 9, dtype=F32))
        # Step 0 sees only pre-segment frames; step 1 reveals the new one.
        np.testing.assert_array_equal(dyn.window(0)[:, 0], [2, 3])
        np.testing.assert_array_equal(dyn.window(1)[:, 0], [3, 9])

    def test_exhausted_stream_repeats_last_window(self):
        dyn = DynamicContext(history_len=2, feature_dim=3)
        dyn.push(np.zeros(3, dtype=F32))
        dyn.push(np.ones(3, dtype=F32))
        dyn.mark_segment_start()
        np.testing.assert_array_equal(dyn.window(5), dyn.window(50))

    def test_empty_stream_empty_window(self):
        dyn = DynamicContext(history_len=2, feature_dim=3)
        assert dyn.window(3).shape == (0, 3)


class TestRefineSegment:
    @pytest.fixture()
    def decoder(self):
        gen = Rng(7).generator("dec")
        w = gen.standard_normal((2 * D + DZ, 8 * D)).astype(F32) * 0.1

        def decode(m_h, z):
            x = np.concatenate([m_h.frames.reshape(-1), z])
            return MotionSegment(np.tanh(x.astype(np.float64) @ w.astype(np.float64))
                                 .reshape(8, D).astype(F32))

        return decode

    def test_zero_film_reproduces_shifted_redecode(self, decoder):
        params = seeded_fwsr_params(Rng(8), feature_dim=D, latent_dim=DZ,
                                    heads=2, zero_film=True)
        gen = Rng(9).generator("z")
        z0 = gen.standard_normal(DZ, dtype=F32)
        m_h = history(gen)
        initial = decoder(m_h, z0)
        out = refine_segment(z0, m_h, None, decoder, params,
                             SensitivityVector.zeros(DZ), initial_segment=initial)
        shifted = decoder(m_h.slide(initial.frames[0]), z0)
        assert np.array_equal(out.frames[0], initial.frames[0])
        np.testing.assert_array_equal(out.frames[1:], shifted.frames[1:])

    def test_zero_film_independent_of_dynamics(self, decoder):
        params = seeded_fwsr_params(Rng(8), feature_dim=D, latent_dim=DZ,
                                    heads=2, zero_film=True)
        gen = Rng(10).generator("z")
        z0 = gen.standard_normal(DZ, dtype=F32)
        m_h = history(gen)
        initial = decoder(m_h, z0)
        quiet = DynamicContext(2, D)
        noisy = DynamicContext(2, D)
        for _ in range(8):
            noisy.push(gen.standard_normal(D).astype(F32))
        noisy.mark_segment_start()
        a = refine_segment(z0, m_h, quiet, decoder, params,
                           SensitivityVector.zeros(DZ), initial_segment=initial)
        b = refine_segment(z0, m_h, noisy, decoder, params,
                           SensitivityVector.zeros(DZ), initial_segment=initial)
        assert np.array_equal(a.frames, b.frames)

    def test_single_frame_segment_no_refinement(self, decoder):
        params = seeded_fwsr_params(Rng(8), feature_dim=D, latent_dim=DZ, heads=2)
        z0 = np.zeros(DZ, dtype=F32)
        m_h = history()
        initial = MotionSegment(decoder(m_h, z0).frames[:1])
        trace = RefinementTrace()
        out = refine_segment(z0, m_h, None, decoder, params,
                             SensitivityVector.zeros(DZ), initial_segment=initial,
                             trace=trace)
        assert len(out) == 1
        assert trace.refine_calls == 0 and trace.decode_calls == 0

    def test_cost_contract(self, decoder):
        params = seeded_fwsr_params(Rng(8), feature_dim=D, latent_dim=DZ,
                                    heads=2, zero_film=False)
        gen = Rng(11).generator("z")
        z0 = gen.standard_normal(DZ, dtype=F32)
        m_h = history(gen)
        initial = decoder(m_h, z0)
        trace = RefinementTrace()
        out = refine_segment(z0, m_h, None, decoder, params,
                             SensitivityVector.zeros(DZ), initial_segment=initial,
                             trace=trace)
        assert len(out) == 8
        assert trace.refine_calls == 7
        assert trace.decode_calls == 7
