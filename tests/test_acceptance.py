"""Acceptance criteria, one test per criterion.

Each test prints a PASS line once its assertions hold (run with -s or -rA to
see them); a failing criterion fails the corresponding test. Oracles here are
self-contained re-implementations that round to storage precision (float32)
at the same stage boundaries as the library, so tolerances stay meaningful.
"""
import dataclasses
import io
import json
import time

import numpy as np
import pytest
from decoder_reference import window_decoder
from scene_reference import occupied
from sensitivity_oracle import estimate_sensitivity

from remogen.fwsr import refine_latent, seeded_fwsr_params
from remogen.metrics import COLLISION_RADIUS, collision_pct, frechet_distance, peak_jerk
from remogen.mim import (
    MimBlockParams,
    compose_deltas,
    flat_norm,
    mim_block_forward,
    prepare_context,
)
from remogen.motion import (
    FeatureLayout,
    RigidTransform,
    featurize,
    synthetic_sequence,
)
from remogen.prior import (
    ddpm_sample,
    decoder_sensitivity,
    project_history,
    seeded_prior_params,
)
from remogen.runtime import (
    Engine,
    EngineConfig,
    init_weights,
    load_archive,
    load_motion,
    load_voxels,
    save_archive,
    save_motion,
    save_voxels,
    stream_run,
)
from remogen.scene import EGO_DIMS, GridSpec, VoxelGrid, voxelize_points
from remogen.tensorcore import REL_BIAS_OMEGA, AttentionParams, FfnParams, RelBiasParams, Rng

F32 = np.float32
F64 = np.float64


def report(criterion, text):
    print(f"PASS  {criterion}: {text}")


# Compact engine config: same structure as the defaults, sized for sweeps.
COMPACT = EngineConfig(history_len=2, future_len=8, steps=5, latent_dim=16,
                       text_dim=16, width=32, heads=2, n_blocks=2, ffn_hidden=64,
                       vae_hidden=64, injection_layers=(0, 1))


@pytest.fixture(scope="module")
def compact_archive():
    return init_weights(COMPACT, seed=7)


@pytest.fixture(scope="module")
def scene_grid():
    gen = Rng(40).generator("scene")
    spec = GridSpec([-4, -4, 0], [4, 4, 2], (40, 40, 10))
    points = gen.uniform(-4, 4, size=(500, 3))
    points[:, 2] = np.abs(points[:, 2]) / 2
    return voxelize_points(points, spec)


def test_c01_adapter_neutrality(compact_archive, scene_grid):
    """Zero-gated adapters leave the frozen prior's outputs bit-identical."""
    start = time.perf_counter()
    layout = FeatureLayout(COMPACT.joints)
    for i in range(100):
        cfg_i = dataclasses.replace(COMPACT, seed=i)
        partner = featurize(synthetic_sequence(8, seed=1000 + i)).frames

        bare = Engine(compact_archive, cfg_i)
        bare.set_scene(scene_grid)
        bare.set_text("react to the approach")
        full = Engine(compact_archive, cfg_i)
        full.set_scene(scene_grid)
        full.set_text("react to the approach")
        full.set_alpha({"hhi": 1.0, "hsi": 1.0})

        out_bare = bare.run_ticks(8, partner)
        out_full = full.run_ticks(8, partner)
        assert all(np.array_equal(a, b) for a, b in zip(out_bare, out_full))

    # The refinement adapter at init never moves the latent either.
    fwsr_engine = Engine(compact_archive, COMPACT)
    gen = Rng(77).generator("z")
    for _ in range(100):
        z0 = gen.standard_normal(COMPACT.latent_dim, dtype=F32)
        window = gen.standard_normal((2, layout.dim)).astype(F32)
        refined = refine_latent(z0, fwsr_engine.state.history, window,
                                np.zeros(COMPACT.latent_dim, dtype=F32),
                                fwsr_engine.fwsr_params)
        assert np.array_equal(refined, z0)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report("C1", f"100 zero-gated rollouts bit-identical to the bare prior "
                 f"({elapsed:.1f} s)")


def test_c02_clamp_bound():
    """Composed residual norm never exceeds the strongest branch."""
    start = time.perf_counter()
    gen = Rng(2).generator("clamp")
    for _ in range(1000):
        n = int(gen.integers(1, 5))
        shape = (int(gen.integers(1, 5)), int(gen.integers(1, 9)))
        layers = tuple(range(int(gen.integers(1, 4))))
        deltas = [np.stack([gen.standard_normal(shape).astype(F32) * gen.uniform(0, 3)
                            for _ in layers])
                  for _ in range(n)]
        weights = [float(gen.uniform(0, 2)) for _ in range(n)]
        out = compose_deltas(deltas, weights)
        assert flat_norm(out) <= max(flat_norm(d) for d in deltas) + 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report("C2", f"1000 compositions respect the L2 clamp bound ({elapsed:.1f} s)")


def test_c03_single_module_pass_through():
    """One module at weight 1 composes to itself bit-exactly."""
    gen = Rng(3).generator("pass")
    for _ in range(100):
        shape = (int(gen.integers(1, 6)), int(gen.integers(1, 10)))
        delta = np.stack([gen.standard_normal(shape).astype(F32),
                          gen.standard_normal(shape).astype(F32)])
        out = compose_deltas([delta], [1.0])
        assert out.shape == delta.shape and np.array_equal(out, delta)
    report("C3", "100 single-module compositions are bit-exact pass-throughs")


# -- independent oracles for criterion 4 ---------------------------------------

def _o_round(x):
    return np.asarray(x, dtype=F64).astype(F32).astype(F64)


def _o_mm64(x, w):
    """A float64 weight product, as the prior and the refiner multiply."""
    return np.asarray(x, dtype=F64) @ np.asarray(w, dtype=F64)


def _o_mm32(x, w):
    """A float32 weight product, as the interaction modules multiply."""
    return (np.asarray(x, dtype=F64).astype(F32) @ np.asarray(w, dtype=F32)).astype(F64)


def _o_linear(x, w, b=None, mm=_o_mm64):
    y = _o_round(mm(x, w))
    if b is not None:
        y = _o_round(y + np.asarray(b, dtype=F64))
    return y


def _o_layer_norm(x, gain, offset, eps=1e-5):
    out = np.zeros_like(np.asarray(x, dtype=F64))
    for i, row in enumerate(np.asarray(x, dtype=F64)):
        m = row.mean()
        v = row.var()
        out[i] = (row - m) / np.sqrt(v + eps) * gain + offset
    return _o_round(out)


def _o_gelu(x):
    z = np.asarray(x, dtype=F64)
    return _o_round(0.5 * z * (1 + np.tanh(np.sqrt(2 / np.pi) * (z + 0.044715 * z ** 3))))


def _o_attention(q_in, kv_in, p, bias=None, mm=_o_mm64):
    dh = p.width // p.heads
    q, k, v = mm(q_in, p.w_q), mm(kv_in, p.w_k), mm(kv_in, p.w_v)
    out = np.zeros((q.shape[0], p.width))
    for h in range(p.heads):
        qs, ks, vs = (m[:, h * dh:(h + 1) * dh] for m in (q, k, v))
        for i in range(q.shape[0]):
            logits = np.array([qs[i] @ ks[j] / np.sqrt(dh) for j in range(k.shape[0])])
            if bias is not None:
                logits = logits + np.asarray(bias, dtype=F64)[h, i]
            w = np.exp(logits - logits.max())
            w = w / w.sum()
            out[i, h * dh:(h + 1) * dh] = sum(w[j] * vs[j] for j in range(k.shape[0]))
    return _o_round(mm(out, p.w_o))


def _o_rel_bias(t_q, t_kv, p):
    b = np.zeros((p.w_b.shape[1], t_q, t_kv))
    for i in range(t_q):
        for j in range(t_kv):
            feats = np.array([np.sin(REL_BIAS_OMEGA * (i - j)), np.cos(REL_BIAS_OMEGA * (i - j))])
            b[:, i, j] = feats @ p.w_b.astype(F64)
    return b.astype(F32)


def _o_mim_block(h, c, p):
    """The modulation block with every weight product in float32 (_o_mm32)."""
    h = np.asarray(h, dtype=F64)
    normed = _o_layer_norm(h, p.self_attn.ln_gain, p.self_attn.ln_offset)
    h_prime = _o_round(h + _o_attention(normed, normed, p.self_attn, mm=_o_mm32))
    bias = _o_rel_bias(h.shape[0], c.shape[0], p.rel_bias)
    q = _o_layer_norm(h_prime, p.cross_attn.ln_gain, p.cross_attn.ln_offset)
    r = _o_attention(q, c, p.cross_attn, bias, mm=_o_mm32)
    film = _o_linear(r, p.film_w, p.film_b, mm=_o_mm32)
    d = h.shape[1]
    gamma, beta = film[:, :d], film[:, d:]
    h_mod = _o_round((1 + np.tanh(gamma)) * h_prime + np.tanh(beta))
    normed = _o_layer_norm(h_mod, p.ffn.ln_gain, p.ffn.ln_offset)
    inner = _o_linear(_o_gelu(_o_linear(normed, p.ffn.w1, p.ffn.b1, mm=_o_mm32)),
                      p.ffn.w2, p.ffn.b2, mm=_o_mm32)
    h_ffn = _o_round(h_mod + inner)
    return _o_round((h_ffn - h) * p.gate.astype(F64)).astype(F32)


def _o_sinusoid(n, dim):
    half = (dim + 1) // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / max(half, 1))
    out = np.zeros((n, dim))
    for i in range(n):
        ang = i * freqs
        out[i, 0::2] = np.sin(ang)[: out[i, 0::2].shape[0]]
        out[i, 1::2] = np.cos(ang)[: out[i, 1::2].shape[0]]
    return out


def _o_refine_latent(z0, m_h, window, s, p):
    z0 = np.asarray(z0, dtype=F64)
    d_z = z0.shape[0]
    rows = np.vstack([m_h, window]).astype(F64)
    toks = _o_round(_o_linear(rows, p.dyn_w, p.dyn_b)
                    + _o_sinusoid(rows.shape[0], d_z))
    normed = _o_layer_norm(toks, p.dyn_attn.ln_gain, p.dyn_attn.ln_offset)
    c_dyn = _o_round(toks + _o_attention(normed, normed, p.dyn_attn))
    r = _o_attention(z0[None, :], c_dyn, p.cross_attn,
                     _o_rel_bias(1, c_dyn.shape[0], p.rel_bias))
    film = _o_linear(r, p.film_w, p.film_b)[0]
    d_raw = np.tanh(film[:d_z]) * z0 + np.tanh(film[d_z:])
    d_safe = d_raw / (1 + p.beta_sens * s.astype(F64))
    return (z0 + d_safe).astype(F32)


def _random_mim_block(gen, width, heads=1):
    def attn():
        return AttentionParams(heads, width,
                               *(gen.standard_normal((width, width)).astype(F32)
                                 for _ in range(4)),
                               ln_gain=gen.standard_normal(width).astype(F32),
                               ln_offset=gen.standard_normal(width).astype(F32))

    hidden = 2 * width
    return MimBlockParams(
        self_attn=attn(), cross_attn=attn(),
        rel_bias=RelBiasParams(gen.standard_normal((2, heads)).astype(F32)),
        film_w=gen.standard_normal((width, 2 * width)).astype(F32),
        film_b=gen.standard_normal(2 * width).astype(F32),
        ffn=FfnParams(gen.standard_normal((width, hidden)).astype(F32),
                      gen.standard_normal(hidden).astype(F32),
                      gen.standard_normal((hidden, width)).astype(F32),
                      gen.standard_normal(width).astype(F32),
                      gen.standard_normal(width).astype(F32),
                      gen.standard_normal(width).astype(F32)),
        gate=gen.standard_normal(width).astype(F32))


def test_c04_film_chain_oracles():
    """Modulation block and latent refinement match independent oracles."""
    worst = 0.0
    for seed in range(250):
        gen = Rng(seed).generator("c4m")
        t = int(gen.integers(1, 5))
        d = int(gen.integers(1, 9))
        heads = 1 if d % 2 else int(gen.choice([1, 2]))
        p = _random_mim_block(gen, d, heads)
        h = gen.standard_normal((t, d)).astype(F32)
        c = gen.standard_normal((int(gen.integers(1, 5)), d)).astype(F32)
        got = mim_block_forward(h, prepare_context(c, p, t), p)
        exp = _o_mim_block(h, c, p)
        worst = max(worst, float(np.max(np.abs(got - exp))))
        assert np.allclose(got, exp, atol=1e-6)

    feature_dim = 6
    for seed in range(250):
        gen = Rng(10000 + seed).generator("c4f")
        d_z = int(gen.integers(1, 9))
        p = seeded_fwsr_params(Rng(seed), feature_dim=feature_dim, latent_dim=d_z,
                               heads=1, beta_sens=float(gen.uniform(0, 2)),
                               zero_film=False)
        z0 = gen.standard_normal(d_z, dtype=F32)
        m_h = gen.standard_normal((2, feature_dim)).astype(F32)
        window = gen.standard_normal((int(gen.integers(0, 3)), feature_dim)).astype(F32)
        s = np.abs(gen.standard_normal(d_z)).astype(F32)
        got = refine_latent(z0, m_h, window, s, p)
        exp = _o_refine_latent(z0, m_h, window, s, p)
        worst = max(worst, float(np.max(np.abs(got - exp))))
        assert np.allclose(got, exp, atol=1e-6)
    report("C4", f"500 random modulation/refinement chains match oracles "
                 f"(worst abs diff {worst:.2e})")


def test_c05_sensitivity_linear_decoders():
    """The finite-difference oracle recovers analytic column norms, and the
    shipped exact probe matches that oracle on seeded priors."""
    m_h = np.zeros((2, 4), dtype=F32)
    for d_z in (1, 2, 8, 16, 32):
        gen = Rng(d_z).generator("c5")
        a = gen.standard_normal((3 * d_z, d_z))

        def decoder(h, zs, a=a):
            return (np.asarray(zs, dtype=F64) @ a.T).reshape(len(zs), 3, d_z).astype(F32)

        # Linear maps have no truncation error, so a wider probe step only
        # dilutes the decoder's float32 storage rounding.
        s = estimate_sensitivity(decoder, m_h, gen.standard_normal(d_z, dtype=F32),
                                 h_step=1e-2)
        np.testing.assert_allclose(s, np.linalg.norm(a, axis=0), atol=1e-4)

    worst = 0.0
    for size, cfg in {"compact": COMPACT, "engine": EngineConfig()}.items():
        for seed in range(8):
            params = seeded_prior_params(
                Rng(seed).child("c5", size), feature_dim=FeatureLayout(cfg.joints).dim,
                history_len=cfg.history_len, future_len=cfg.future_len,
                latent_dim=cfg.latent_dim, text_dim=cfg.text_dim, width=cfg.width,
                heads=cfg.heads, n_blocks=cfg.n_blocks, ffn_hidden=cfg.ffn_hidden,
                vae_hidden=cfg.vae_hidden)
            gen = Rng(seed).generator("c5", size, "point")
            h = gen.standard_normal((params.history_len, params.feature_dim)).astype(F32)
            z0 = gen.standard_normal(params.latent_dim).astype(F32)
            exact = decoder_sensitivity(project_history(h, params), z0, params)
            oracle = estimate_sensitivity(window_decoder(params), h, z0)
            worst = max(worst, float(np.max(np.abs(exact - oracle) / oracle)))
            # The oracle's float32 rounding over its 2e-3 step measured at most
            # 7.7e-4 relative on these 16 priors.
            np.testing.assert_allclose(exact, oracle, rtol=1e-3)
    report("C5", f"oracle equals analytic column norms for d_z up to 32; exact probe "
                 f"within {worst:.1e} relative of it on 16 seeded priors")


def test_c06_refinement_algorithm_conformance(compact_archive, monkeypatch):
    """F-1 refinements, F-1 decodes, zero denoiser calls, shifted baseline at init."""
    import remogen.runtime.engine as engine_module

    # Counted at the names the fwsr engine calls them by.
    calls = {"refine": 0, "denoiser": 0, "decodes": []}
    real_refine = engine_module.refine_latent
    real_denoiser = engine_module.predict_clean_latent
    real_decode = engine_module.decode_segment

    def counting_refine(*args, **kwargs):
        calls["refine"] += 1
        return real_refine(*args, **kwargs)

    def counting_denoiser(*args, **kwargs):
        calls["denoiser"] += 1
        return real_denoiser(*args, **kwargs)

    def recording_decode(*args, frames=slice(None), **kwargs):
        calls["decodes"].append(frames)
        return real_decode(*args, frames=frames, **kwargs)

    monkeypatch.setattr(engine_module, "refine_latent", counting_refine)
    monkeypatch.setattr(engine_module, "predict_clean_latent", counting_denoiser)
    monkeypatch.setattr(engine_module, "decode_segment", recording_decode)

    f_len = COMPACT.future_len
    layout = FeatureLayout(COMPACT.joints)
    for seed in range(50):
        gen = Rng(seed).generator("c6")
        engine = Engine(compact_archive, dataclasses.replace(COMPACT, fwsr=True, seed=seed))
        m_h = engine.state.history
        calls.update(refine=0, decodes=[])
        out, denoiser_per_tick = [], []
        # Frame 0 comes from the boundary tick's decode; each later frame is
        # one refinement tick.
        for _ in range(f_len):
            before = calls["denoiser"]
            out.extend(engine.tick(gen.standard_normal(layout.dim).astype(F32)))
            denoiser_per_tick.append(calls["denoiser"] - before)
        out = np.stack(out)
        assert len(out) == f_len
        assert calls["refine"] == f_len - 1
        assert calls["decodes"][1:] == [slice(f, f + 1) for f in range(1, f_len)]
        assert denoiser_per_tick[0] > 0 and denoiser_per_tick[1:] == [0] * (f_len - 1)
        # Zero-gated refinement reproduces the shifted-history re-decode
        # (init_weights leaves the normalizer at the identity).
        z0 = engine.state.z0
        full = real_decode(project_history(m_h, engine.prior), z0, engine.prior)
        shifted = real_decode(project_history(np.vstack([m_h[1:], full[0]]), engine.prior),
                              z0, engine.prior)
        assert np.array_equal(out[0], full[0])
        assert np.array_equal(out[1:], shifted[1:])
    report("C6", "50 refinement runs: F-1 refines, F-1 decodes, 0 denoiser calls, "
                 "baseline bit-exact at init")


def test_c07_rollout_window_invariants():
    """Output length and history window contents for every small (H, F, n)."""
    checked = 0
    for h_len in range(1, 9):
        for f_len in range(1, 9):
            cfg = EngineConfig(history_len=h_len, future_len=f_len, steps=2, latent_dim=6,
                               text_dim=8, width=16, heads=2, n_blocks=1, ffn_hidden=16,
                               vae_hidden=16, injection_layers=(0,),
                               seed=h_len * 100 + f_len)
            # init_weights leaves the normalizer at the identity, so emitted
            # frames and the engine's normalized history are the same numbers.
            archive = init_weights(cfg, seed=1)
            for n_seg in range(0, 6):
                engine = Engine(archive, cfg, mode="segment")
                engine.set_text("sweep")
                frames = [engine.state.history]
                for _ in range(n_seg):
                    np.testing.assert_array_equal(engine.state.history,
                                                  np.vstack(frames)[-h_len:])
                    emitted = engine.run_ticks(f_len)
                    assert len(emitted) == f_len
                    frames.extend(emitted)
                assert len(frames) - 1 == n_seg * f_len
                np.testing.assert_array_equal(engine.state.history, np.vstack(frames)[-h_len:])
                checked += 1
    assert checked == 8 * 8 * 6
    report("C7", f"{checked} (H, F, n) segment-mode rollouts keep length and window "
                 f"invariants")


def test_c08_sampler_sanity():
    """Constant-prediction stub recovered; 2 evaluations per step in one batched pass."""
    steps = 10
    z_star = Rng(8).generator("zs").standard_normal(16, dtype=F32)
    worst = 0.0
    for seed in range(100):
        calls = {"n": 0, "passes": 0}

        def stub(z, t):
            # The conditional row, then the unconditional one.
            rows = np.stack([z_star, z_star])
            calls["passes"] += 1
            calls["n"] += len(rows)
            return rows

        out = ddpm_sample(stub, 16, steps, 2.0, Rng(seed).generator("ddpm", 0))
        worst = max(worst, float(np.max(np.abs(out - z_star))))
        assert worst < 1e-5
        assert calls["n"] == 2 * steps
        assert calls["passes"] == steps
    report("C8", f"constant-prediction stub recovered over 100 seeds "
                 f"(worst {worst:.1e}); 20 denoiser evaluations in 10 passes per segment")


def test_c09_metric_oracles():
    """Closed-form FID, flat-jerk, brute-force collision."""
    # Sample means 0 and 2, sample variances (ddof=1) both 2: the distance
    # is (0 - 2)^2 + (sqrt(2) - sqrt(2))^2.
    a = np.array([[-1.0], [1.0]])
    assert frechet_distance(a, a + 2.0) == pytest.approx(4.0, abs=1e-6)

    gen = Rng(9).generator("c9")
    emb = gen.standard_normal((64, 8))
    assert frechet_distance(emb, emb) == pytest.approx(0.0, abs=1e-6)

    t = np.arange(20, dtype=F64)
    quadratic = (0.5 * 1.7 * t ** 2)[:, None, None] * np.ones((1, 3, 3))
    assert peak_jerk(quadratic, fps=10) < 1e-6

    for seed in range(5):
        g = Rng(seed).generator("coll9")
        frames, joints = int(g.integers(4, 21)), int(g.integers(1, 6))
        spec = GridSpec([-1, -1, -1], [1, 1, 1], (5, 5, 5))
        grid = VoxelGrid.from_bool_array(spec, g.uniform(size=spec.dims) > 0.5)
        ego = g.uniform(-1.3, 1.3, size=(frames, joints, 3))
        partner = ego + g.uniform(-COLLISION_RADIUS, COLLISION_RADIUS, size=(frames, joints, 3))
        got = collision_pct(ego, grid=grid, partner_joints=partner)
        hits = 0
        for ti in range(frames):
            hit = False
            for ji in range(joints):
                if occupied(grid, ego[ti, ji]):
                    hit = True
                for pj in range(joints):
                    if np.linalg.norm(ego[ti, ji] - partner[ti, pj]) <= COLLISION_RADIUS:
                        hit = True
            hits += hit
        assert got == pytest.approx(100.0 * hits / frames)
    report("C9", "closed-form FID, flat jerk and brute-force collision oracles hold")


@pytest.mark.slow
def test_c10_latency_structure():
    """Per-frame cost: refinement path >= 3x cheaper than slide, segment within 1.5x.

    Cost is this process's CPU time, so another process sharing the CPU does
    not move the ratios, as it would move wall-clock time.
    """
    cfg = EngineConfig()
    archive = init_weights(cfg, 0)
    start = time.perf_counter()
    per = {}
    for mode in ("segment", "fwsr", "slide"):
        cpu = time.process_time()
        frames = len(Engine(archive, cfg, mode=mode).run_ticks(1000))
        per[mode] = (time.process_time() - cpu) / frames
        assert frames >= 1000
    elapsed = time.perf_counter() - start
    assert per["slide"] / per["fwsr"] >= 3.0
    assert per["segment"] <= 1.5 * per["fwsr"]
    assert elapsed < 300.0
    report("C10", f"per-frame CPU s: segment {per['segment']:.4f}, fwsr {per['fwsr']:.4f}, "
                  f"slide {per['slide']:.4f}; slide/fwsr = "
                  f"{per['slide'] / per['fwsr']:.1f}x; the three runs took {elapsed:.0f} s")


def test_c10_denoiser_passes_per_tick(compact_archive, monkeypatch):
    """C10's cost structure counted, not timed: slide runs the DDPM chain on
    every tick, segment and fwsr only on their boundary ticks."""
    import remogen.runtime.engine as engine_module

    cfg = dataclasses.replace(COMPACT, alpha={"hhi": 1.0})
    f_len, steps = cfg.future_len, cfg.steps
    partner = featurize(synthetic_sequence(2 * f_len, seed=3)).frames
    passes = []
    real = engine_module.predict_clean_latent

    def counting(*args, **kwargs):
        passes.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(engine_module, "predict_clean_latent", counting)
    expected = {
        "slide": [steps] * (2 * f_len),
        "segment": ([0] * (f_len - 1) + [steps]) * 2,
        "fwsr": ([steps] + [0] * (f_len - 1)) * 2,  # inner ticks only refine
    }
    for mode, want in expected.items():
        engine = Engine(compact_archive, cfg, mode=mode)
        per_tick = []
        for frame in partner:
            before = len(passes)
            engine.tick(frame)
            per_tick.append(len(passes) - before)
        assert per_tick == want, mode
    report("C10", f"denoiser passes per {f_len}-frame segment: slide {steps * f_len}, "
                  f"segment {steps}, fwsr {steps} (boundary tick only)")


def test_c10_module_passes_per_tick(compact_archive, scene_grid, monkeypatch):
    """Interaction-module passes counted per tick, not timed: one per active
    module per DDPM step, so slide runs them on every tick, segment and fwsr
    on their boundary ticks only, and fwsr refinement ticks run none."""
    import remogen.runtime.engine as engine_module

    f_len, steps = COMPACT.future_len, COMPACT.steps
    partner = featurize(synthetic_sequence(2 * f_len, seed=3)).frames
    passes = []
    real = engine_module.module_deltas

    def counting(*args, **kwargs):
        passes.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(engine_module, "module_deltas", counting)
    for alpha, modules in (({"hhi": 1.0}, 1), ({"hhi": 0.5, "hsi": 0.5}, 2)):
        cfg = dataclasses.replace(COMPACT, alpha=alpha)
        per_step = modules * steps
        expected = {
            "slide": [per_step] * (2 * f_len),
            "segment": ([0] * (f_len - 1) + [per_step]) * 2,
            "fwsr": ([per_step] + [0] * (f_len - 1)) * 2,  # refinement ticks run none
        }
        for mode, want in expected.items():
            engine = Engine(compact_archive, cfg, mode=mode)
            engine.set_scene(scene_grid)
            per_tick = []
            for frame in partner:
                before = len(passes)
                engine.tick(frame)
                per_tick.append(len(passes) - before)
            assert per_tick == want, (mode, alpha)
    report("C10", f"module passes per {f_len}-frame segment and module: slide "
                  f"{steps * f_len}, segment {steps}, fwsr {steps} (boundary tick only); "
                  f"hhi + hsi twice as many")


def test_c11_round_trips(tmp_path, compact_archive):
    """Three codecs byte-exact, voxel dims from bounds."""
    arch_a, arch_b = tmp_path / "a.rmgw", tmp_path / "b.rmgw"
    save_archive(compact_archive, arch_a)
    save_archive(load_archive(arch_a), arch_b)
    assert arch_a.read_bytes() == arch_b.read_bytes()

    layout = FeatureLayout()
    seg = featurize(synthetic_sequence(6, seed=3))
    mot_a, mot_b = tmp_path / "a.rmgm", tmp_path / "b.rmgm"
    save_motion(seg, mot_a, layout)
    save_motion(load_motion(mot_a)[0], mot_b, layout)
    assert mot_a.read_bytes() == mot_b.read_bytes()

    spec = GridSpec.from_resolution([-3.0, -4.0, 0.0], [3.0, 4.0, 2.0], 0.02)
    assert spec.dims == (300, 400, 100)
    grid = VoxelGrid.from_bool_array(
        GridSpec([0, 0, 0], [1, 1, 1], (6, 6, 6)),
        Rng(12).generator("g").uniform(size=(6, 6, 6)) > 0.5)
    vox_a, vox_b = tmp_path / "a.rmgv", tmp_path / "b.rmgv"
    save_voxels(grid, vox_a)
    save_voxels(load_voxels(vox_a), vox_b)
    assert vox_a.read_bytes() == vox_b.read_bytes()

    from remogen.scene import extract_ego_voxels

    block = extract_ego_voxels(grid, RigidTransform(np.eye(3), np.zeros(3)))
    assert block.occupancy.shape == (EGO_DIMS, EGO_DIMS, EGO_DIMS)
    report("C11", "codec round trips exact; room grid dims (300, 400, 100)")


def test_c12_stream_determinism(compact_archive):
    """Two identical stream runs produce byte-identical transcripts sans timings."""
    partner = featurize(synthetic_sequence(24, seed=5)).frames
    lines = [json.dumps({"t": i, "kind": "partner_pose",
                         "pose": [float(v) for v in f]}) for i, f in enumerate(partner)]
    lines.insert(10, json.dumps({"t": 10, "kind": "text", "text": "step aside"}))
    text = "\n".join(lines) + "\n"

    def run():
        sink = io.StringIO()
        stream_run(io.StringIO(text), sink, COMPACT, compact_archive, log=io.StringIO())
        stripped = []
        for line in sink.getvalue().strip().split("\n"):
            obj = json.loads(line)
            obj.pop("latency_ms", None)
            stripped.append(json.dumps(obj, separators=(",", ":"), sort_keys=True))
        return "\n".join(stripped).encode()

    assert run() == run()
    report("C12", "stream transcripts byte-identical across runs (timings stripped)")


def test_c13_reaction_lag():
    """fwsr and slide answer a partner frame on its own tick; segment mode
    only hears the last H partner frames before each boundary."""
    from test_golden import golden_archive

    start = time.perf_counter()
    cfg = dataclasses.replace(COMPACT, alpha={"hhi": 1.0}, seed=7)
    archive = golden_archive(cfg)  # non-zero module gates and FiLM head
    f_len, h_len = cfg.future_len, cfg.history_len
    n_ticks = 2 * f_len
    partner = featurize(synthetic_sequence(n_ticks, seed=7)).frames

    def run(mode, frames):
        engine = Engine(archive, cfg, mode=mode)
        engine.set_text("step toward the partner")
        return [engine.tick(frame) for frame in frames]

    def changed_ticks(a, b):
        return [len(x) != len(y) or not all(np.array_equal(u, v) for u, v in zip(x, y))
                for x, y in zip(a, b)]

    for mode in ("fwsr", "slide", "segment"):
        base = run(mode, partner)
        for k in range(n_ticks):
            bumped = partner.copy()
            bumped[k] += 0.5
            changed = changed_ticks(base, run(mode, bumped))
            assert not any(changed[:k]), (mode, k)
            if mode != "segment":
                assert changed[k], (mode, k)  # lag 0
            elif k % f_len >= f_len - h_len:
                # Read by the module context of the boundary that closes k's segment.
                assert changed[k - k % f_len + f_len - 1], (mode, k)
            else:
                assert not any(changed), (mode, k)
    elapsed = time.perf_counter() - start
    report("C13", f"fwsr and slide react on the perturbed tick; segment mode hears only "
                  f"the last {h_len} of every {f_len} partner frames ({elapsed:.1f} s)")


def test_c13_text_waits_for_the_next_boundary(compact_archive):
    """A set_text call mid-segment leaves every tick before the next segment
    boundary bit-identical and changes the segment sampled there."""
    f_len = COMPACT.future_len
    call = f_len + f_len // 2  # inside the second segment
    n_ticks = 3 * f_len

    def run(mode, new_text):
        engine = Engine(compact_archive, COMPACT, mode=mode)
        engine.set_text("walk forward")
        out = []
        for tick in range(n_ticks):
            if tick == call and new_text is not None:
                engine.set_text(new_text)
            out.append(b"".join(f.tobytes() for f in engine.tick()))
        return out

    # The ticks that sample a segment: segment mode emits a whole segment at
    # the end of its window, fwsr samples at its start.
    for mode, first in (("segment", f_len - 1), ("fwsr", 0)):
        boundary = next(b for b in range(first, n_ticks, f_len) if b >= call)
        base, steered = run(mode, None), run(mode, "turn around and sit down")
        assert base[:boundary] == steered[:boundary], mode
        assert all(a != b for a, b in zip(base[boundary:], steered[boundary:]) if a), mode
        assert base[boundary] != steered[boundary], mode
    report("C13", "a text set mid-segment leaves the rest of that segment bit-identical "
                  "and changes the next one (segment and fwsr mode)")
