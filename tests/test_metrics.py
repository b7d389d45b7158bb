"""Metric tests: closed-form Frechet cases, retrieval, jerk, collision oracle, latency."""
import time

import numpy as np
import pytest

from remogen.errors import ConfigError, DimensionError, InsufficientFramesError
from remogen.metrics import (
    EmbeddingSet,
    GaussianStats,
    LatencyRecorder,
    ReferenceEmbedder,
    collision_metrics,
    diversity,
    frechet_distance,
    frechet_gaussian,
    gaussian_stats,
    latency_profile,
    peak_jerk,
    retrieval_metrics,
)
from remogen.scene import GridSpec, Occupancy, VoxelGrid, query_occupancy
from remogen.tensorcore import Rng

F32 = np.float32


class TestFrechetDistance:
    def test_same_set_is_zero(self):
        gen = Rng(1).generator("fid")
        emb = EmbeddingSet(gen.standard_normal((40, 6)))
        assert frechet_distance(emb, emb) == pytest.approx(0.0, abs=1e-6)

    def test_one_dimensional_closed_form(self):
        a = GaussianStats(np.array([0.0]), np.array([[1.0]]))
        b = GaussianStats(np.array([2.0]), np.array([[1.0]]))
        # (mu_a - mu_b)^2 + (sigma_a - sigma_b)^2
        assert frechet_gaussian(a, b) == pytest.approx(4.0, abs=1e-6)

    def test_diagonal_case_matches_scalar_sum(self):
        var_a = np.array([1.0, 4.0])
        var_b = np.array([9.0, 0.25])
        mu_a = np.array([0.0, 1.0])
        mu_b = np.array([2.0, -1.0])
        a = GaussianStats(mu_a, np.diag(var_a))
        b = GaussianStats(mu_b, np.diag(var_b))
        expected = sum((mu_a[i] - mu_b[i]) ** 2
                       + (np.sqrt(var_a[i]) - np.sqrt(var_b[i])) ** 2 for i in range(2))
        assert frechet_gaussian(a, b) == pytest.approx(expected, abs=1e-6)

    def test_symmetry(self):
        gen = Rng(2).generator("fid")
        a = EmbeddingSet(gen.standard_normal((30, 5)))
        b = EmbeddingSet(gen.standard_normal((25, 5)) + 1.0)
        assert frechet_distance(a, b) == pytest.approx(frechet_distance(b, a), abs=1e-6)

    def test_nonnegative_on_random_pairs(self):
        gen = Rng(3).generator("fid")
        for _ in range(5):
            a = EmbeddingSet(gen.standard_normal((20, 4)))
            b = EmbeddingSet(gen.standard_normal((20, 4)) * gen.uniform(0.5, 2))
            assert frechet_distance(a, b) >= -1e-9

    def test_width_mismatch(self):
        with pytest.raises(DimensionError):
            frechet_distance(EmbeddingSet(np.zeros((3, 2))),
                             EmbeddingSet(np.zeros((3, 3))))

    def test_stats_need_two_vectors(self):
        with pytest.raises(DimensionError):
            gaussian_stats(EmbeddingSet(np.zeros((1, 2))))


class TestRetrievalMetrics:
    def test_identity_pairing_perfect(self):
        gen = Rng(4).generator("ret")
        emb = EmbeddingSet(gen.standard_normal((8, 5)))
        report = retrieval_metrics(emb, emb, batch=4)
        assert report.r_precision[1] == 1.0
        assert report.mm_dist == pytest.approx(0.0)
        assert report.batches == 2

    def test_one_hot_pairs_top3(self):
        eye = np.eye(4)
        report = retrieval_metrics(EmbeddingSet(eye), EmbeddingSet(eye), batch=4)
        assert report.r_precision[3] == 1.0

    def test_monotone_in_k(self):
        gen = Rng(5).generator("ret")
        m = EmbeddingSet(gen.standard_normal((64, 6)))
        t = EmbeddingSet(gen.standard_normal((64, 6)))
        report = retrieval_metrics(m, t, batch=64)
        assert report.r_precision[1] <= report.r_precision[2] <= report.r_precision[3]

    def test_partial_batch_dropped(self):
        gen = Rng(6).generator("ret")
        m = EmbeddingSet(gen.standard_normal((70, 4)))
        report = retrieval_metrics(m, m, batch=64)
        assert report.batches == 1

    def test_too_few_pairs(self):
        with pytest.raises(ConfigError):
            retrieval_metrics(EmbeddingSet(np.zeros((8, 2))),
                              EmbeddingSet(np.zeros((8, 2))), batch=64)


class TestDiversity:
    def test_identical_vectors_zero(self):
        emb = EmbeddingSet(np.ones((10, 3)))
        assert diversity(emb) == 0.0

    def test_two_points(self):
        emb = EmbeddingSet(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert diversity(emb) == pytest.approx(5.0)

    def test_sampled_close_to_all_pairs(self):
        gen = Rng(7).generator("div")
        v = gen.standard_normal((100, 16))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        emb = EmbeddingSet(v)
        exact = diversity(emb)  # all pairs (N <= 512)
        sampled = diversity(emb, pairs=300, rng=Rng(3))
        assert abs(sampled - exact) / exact < 0.05

    def test_deterministic_given_seed(self):
        gen = Rng(8).generator("div")
        emb = EmbeddingSet(gen.standard_normal((50, 4)))
        assert diversity(emb, pairs=40, rng=Rng(5)) == diversity(emb, pairs=40, rng=Rng(5))


class TestPeakJerk:
    def test_constant_velocity_zero(self):
        t = np.arange(10, dtype=np.float64)
        pos = np.stack([np.stack([t * 0.3, t * -0.1, np.zeros(10)], axis=-1)], axis=1)
        assert peak_jerk(pos, fps=10) == pytest.approx(0.0, abs=1e-9)

    def test_constant_acceleration_zero(self):
        t = np.arange(12, dtype=np.float64)
        pos = (0.5 * t ** 2)[:, None, None] * np.ones((1, 2, 3))
        assert peak_jerk(pos, fps=10) == pytest.approx(0.0, abs=1e-6)

    def test_sine_matches_analytic(self):
        fps = 10.0
        t = np.arange(200) / fps
        pos = np.zeros((200, 1, 3))
        pos[:, 0, 0] = np.sin(t)
        # d^3/dt^3 sin(t) = -cos(t), peak magnitude 1
        assert peak_jerk(pos, fps) == pytest.approx(1.0, rel=0.05)

    def test_invariant_to_added_constant_velocity(self):
        gen = Rng(9).generator("jerk")
        pos = gen.standard_normal((15, 3, 3))
        drift = np.arange(15)[:, None, None] * np.array([0.2, -0.4, 0.1])
        assert peak_jerk(pos + drift, 10) == pytest.approx(peak_jerk(pos, 10), rel=1e-9)

    def test_too_few_frames(self):
        with pytest.raises(InsufficientFramesError):
            peak_jerk(np.zeros((3, 1, 3)), 10)


class TestCollisionMetrics:
    def test_far_from_everything(self):
        ego = np.zeros((5, 2, 3))
        partner = np.full((5, 2, 3), 10.0)
        report = collision_metrics(ego, partner_joints=partner)
        assert report.collision_pct == 0.0

    def test_inside_occupied_voxel_every_frame(self):
        spec = GridSpec([0, 0, 0], [1, 1, 1], (2, 2, 2))
        grid = VoxelGrid.from_bool_array(spec, np.ones(spec.dims, dtype=bool))
        ego = np.full((4, 1, 3), 0.5)
        report = collision_metrics(ego, grid=grid)
        assert report.collision_pct == 100.0

    def test_exact_contacts_perfect_precision_recall(self):
        ego = np.zeros((6, 1, 3))
        partner = np.full((6, 1, 3), 5.0)
        partner[2] = 0.05  # close contact at frame 2
        report = collision_metrics(ego, partner_joints=partner, contact_radius=0.1)
        ref = report.predicted_contacts
        scored = collision_metrics(ego, partner_joints=partner, contact_radius=0.1,
                                   reference_contacts=ref)
        assert scored.contact_precision == 1.0
        assert scored.contact_recall == 1.0

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force_oracle(self, seed):
        gen = Rng(seed).generator("coll")
        t, j = int(gen.integers(2, 21)), int(gen.integers(1, 6))
        spec = GridSpec([-1, -1, -1], [1, 1, 1], (6, 6, 6))
        occ = gen.uniform(size=spec.dims) > 0.6
        grid = VoxelGrid.from_bool_array(spec, occ)
        ego = gen.uniform(-1.4, 1.4, size=(t, j, 3))
        partner = gen.uniform(-1.4, 1.4, size=(t, j, 3))
        radius = 0.4
        report = collision_metrics(ego, grid=grid, partner_joints=partner, radius=radius)

        hits = 0
        for ti in range(t):
            frame_hit = False
            for ji in range(j):
                if query_occupancy(grid, ego[ti, ji]) is Occupancy.OCCUPIED:
                    frame_hit = True
                for pj in range(j):
                    if np.linalg.norm(ego[ti, ji] - partner[ti, pj]) <= radius:
                        frame_hit = True
            hits += frame_hit
        assert report.collision_pct == pytest.approx(100.0 * hits / t)

    def test_needs_some_context(self):
        with pytest.raises(ConfigError):
            collision_metrics(np.zeros((3, 1, 3)))


class TestLatencyProfile:
    def test_zero_frames_empty_report(self):
        breakdown = latency_profile(lambda rec, n: n, n_frames=0)
        assert breakdown.frames == 0
        assert breakdown.per_frame == 0.0

    def test_components_bounded_by_total(self):
        def run(rec, n):
            for _ in range(n):
                with rec.track("compute"):
                    time.sleep(0.001)
                with rec.track("io"):
                    pass
            return n

        breakdown = latency_profile(run, n_frames=20)
        assert breakdown.frames == 20
        assert breakdown.per_frame == pytest.approx(breakdown.total / 20)
        total_with_overhead = breakdown.total * 1.1
        for value in breakdown.components.values():
            assert value <= total_with_overhead
        assert breakdown.counts["compute"] == 20

    def test_per_call_tail(self):
        waits = [0.0] * 18 + [0.02, 0.04]

        def run(rec, n):
            for wait in waits[:n]:
                with rec.track("work"):
                    time.sleep(wait)
            return n

        breakdown = latency_profile(run, n_frames=len(waits))
        calls = breakdown.durations["work"]
        assert len(calls) == breakdown.counts["work"] == 20
        assert breakdown.components["work"] == pytest.approx(sum(calls))
        p50, p95, worst = breakdown.component_tail("work")
        assert p50 < 0.01 <= p95 <= worst == max(calls)
        assert worst >= 0.04
        assert breakdown.component_tail("absent") == (0.0, 0.0, 0.0)


class TestLatencyRecorder:
    def test_ordinary_scopes_nest(self):
        rec = LatencyRecorder()
        with rec.track("outer"):
            with rec.track("inner"):
                time.sleep(0.05)
        assert rec.durations["outer"][0] >= rec.durations["inner"][0] >= 0.05


class TestReferenceEmbedder:
    def test_deterministic(self):
        gen = Rng(10).generator("emb")
        clip = gen.standard_normal((8, 12)).astype(F32)
        e = ReferenceEmbedder(dim=16)
        assert np.array_equal(e.embed_motion(clip), e.embed_motion(clip))

    def test_output_dim_and_norm(self):
        gen = Rng(11).generator("emb")
        e = ReferenceEmbedder(dim=16)
        v = e.embed_motion(gen.standard_normal((8, 12)).astype(F32))
        assert v.shape == (16,)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-6)

    def test_short_clip_padded(self):
        gen = Rng(12).generator("emb")
        e = ReferenceEmbedder(dim=8, window=8)
        v = e.embed_motion(gen.standard_normal((3, 12)).astype(F32))
        assert v.shape == (8,)

    def test_text_embedding(self):
        e = ReferenceEmbedder(dim=16)
        a = e.embed_text("walk forward")
        b = e.embed_text("walk forward")
        assert np.array_equal(a, b)
        assert a.shape == (16,)
