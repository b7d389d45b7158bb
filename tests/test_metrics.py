"""Metric tests: closed-form Frechet cases, diversity, embeddings, jerk,
collision oracle."""
import numpy as np
import pytest
from scene_reference import occupied

from remogen.errors import ConfigError, DimensionError, InsufficientFramesError, NumericError
from remogen.metrics import (
    ALL_PAIRS_LIMIT,
    COLLISION_RADIUS,
    EMBED_DIM,
    EMBED_WINDOW,
    SAMPLED_PAIRS,
    collision_pct,
    diversity,
    embed_windows,
    frechet_distance,
    peak_jerk,
)
from remogen.scene import GridSpec, VoxelGrid
from remogen.tensorcore import Rng

F32 = np.float32


def points_with_moments(mean, var):
    """2E points whose sample mean is `mean` and sample covariance (ddof=1)
    is diag(var): mean +- s_i e_i for each axis i, with 2 s_i^2 / (2E - 1) = var_i."""
    mean, var = np.asarray(mean, dtype=np.float64), np.asarray(var, dtype=np.float64)
    e = mean.shape[0]
    offsets = np.diag(np.sqrt(var * (2 * e - 1) / 2.0))
    return mean + np.concatenate([offsets, -offsets])


class TestFrechetDistance:
    def test_same_set_is_zero(self):
        gen = Rng(1).generator("fid")
        emb = gen.standard_normal((40, 6))
        assert frechet_distance(emb, emb) == pytest.approx(0.0, abs=1e-6)

    def test_never_negative_on_equal_sets(self):
        """Rounding takes Tr(2C - 2 C) a little below zero for most sets; the
        distance is clamped at 0."""
        gen = Rng(1).generator("fid-clamp")
        for _ in range(20):
            emb = gen.standard_normal((12, 16))
            assert frechet_distance(emb, emb) >= 0.0

    def test_points_with_moments_have_them(self):
        pts = points_with_moments([1.0, -2.0, 0.5], [1.0, 4.0, 0.25])
        assert np.allclose(pts.mean(axis=0), [1.0, -2.0, 0.5], atol=1e-12)
        assert np.allclose(np.cov(pts, rowvar=False), np.diag([1.0, 4.0, 0.25]), atol=1e-12)

    def test_one_dimensional_closed_form(self):
        a = points_with_moments([0.0], [1.0])
        b = points_with_moments([2.0], [1.0])
        # (mu_a - mu_b)^2 + (sigma_a - sigma_b)^2
        assert frechet_distance(a, b) == pytest.approx(4.0, abs=1e-6)

    def test_diagonal_case_matches_scalar_sum(self):
        var_a = np.array([1.0, 4.0])
        var_b = np.array([9.0, 0.25])
        mu_a = np.array([0.0, 1.0])
        mu_b = np.array([2.0, -1.0])
        a = points_with_moments(mu_a, var_a)
        b = points_with_moments(mu_b, var_b)
        expected = sum((mu_a[i] - mu_b[i]) ** 2
                       + (np.sqrt(var_a[i]) - np.sqrt(var_b[i])) ** 2 for i in range(2))
        assert frechet_distance(a, b) == pytest.approx(expected, abs=1e-6)

    def test_symmetry(self):
        gen = Rng(2).generator("fid")
        a = gen.standard_normal((30, 5))
        b = gen.standard_normal((25, 5)) + 1.0
        assert frechet_distance(a, b) == pytest.approx(frechet_distance(b, a), abs=1e-6)

    def test_nonnegative_on_random_pairs(self):
        gen = Rng(3).generator("fid")
        for _ in range(5):
            a = gen.standard_normal((20, 4))
            b = gen.standard_normal((20, 4)) * gen.uniform(0.5, 2)
            assert frechet_distance(a, b) >= 0.0

    def test_width_mismatch(self):
        with pytest.raises(DimensionError):
            frechet_distance(np.zeros((3, 2)), np.zeros((3, 3)))

    def test_needs_two_vectors(self):
        with pytest.raises(DimensionError):
            frechet_distance(np.zeros((1, 2)), np.zeros((3, 2)))


class TestDiversity:
    def test_identical_vectors_zero(self):
        assert diversity(np.ones((10, 3))) == 0.0

    def test_two_points(self):
        assert diversity(np.array([[0.0, 0.0], [3.0, 4.0]])) == pytest.approx(5.0)

    def test_needs_two_vectors(self):
        with pytest.raises(DimensionError):
            diversity(np.zeros((1, 4)))

    def _unit_set(self, n):
        v = Rng(7).generator("div", n).standard_normal((n, 16))
        return v / np.linalg.norm(v, axis=1, keepdims=True)

    def test_sampled_close_to_all_pairs(self):
        n = ALL_PAIRS_LIMIT + 88
        v = self._unit_set(n)
        dist = np.linalg.norm(v[:, None, :] - v[None, :, :], axis=-1)
        exact = float(dist[np.triu_indices(n, k=1)].mean())
        assert abs(diversity(v) - exact) / exact < 0.05

    def test_sampled_pairs_are_the_seeded_draws(self):
        n = ALL_PAIRS_LIMIT + 1
        v = self._unit_set(n)
        gen = Rng(0).generator("diversity", n, SAMPLED_PAIRS)
        draws = [gen.choice(n, size=2, replace=False) for _ in range(SAMPLED_PAIRS)]
        expected = sum(float(np.linalg.norm(v[i] - v[j])) for i, j in draws) / SAMPLED_PAIRS
        assert diversity(v) == expected
        assert diversity(v) == diversity(v.copy())

    def test_all_pairs_up_to_the_limit(self):
        v = self._unit_set(ALL_PAIRS_LIMIT)
        dist = np.linalg.norm(v[:, None, :] - v[None, :, :], axis=-1)
        assert diversity(v) == float(dist[np.triu_indices(ALL_PAIRS_LIMIT, k=1)].mean())


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
        assert collision_pct(ego, partner_joints=partner) == 0.0

    def test_inside_occupied_voxel_every_frame(self):
        spec = GridSpec([0, 0, 0], [1, 1, 1], (2, 2, 2))
        grid = VoxelGrid.from_bool_array(spec, np.ones(spec.dims, dtype=bool))
        ego = np.full((4, 1, 3), 0.5)
        assert collision_pct(ego, grid=grid) == 100.0

    def test_partner_at_the_radius_collides(self):
        ego = np.zeros((4, 1, 3))
        partner = np.full((4, 1, 3), 5.0)
        partner[1, 0] = [COLLISION_RADIUS, 0.0, 0.0]
        partner[2, 0] = [np.nextafter(COLLISION_RADIUS, 1.0), 0.0, 0.0]
        assert collision_pct(ego, partner_joints=partner) == 25.0

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force_oracle(self, seed):
        gen = Rng(seed).generator("coll")
        t, j = int(gen.integers(2, 21)), int(gen.integers(1, 6))
        spec = GridSpec([-1, -1, -1], [1, 1, 1], (6, 6, 6))
        occ = gen.uniform(size=spec.dims) > 0.6
        grid = VoxelGrid.from_bool_array(spec, occ)
        ego = gen.uniform(-1.4, 1.4, size=(t, j, 3))
        # Partner joints near the ego's, so about half fall within the radius.
        partner = ego + gen.uniform(-COLLISION_RADIUS, COLLISION_RADIUS, size=(t, j, 3))
        got = collision_pct(ego, grid=grid, partner_joints=partner)

        hits = 0
        for ti in range(t):
            frame_hit = False
            for ji in range(j):
                if occupied(grid, ego[ti, ji]):
                    frame_hit = True
                for pj in range(j):
                    if np.linalg.norm(ego[ti, ji] - partner[ti, pj]) <= COLLISION_RADIUS:
                        frame_hit = True
            hits += frame_hit
        assert got == pytest.approx(100.0 * hits / t)

    def test_partner_check_covers_the_frames_both_hold(self):
        """The scene check scores every ego frame, the partner check only the
        frames the partner has; without a grid only those are scored."""
        spec = GridSpec([0, 0, 0], [1, 1, 1], (2, 2, 2))
        grid = VoxelGrid.from_bool_array(spec, np.ones(spec.dims, dtype=bool))
        ego = np.full((4, 1, 3), 5.0)
        ego[3] = 0.5                                   # only frame 3 is in the grid
        partner = np.full((2, 1, 3), 5.0)              # touches frames 0 and 1
        assert collision_pct(ego, grid=grid, partner_joints=partner) == 75.0
        assert collision_pct(ego, partner_joints=partner) == 100.0
        assert collision_pct(ego[:1], grid=grid, partner_joints=partner) == 100.0
        with pytest.raises(DimensionError):
            collision_pct(ego, partner_joints=partner[:0])

    def test_needs_some_context(self):
        with pytest.raises(ConfigError):
            collision_pct(np.zeros((3, 1, 3)))


class TestEmbedWindows:
    def test_deterministic(self):
        gen = Rng(10).generator("emb")
        clip = gen.standard_normal((8, 12)).astype(F32)
        assert np.array_equal(embed_windows(clip), embed_windows(clip))

    def test_output_dim_and_norm(self):
        gen = Rng(11).generator("emb")
        v = embed_windows(gen.standard_normal((8, 12)).astype(F32))
        assert v.shape == (1, EMBED_DIM)
        assert np.linalg.norm(v[0]) == pytest.approx(1.0, abs=1e-6)

    def test_one_embedding_per_whole_window(self):
        gen = Rng(13).generator("emb")
        clip = gen.standard_normal((3 * EMBED_WINDOW + 5, 12)).astype(F32)
        v = embed_windows(clip)
        assert v.shape == (3, EMBED_DIM)
        assert np.array_equal(v[1], embed_windows(clip[EMBED_WINDOW:2 * EMBED_WINDOW])[0])

    def test_short_clip_padded(self):
        gen = Rng(12).generator("emb")
        clip = gen.standard_normal((3, 12)).astype(F32)
        padded = np.vstack([clip, np.repeat(clip[-1:], EMBED_WINDOW - 3, axis=0)])
        assert embed_windows(clip).shape == (1, EMBED_DIM)
        assert np.array_equal(embed_windows(clip), embed_windows(padded))

    def test_non_finite_embedding_is_numeric_error(self):
        clip = np.zeros((EMBED_WINDOW, 12), dtype=F32)
        clip[3, 2] = np.nan
        with pytest.raises(NumericError):
            embed_windows(clip)
