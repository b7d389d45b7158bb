"""Motion representation tests: layouts, segments, rigid transforms, featurization, normalizer."""
import numpy as np
import pytest

from remogen.errors import DimensionError
from remogen.motion import (
    FeatureLayout,
    MotionSegment,
    Normalizer,
    RigidTransform,
    featurize,
    joint_positions_from_features,
    normalize,
    rest_sequence,
    rotation_about_axis,
    rotation_from_6d,
    rotation_to_6d,
    synthetic_sequence,
)
from remogen.tensorcore import Rng

F32 = np.float32


class TestFeatureLayout:
    def test_dim_is_derived(self):
        layout = FeatureLayout(joints=22)
        # 3 + 6*22 + 3 + 6 + 3*22 + 3*22
        assert layout.dim == 276

    def test_spans_cover_and_do_not_overlap(self):
        layout = FeatureLayout()
        names = ["root_translation", "rotations_6d", "root_delta_translation",
                 "root_delta_rotation_6d", "joint_positions", "joint_velocities"]
        cursor = 0
        for name in names:
            span = layout.span(name)
            assert span.start == cursor
            cursor = span.stop
        assert cursor == layout.dim

    def test_layout_variant(self):
        assert FeatureLayout(joints=23).dim == 12 * 23 + 12
        assert FeatureLayout.from_id("body22").joints == 22
        assert FeatureLayout.from_id("body1").joints == 1

    @pytest.mark.parametrize("joints", [0, -1])
    def test_fewer_than_one_joint_is_refused(self, joints):
        """A layout load_motion could not read back (body0) is never made."""
        with pytest.raises(DimensionError, match="at least one joint"):
            FeatureLayout(joints)

    @pytest.mark.parametrize("joints", [True, 2.0, "22", None])
    def test_non_integer_joint_count_is_refused(self, joints):
        """No bodyTrue or body2.0 layout: an id save_motion would write and
        load_motion refuse."""
        with pytest.raises(DimensionError, match="integer joint count"):
            FeatureLayout(joints)

    @pytest.mark.parametrize("layout_id", ["body0", "body007", "body-1", "body+3", "body 5",
                                           "body\u0663", "body22x", "body", "Body22", ""])
    def test_only_canonical_ids_name_a_layout(self, layout_id):
        """bodyN with N >= 1 written without a sign, spaces or leading zeros."""
        with pytest.raises(DimensionError):
            FeatureLayout.from_id(layout_id)


class TestMotionSegment:
    @pytest.mark.parametrize("fps", [float("nan"), float("inf"), float("-inf"), 0.0, -10.0])
    def test_fps_must_be_positive_and_finite(self, fps):
        """No segment save_motion could write and load_motion refuse."""
        with pytest.raises(DimensionError, match="positive finite"):
            MotionSegment(np.zeros((2, 4), dtype=F32), fps=fps)


class TestRigidTransform:
    def test_pure_translation(self):
        points = rest_sequence(3).joint_positions
        t = RigidTransform(np.eye(3), np.array([1.0, -2.0, 0.5]))
        np.testing.assert_allclose(t.apply_points(points), points + t.translation, atol=1e-12)

    def test_quarter_yaw_turns_x_into_y(self):
        t = RigidTransform(rotation_about_axis([0, 0, 1.0], np.pi / 2), np.array([0.0, 0.0, 1.0]))
        np.testing.assert_allclose(t.apply_points(np.array([[1.0, 0.0, 0.0]])),
                                   [[0.0, 1.0, 1.0]], atol=1e-12)

    def test_improper_rotation_refused(self):
        with pytest.raises(DimensionError):
            RigidTransform(np.diag([1.0, 1.0, -1.0]), np.zeros(3))


class TestRotation6d:
    def test_identity_encoding(self):
        np.testing.assert_array_equal(rotation_to_6d(np.eye(3)),
                                      np.array([1, 0, 0, 0, 1, 0], dtype=F32))

    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip(self, seed):
        gen = Rng(seed).generator("r6")
        r = rotation_about_axis(gen.standard_normal(3), gen.uniform(0, np.pi))
        back = rotation_from_6d(rotation_to_6d(r))
        np.testing.assert_allclose(back, r, atol=1e-6)


class TestFeaturize:
    def test_static_pose_zero_deltas(self):
        layout = FeatureLayout()
        seg = featurize(rest_sequence(5), layout)
        for span in ("root_delta_translation", "root_delta_rotation_6d", "joint_velocities"):
            assert np.all(seg.frames[:, layout.span(span)] == 0)

    def test_constant_velocity_root(self):
        base = rest_sequence(6)
        moved_t = base.root_translation + np.outer(np.arange(6), [0.1, 0.0, 0.0])
        moved_j = base.joint_positions + np.arange(6)[:, None, None] * np.array([0.1, 0, 0])
        seq = type(base)(moved_t, base.root_orientation, base.body_rotations, moved_j)
        layout = FeatureLayout()
        seg = featurize(seq, layout)
        deltas = seg.frames[1:, layout.span("root_delta_translation")]
        np.testing.assert_allclose(deltas, np.tile([0.1, 0, 0], (5, 1)), atol=1e-6)
        assert np.all(seg.frames[0, layout.span("root_delta_translation")] == 0)

    def test_identity_rotations_6d_blocks(self):
        layout = FeatureLayout()
        seg = featurize(rest_sequence(2), layout)
        blocks = seg.frames[:, layout.span("rotations_6d")].reshape(2, layout.joints, 6)
        np.testing.assert_allclose(blocks, np.tile([1, 0, 0, 0, 1, 0], (2, layout.joints, 1)),
                                   atol=1e-7)

    def test_deltas_telescope_to_total_displacement(self):
        seq = synthetic_sequence(12, seed=5)
        layout = FeatureLayout()
        seg = featurize(seq, layout)
        total = seg.frames[:, layout.span("root_delta_translation")].sum(axis=0)
        expected = seq.root_translation[-1] - seq.root_translation[0]
        np.testing.assert_allclose(total, expected, atol=1e-6)

    def test_rotation_blocks_orthonormal(self):
        seq = synthetic_sequence(8, seed=9)
        layout = FeatureLayout()
        seg = featurize(seq, layout)
        blocks = seg.frames[:, layout.span("rotations_6d")].reshape(-1, 6).astype(np.float64)
        a, b = blocks[:, :3], blocks[:, 3:]
        np.testing.assert_allclose(np.linalg.norm(a, axis=1), 1, atol=1e-5)
        np.testing.assert_allclose(np.linalg.norm(b, axis=1), 1, atol=1e-5)
        np.testing.assert_allclose(np.sum(a * b, axis=1), 0, atol=1e-5)

    def test_joint_positions_extraction(self):
        seq = synthetic_sequence(4, seed=2)
        seg = featurize(seq)
        pos = joint_positions_from_features(seg.frames)
        np.testing.assert_allclose(pos, seq.joint_positions, atol=1e-5)

    def test_joint_count_mismatch(self):
        with pytest.raises(DimensionError):
            featurize(rest_sequence(2), FeatureLayout(joints=23))


def population_normalizer(frames):
    """Mean and population std over (N, D) frames, as a weight archive would hold them."""
    frames = np.asarray(frames, dtype=np.float64)
    return Normalizer(frames.mean(axis=0), frames.std(axis=0))


class TestNormalizer:
    def test_constant_channel_floored(self):
        frames = np.full((5, 3), 2.5, dtype=F32)
        n = population_normalizer(frames)
        assert np.all(n.std == pytest.approx(1e-6))
        assert np.all(normalize(frames, n) == 0)

    def test_two_point_channel(self):
        frames = np.array([[1.0], [3.0]], dtype=F32)
        n = Normalizer(np.array([2.0]), np.array([1.0]))
        np.testing.assert_allclose(normalize(frames, n).ravel(), [-1.0, 1.0], atol=1e-6)

    @pytest.mark.parametrize("seed", range(4))
    def test_round_trip(self, seed):
        gen = Rng(seed).generator("norm")
        frames = (gen.standard_normal((20, 7)) * 5 + 3).astype(F32)
        n = population_normalizer(frames)
        back = normalize(normalize(frames, n), n, inverse=True)
        assert np.max(np.abs(back - frames)) < 1e-6

    def test_identity(self):
        n = Normalizer(np.zeros(4, dtype=F32), np.ones(4, dtype=F32))
        x = np.arange(8, dtype=F32).reshape(2, 4)
        np.testing.assert_array_equal(normalize(x, n), x)
