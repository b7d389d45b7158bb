"""Motion features, the rollout history window, and a synthetic body chain.

A pose sequence enters as raw rigid-body quantities (root translation and
orientation, local body-joint rotations, world joint positions) and is
flattened, as given, into fixed-width per-frame feature vectors that the
generative stack consumes. Nothing here moves a sequence into another frame:
the only ego frame is the floor-level yaw frame that the engine builds from
its latest history row for the scene crop (Engine._ego_anchor).
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionError, EmptyInputError
from .tensorcore import F32, F64

STD_FLOOR = 1e-6

# Identity rotation in the continuous 6D encoding (first two matrix columns).
IDENTITY_6D = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0], dtype=F32)


@dataclass(frozen=True)
class FeatureLayout:
    """Named channel spans of one pose feature vector.

    Order: root translation (3), per-joint 6D rotations (6J, root block
    first), root translation delta (3), root orientation delta in 6D offset
    form (6), joint positions (3J), joint velocities (3J).
    """

    joints: int = 22

    def __post_init__(self):
        # body0 is no layout id load_motion accepts, so no file may be saved with it.
        if self.joints < 1:
            raise DimensionError(f"a feature layout needs at least one joint, got {self.joints}")

    @property
    def dim(self) -> int:
        return 3 + 6 * self.joints + 3 + 6 + 3 * self.joints + 3 * self.joints

    @property
    def layout_id(self) -> str:
        return f"body{self.joints}"

    def span(self, name: str) -> slice:
        j = self.joints
        starts = {}
        cursor = 0
        for key, width in (("root_translation", 3),
                           ("rotations_6d", 6 * j),
                           ("root_delta_translation", 3),
                           ("root_delta_rotation_6d", 6),
                           ("joint_positions", 3 * j),
                           ("joint_velocities", 3 * j)):
            starts[key] = slice(cursor, cursor + width)
            cursor += width
        if name not in starts:
            raise KeyError(f"unknown feature span {name!r}")
        return starts[name]

    @classmethod
    def from_id(cls, layout_id: str) -> "FeatureLayout":
        """The layout of a canonical id, bodyN with N >= 1 and no leading zero."""
        if re.fullmatch(r"body[1-9][0-9]*", layout_id) is None:
            raise DimensionError(f"unknown layout id {layout_id!r}")
        return cls(joints=int(layout_id[4:]))


@dataclass(frozen=True)
class RigidTransform:
    """Rotation plus translation; rotation must be a proper orthonormal matrix."""

    rotation: np.ndarray  # (3, 3)
    translation: np.ndarray  # (3,)

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=F64)
        if r.shape != (3, 3) or np.asarray(self.translation).shape != (3,):
            raise DimensionError("rigid transform needs a 3x3 rotation and 3-vector translation")
        if np.max(np.abs(r.T @ r - np.eye(3))) > 1e-6 or abs(np.linalg.det(r) - 1.0) > 1e-6:
            raise DimensionError("rotation is not orthonormal with det +1")

    def apply_points(self, points: np.ndarray) -> np.ndarray:
        """Rigid action on points of shape (..., 3)."""
        pts = np.asarray(points, dtype=F64)
        return pts @ np.asarray(self.rotation, dtype=F64).T + np.asarray(self.translation, dtype=F64)


@dataclass(frozen=True)
class MotionSegment:
    """A (T, D) block of pose feature frames at a fixed frame rate."""

    frames: np.ndarray
    fps: float = 10.0

    def __post_init__(self):
        f = np.asarray(self.frames)
        if f.ndim != 2:
            raise DimensionError("segment frames must be 2-D (T, D)")
        if self.fps <= 0:
            raise DimensionError("fps must be positive")
        object.__setattr__(self, "frames", f.astype(F32, copy=False))

    def __len__(self) -> int:
        return self.frames.shape[0]

    @property
    def dim(self) -> int:
        return self.frames.shape[1]


@dataclass(frozen=True)
class HistoryWindow:
    """Exactly H most recent feature frames; row count never changes."""

    frames: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.frames)
        if f.ndim != 2 or f.shape[0] < 1:
            raise DimensionError("history window must be (H, D) with H >= 1")
        object.__setattr__(self, "frames", f.astype(F32, copy=False))

    def __len__(self) -> int:
        return self.frames.shape[0]

    @property
    def dim(self) -> int:
        return self.frames.shape[1]

    def slide(self, frames: np.ndarray) -> "HistoryWindow":
        """The last H rows of this window followed by one (D,) frame or (n, D)
        frames; (0, D) frames leave the rows as they are."""
        frames = np.asarray(frames, dtype=F32)
        if frames.ndim == 1:
            frames = frames[None]
        if frames.ndim != 2 or frames.shape[1] != self.dim:
            raise DimensionError(f"frames of shape {frames.shape} do not fit a history "
                                 f"of width {self.dim}")
        return HistoryWindow(np.vstack([self.frames, frames])[-len(self):])


@dataclass(frozen=True)
class RawPoseSequence:
    """Rigid-body pose sequence before feature extraction.

    body_rotations are local (parent-relative) and cover joints 1..J-1; the
    root's global orientation is stored separately and occupies rotation
    block 0 of the feature layout.
    """

    root_translation: np.ndarray  # (T, 3)
    root_orientation: np.ndarray  # (T, 3, 3)
    body_rotations: np.ndarray    # (T, J-1, 3, 3)
    joint_positions: np.ndarray   # (T, J, 3)

    def __post_init__(self):
        t = np.asarray(self.root_translation, dtype=F64)
        r = np.asarray(self.root_orientation, dtype=F64)
        b = np.asarray(self.body_rotations, dtype=F64)
        p = np.asarray(self.joint_positions, dtype=F64)
        n = t.shape[0]
        if t.shape != (n, 3) or r.shape != (n, 3, 3) or p.ndim != 3 or p.shape[0] != n:
            raise DimensionError("inconsistent pose sequence shapes")
        if b.shape[0] != n or b.shape[2:] != (3, 3) or b.shape[1] != p.shape[1] - 1:
            raise DimensionError("body rotations must cover joints 1..J-1")
        for blocks in (r.reshape(-1, 3, 3), b.reshape(-1, 3, 3)):
            if blocks.size:
                err = np.einsum("nij,nkj->nik", blocks, blocks) - np.eye(3)
                if np.max(np.abs(err)) > 1e-5:
                    raise DimensionError("rotation blocks not orthonormal within 1e-5")
        object.__setattr__(self, "root_translation", t)
        object.__setattr__(self, "root_orientation", r)
        object.__setattr__(self, "body_rotations", b)
        object.__setattr__(self, "joint_positions", p)

    def __len__(self) -> int:
        return self.root_translation.shape[0]

    @property
    def joints(self) -> int:
        return self.joint_positions.shape[1]


def rotation_to_6d(rotations: np.ndarray) -> np.ndarray:
    """First two matrix columns, flattened column-first: (..., 3, 3) -> (..., 6)."""
    r = np.asarray(rotations, dtype=F64)
    return np.concatenate([r[..., :, 0], r[..., :, 1]], axis=-1).astype(F32)


def rotation_from_6d(values: np.ndarray) -> np.ndarray:
    """Gram-Schmidt reconstruction of (..., 6) back to rotation matrices."""
    v = np.asarray(values, dtype=F64)
    a1, a2 = v[..., 0:3], v[..., 3:6]
    b1 = a1 / np.linalg.norm(a1, axis=-1, keepdims=True)
    a2p = a2 - np.sum(b1 * a2, axis=-1, keepdims=True) * b1
    b2 = a2p / np.linalg.norm(a2p, axis=-1, keepdims=True)
    b3 = np.cross(b1, b2)
    return np.stack([b1, b2, b3], axis=-1)


def rotation_about_axis(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues rotation about a (not necessarily unit) axis."""
    a = np.asarray(axis, dtype=F64)
    a = a / np.linalg.norm(a)
    k = np.array([[0, -a[2], a[1]], [a[2], 0, -a[0]], [-a[1], a[0], 0]], dtype=F64)
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def featurize(seq: RawPoseSequence, layout: Optional[FeatureLayout] = None) -> MotionSegment:
    """Flatten a pose sequence into (T, D) feature frames.

    Deltas and velocities are per-frame differences; frame 0 gets zeros since
    it has no predecessor. The root orientation delta is stored as the 6D
    encoding of R_t R_{t-1}^T minus the identity encoding, so a static pose
    featurizes to all-zero delta spans.
    """
    layout = layout or FeatureLayout()
    if seq.joints != layout.joints:
        raise DimensionError(f"sequence has {seq.joints} joints, layout expects {layout.joints}")
    if len(seq) < 1:
        raise EmptyInputError("cannot featurize an empty sequence")
    n, j = len(seq), layout.joints

    rot_blocks = np.concatenate([seq.root_orientation[:, None], seq.body_rotations], axis=1)
    rot6d = rotation_to_6d(rot_blocks).reshape(n, 6 * j)

    delta_t = np.zeros((n, 3), dtype=F64)
    delta_t[1:] = seq.root_translation[1:] - seq.root_translation[:-1]

    delta_r6 = np.zeros((n, 6), dtype=F32)
    if n > 1:
        rel = np.einsum("nij,nkj->nik", seq.root_orientation[1:], seq.root_orientation[:-1])
        delta_r6[1:] = rotation_to_6d(rel) - IDENTITY_6D

    positions = seq.joint_positions.reshape(n, 3 * j)
    velocities = np.zeros((n, 3 * j), dtype=F64)
    velocities[1:] = positions[1:] - positions[:-1]

    frames = np.zeros((n, layout.dim), dtype=F32)
    frames[:, layout.span("root_translation")] = seq.root_translation
    frames[:, layout.span("rotations_6d")] = rot6d
    frames[:, layout.span("root_delta_translation")] = delta_t
    frames[:, layout.span("root_delta_rotation_6d")] = delta_r6
    frames[:, layout.span("joint_positions")] = positions
    frames[:, layout.span("joint_velocities")] = velocities
    return MotionSegment(frames)


def joint_positions_from_features(frames: np.ndarray, layout: Optional[FeatureLayout] = None) -> np.ndarray:
    """Extract the (T, J, 3) joint-position block from feature frames."""
    layout = layout or FeatureLayout()
    frames = np.asarray(frames)
    if frames.ndim != 2 or frames.shape[1] != layout.dim:
        raise DimensionError("frames do not match layout width")
    return frames[:, layout.span("joint_positions")].reshape(frames.shape[0], layout.joints, 3)


@dataclass(frozen=True)
class Normalizer:
    """Per-channel mean/std with the std floored away from zero."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mean, dtype=F32)
        s = np.maximum(np.asarray(self.std, dtype=F32), STD_FLOOR)
        if m.shape != s.shape or m.ndim != 1:
            raise DimensionError("normalizer mean/std must be matching 1-D vectors")
        object.__setattr__(self, "mean", m)
        object.__setattr__(self, "std", s)


def normalize(frames: np.ndarray, n: Normalizer, inverse: bool = False) -> np.ndarray:
    """Channel-wise standardization, or its inverse."""
    frames = np.asarray(frames, dtype=F32)
    if frames.shape[-1] != n.mean.shape[0]:
        raise DimensionError("frame width does not match normalizer")
    if inverse:
        return (frames.astype(F64) * n.std.astype(F64) + n.mean.astype(F64)).astype(F32)
    return ((frames.astype(F64) - n.mean.astype(F64)) / n.std.astype(F64)).astype(F32)


# ---------------------------------------------------------------------------
# Synthetic articulated chain: stands in for a body-model forward pass so the
# whole pipeline runs and is testable without any dataset.
# ---------------------------------------------------------------------------

BODY22_PARENTS = (
    -1, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 9, 9, 12, 13, 14, 16, 17, 18, 19,
)

_BODY22_OFFSETS = np.array([
    [0.00, 0.00, 0.95],    # pelvis (offset from world origin at rest)
    [-0.09, 0.00, -0.06],  # left hip
    [0.09, 0.00, -0.06],   # right hip
    [0.00, 0.00, 0.11],    # spine1
    [0.00, 0.00, -0.38],   # left knee
    [0.00, 0.00, -0.38],   # right knee
    [0.00, 0.00, 0.14],    # spine2
    [0.00, 0.00, -0.40],   # left ankle
    [0.00, 0.00, -0.40],   # right ankle
    [0.00, 0.00, 0.06],    # spine3
    [0.00, 0.12, -0.05],   # left foot
    [0.00, 0.12, -0.05],   # right foot
    [0.00, 0.00, 0.22],    # neck
    [-0.05, 0.00, 0.15],   # left collar
    [0.05, 0.00, 0.15],    # right collar
    [0.00, 0.00, 0.12],    # head
    [-0.12, 0.00, 0.02],   # left shoulder
    [0.12, 0.00, 0.02],    # right shoulder
    [-0.26, 0.00, 0.00],   # left elbow
    [0.26, 0.00, 0.00],    # right elbow
    [-0.25, 0.00, 0.00],   # left wrist
    [0.25, 0.00, 0.00],    # right wrist
], dtype=F64)


def _forward_kinematics(root_t: np.ndarray, root_r: np.ndarray,
                        local: np.ndarray) -> np.ndarray:
    """Joint positions for one frame from root pose and local joint rotations."""
    j = len(BODY22_PARENTS)
    globals_r = np.zeros((j, 3, 3), dtype=F64)
    positions = np.zeros((j, 3), dtype=F64)
    globals_r[0] = root_r
    positions[0] = root_t
    for i in range(1, j):
        parent = BODY22_PARENTS[i]
        globals_r[i] = globals_r[parent] @ local[i - 1]
        positions[i] = positions[parent] + globals_r[parent] @ _BODY22_OFFSETS[i]
    return positions


def synthetic_sequence(n_frames: int, seed: int = 0) -> RawPoseSequence:
    """Seeded wandering walk of the 22-joint chain with smooth joint swings,
    its root advancing 0.08 m per frame."""
    if n_frames < 1:
        raise EmptyInputError("need at least one frame")
    gen = np.random.Generator(np.random.Philox(key=[np.uint64(seed), np.uint64(0xC4A1)]))
    j = len(BODY22_PARENTS)
    amp = gen.uniform(0.05, 0.25, size=j - 1)
    freq = gen.uniform(0.2, 0.9, size=j - 1)
    phase = gen.uniform(0.0, 2 * np.pi, size=j - 1)
    axes = gen.normal(size=(j - 1, 3))
    yaw0 = gen.uniform(0.0, 2 * np.pi)
    yaw_rate = gen.uniform(-0.05, 0.05)
    start = gen.uniform(-1.0, 1.0, size=3)
    start[2] = 0.0

    root_t = np.zeros((n_frames, 3), dtype=F64)
    root_r = np.zeros((n_frames, 3, 3), dtype=F64)
    local = np.zeros((n_frames, j - 1, 3, 3), dtype=F64)
    pos = start + _BODY22_OFFSETS[0]
    for t in range(n_frames):
        yaw = yaw0 + yaw_rate * t
        heading = np.array([np.cos(yaw), np.sin(yaw), 0.0])
        if t > 0:
            pos = pos + 0.08 * heading
        root_t[t] = pos
        root_r[t] = rotation_about_axis(np.array([0.0, 0.0, 1.0]), yaw)
        for k in range(j - 1):
            angle = amp[k] * np.sin(freq[k] * t + phase[k])
            local[t, k] = rotation_about_axis(axes[k], angle)

    positions = np.stack([
        _forward_kinematics(root_t[t], root_r[t], local[t]) for t in range(n_frames)
    ])
    return RawPoseSequence(root_t, root_r, local, positions)


def rest_sequence(n_frames: int) -> RawPoseSequence:
    """Static rest pose, useful as a rollout seed."""
    if n_frames < 1:
        raise EmptyInputError("need at least one frame")
    j = len(BODY22_PARENTS)
    root_t = np.tile(_BODY22_OFFSETS[0], (n_frames, 1))
    root_r = np.tile(np.eye(3), (n_frames, 1, 1))
    local = np.tile(np.eye(3), (n_frames, j - 1, 1, 1))
    positions = np.tile(_forward_kinematics(root_t[0], root_r[0], local[0]), (n_frames, 1, 1))
    return RawPoseSequence(root_t, root_r, local, positions)


def rest_history(h: int, layout: Optional[FeatureLayout] = None) -> HistoryWindow:
    """History window seeded with h featurized rest-pose frames."""
    return HistoryWindow(featurize(rest_sequence(h), layout).frames)
