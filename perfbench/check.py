"""Output check: each emitted pose against a committed reference sketch.

A pose is reduced to SKETCH_ROWS fixed +-1 linear combinations of its
channels. The reference files keep those sketches for every pool episode
(16 x 64 frames x 8 numbers per workload) instead of the full 276-channel
poses, and a pose fails when any of its sketch values is more than TOLERANCE
away from the reference, when it is non-finite, or when it never arrives.

Where TOLERANCE sits, measured on the benchmark archive over all 16 pool
episodes of each workload:
- Nudging every weight by one float32 ulp moved sketch values by at most
  4.0e-5 (react_fwsr_hhi; 9e-6 and 2e-6 on the segment workloads), and the
  6-decimal rounding of stream output by at most 1.6e-5. Reassociated
  arithmetic must pass.
- Withholding the partner moved the sketch values of every frame by at
  least 5.5e-3 (scene_segment_hhi_hsi; 2.9e-2 on react_fwsr_hhi). A
  behaviour change must fail.
TOLERANCE = 1e-3 is 25x the first effect and under a fifth of the second.
"""
from __future__ import annotations

import os

import numpy as np

SKETCH_ROWS = 8
TOLERANCE = 1e-3


def sketch_matrix(dim: int) -> np.ndarray:
    """The fixed (SKETCH_ROWS, dim) +-1 matrix; independent of every run seed."""
    return np.random.default_rng(20260417).choice([-1.0, 1.0], size=(SKETCH_ROWS, dim))


def sketch(poses: np.ndarray) -> np.ndarray:
    poses = np.asarray(poses, dtype=np.float64)
    return poses @ sketch_matrix(poses.shape[-1]).T


def reference_path(reference_dir: str, workload: str) -> str:
    return os.path.join(reference_dir, f"{workload}.npy")


def load_reference(reference_dir: str, workload: str) -> np.ndarray:
    """(POOL, EPISODE_FRAMES, SKETCH_ROWS) reference sketches of one workload."""
    return np.load(reference_path(reference_dir, workload))


def failed_poses(poses: list, reference: np.ndarray) -> int:
    """Poses of one episode that are missing, non-finite or outside TOLERANCE.

    `poses` are the episode's emitted poses in order; `reference` is the
    episode's (frames, SKETCH_ROWS) reference. Surplus poses count as failed.
    """
    expected = reference.shape[0]
    n = min(len(poses), expected)
    failed = abs(len(poses) - expected)
    if n:
        got = np.stack([np.asarray(p, dtype=np.float64) for p in poses[:n]])
        finite = np.all(np.isfinite(got), axis=1)
        close = np.all(np.abs(sketch(got) - reference[:n]) <= TOLERANCE, axis=1)
        failed += int(np.count_nonzero(~(finite & close)))
    return failed
