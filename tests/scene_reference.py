"""The occupancy lookup on the (N, 3) point layout.

scene._cell_indices once computed cell indices and the in-bounds mask on
(N, 3) points, broadcasting every op over a trailing axis of length 3. It now
works on the transposed (3, N) layout. The old lookup lives here as the
reference the new one is held to, bit for bit.
"""
import numpy as np

from remogen.scene import EGO_DIMS, Occupancy, ego_cell_centers

F64 = np.float64


def reference_query_points(grid, points):
    """query_points on the (N, 3) layout: Occupancy values as uint8."""
    spec = grid.spec
    pts = np.asarray(points, dtype=F64).reshape(-1, 3)
    idx = np.floor((pts - spec.min_corner) / spec.voxel_size).astype(np.int64)
    inside = np.all((idx >= 0) & (idx < np.asarray(spec.dims, dtype=np.int64)), axis=1)
    out = np.full(idx.shape[0], Occupancy.OUT_OF_BOUNDS.value, dtype=np.uint8)
    _, ny, nz = spec.dims
    cells = idx[inside]
    flat = (cells[:, 0] * ny + cells[:, 1]) * nz + cells[:, 2]
    hit = (grid.packed[flat >> 3] >> (flat & 7)) & 1
    out[inside] = np.where(hit, Occupancy.OCCUPIED.value, Occupancy.FREE.value)
    return out


def reference_ego_occupancy(grid, frame):
    """(32, 32, 32) occupancy of extract_ego_voxels(grid, frame) through the reference lookup."""
    world = frame.apply_points(ego_cell_centers().reshape(-1, 3))
    states = reference_query_points(grid, world)
    return (states == Occupancy.OCCUPIED.value).reshape(EGO_DIMS, EGO_DIMS, EGO_DIMS)
