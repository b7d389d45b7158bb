"""The occupancy lookup on the (N, 3) point layout, and test-side grid helpers.

scene._cell_indices once computed cell indices and the in-bounds mask on
(N, 3) points, broadcasting every op over a trailing axis of length 3. It now
works on the transposed (3, N) layout. The old lookup lives here as the
reference the new one is held to, bit for bit.
"""
import numpy as np

from remogen.scene import EGO_DIMS, VoxelGrid, ego_cell_centers, query_points

F64 = np.float64


def reference_cells(spec, points):
    """Floor cell indices, (N, 3) int64, and the in-bounds mask of (N, 3) points."""
    pts = np.asarray(points, dtype=F64).reshape(-1, 3)
    idx = np.floor((pts - spec.min_corner) / spec.voxel_size).astype(np.int64)
    inside = np.all((idx >= 0) & (idx < np.asarray(spec.dims, dtype=np.int64)), axis=1)
    return idx, inside


def reference_query_points(grid, points):
    """query_points on the (N, 3) layout: True where a point's cell is occupied."""
    idx, inside = reference_cells(grid.spec, points)
    out = np.zeros(idx.shape[0], dtype=bool)
    _, ny, nz = grid.spec.dims
    cells = idx[inside]
    flat = (cells[:, 0] * ny + cells[:, 1]) * nz + cells[:, 2]
    out[inside] = (grid.packed[flat >> 3] >> (flat & 7)) & 1
    return out


def reference_ego_occupancy(grid, frame):
    """(32, 32, 32) occupancy of extract_ego_voxels(grid, frame) through the reference lookup."""
    world = frame.apply_points(ego_cell_centers().reshape(-1, 3))
    return reference_query_points(grid, world).reshape(EGO_DIMS, EGO_DIMS, EGO_DIMS)


def unpacked(grid):
    """The grid's occupancy as a dims-shaped bool array."""
    bits = np.unpackbits(grid.packed, count=grid.spec.cell_count, bitorder="little")
    return bits.reshape(grid.spec.dims).astype(bool)


def empty_grid(spec):
    """A grid with every cell free."""
    return VoxelGrid(spec, np.zeros((spec.cell_count + 7) // 8, dtype=np.uint8))


def occupied(grid, point):
    """query_points on one world point, as a bool."""
    return bool(query_points(grid, np.reshape(point, (1, 3)))[0])
