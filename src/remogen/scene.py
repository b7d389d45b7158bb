"""World-scale voxel occupancy and the 32^3 ego-centric crop.

Occupancy is bit-packed, 8 cells per byte, least-significant bit first, with
flat index (ix * ny + iy) * nz + iz. Cells own the half-open box [lo, hi) on
each axis. Grids are immutable after construction. A lookup answers one bit
per point, occupied or not: a point outside the grid reads unoccupied.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionError
from .motion import RigidTransform
from .tensorcore import F64

EGO_BOX_MIN = np.array([-0.6, -0.6, 0.1], dtype=F64)
EGO_BOX_MAX = np.array([0.6, 0.6, 1.2], dtype=F64)
EGO_DIMS = 32


# The RMGV1 voxel header stores each axis's cell count as a uint32.
MAX_AXIS_CELLS = 2 ** 32 - 1


def _finite_corners(min_corner, max_corner) -> tuple[np.ndarray, np.ndarray]:
    lo = np.asarray(min_corner, dtype=F64)
    hi = np.asarray(max_corner, dtype=F64)
    if lo.shape != (3,) or hi.shape != (3,):
        raise DimensionError("grid corners must be 3-vectors")
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise DimensionError(f"grid corners must be finite, got {lo} and {hi}")
    return lo, hi


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned world box split into dims[k] cells per axis."""

    min_corner: np.ndarray
    max_corner: np.ndarray
    dims: tuple[int, int, int]

    def __post_init__(self):
        lo, hi = _finite_corners(self.min_corner, self.max_corner)
        dims = tuple(int(d) for d in self.dims)
        if not np.all(hi > lo):
            raise DimensionError("max corner must exceed min corner componentwise")
        if any(d < 1 for d in dims):
            raise DimensionError("grid dims must be >= 1")
        if any(d > MAX_AXIS_CELLS for d in dims):
            raise DimensionError(f"grid dims {dims} exceed {MAX_AXIS_CELLS} cells on an axis")
        object.__setattr__(self, "min_corner", lo)
        object.__setattr__(self, "max_corner", hi)
        object.__setattr__(self, "dims", dims)

    @property
    def voxel_size(self) -> np.ndarray:
        return (self.max_corner - self.min_corner) / np.asarray(self.dims, dtype=F64)

    @property
    def cell_count(self) -> int:
        return self.dims[0] * self.dims[1] * self.dims[2]

    @classmethod
    def from_resolution(cls, min_corner, max_corner, resolution: float) -> "GridSpec":
        lo, hi = _finite_corners(min_corner, max_corner)
        with np.errstate(all="ignore"):
            cells = (hi - lo) / resolution
        if not np.all(np.isfinite(cells)):
            raise DimensionError(f"resolution {resolution} gives cell counts {cells}")
        dims = tuple(int(round(v)) for v in cells)
        return cls(lo, hi, dims)


def room_grid_spec() -> GridSpec:
    """Room-scale preset: x in [-3, 3], y in [-4, 4], z in [0, 2] at 0.02 m."""
    return GridSpec.from_resolution([-3.0, -4.0, 0.0], [3.0, 4.0, 2.0], 0.02)


@dataclass(frozen=True)
class VoxelGrid:
    """Bit-packed boolean occupancy over a GridSpec."""

    spec: GridSpec
    packed: np.ndarray  # uint8, ceil(cells / 8) bytes

    def __post_init__(self):
        packed = np.asarray(self.packed, dtype=np.uint8)
        expected = (self.spec.cell_count + 7) // 8
        if packed.shape != (expected,):
            raise DimensionError(
                f"packed payload has {packed.shape} bytes, expected ({expected},)")
        object.__setattr__(self, "packed", packed)

    @classmethod
    def from_bool_array(cls, spec: GridSpec, occupancy: np.ndarray) -> "VoxelGrid":
        occ = np.asarray(occupancy, dtype=bool)
        if occ.shape != spec.dims:
            raise DimensionError(f"occupancy shape {occ.shape} != dims {spec.dims}")
        return cls(spec, np.packbits(occ.reshape(-1), bitorder="little"))

    def occupied_count(self) -> int:
        return int(np.unpackbits(self.packed, count=self.spec.cell_count,
                                 bitorder="little").sum())


def _cell_indices(points: np.ndarray, spec: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Floor cell indices, (3, N) int64, and an in-bounds mask for (N, 3) points.

    The work runs on the transposed (3, N) layout: each elementwise op then
    loops over N contiguous values of one axis, where broadcasting against a
    trailing axis of length 3 runs numpy's inner loop three values at a time,
    several times slower for the 32768 points of an ego crop. Elementwise
    float ops, the floor and the integer cast give the same values in either
    layout, so the cells are the same. The mask compares the floored values
    before the cast, so NaN coordinates, which compare false, are out of bounds.
    """
    # A copy, so the in-place ops below never write into the caller's points.
    rel = np.array(np.reshape(points, (-1, 3)).T, dtype=F64, order="C")
    rel -= spec.min_corner[:, None]
    rel /= spec.voxel_size[:, None]
    np.floor(rel, out=rel)
    ok = (rel >= 0) & (rel < np.asarray(spec.dims, dtype=F64)[:, None])
    return rel.astype(np.int64), ok[0] & ok[1] & ok[2]


def voxelize_points(points: np.ndarray, spec: GridSpec) -> VoxelGrid:
    """Mark every cell containing at least one point; out-of-bounds points are ignored."""
    points = np.asarray(points, dtype=F64).reshape(-1, 3)
    occ = np.zeros(spec.dims, dtype=bool)
    if points.shape[0]:
        idx, inside = _cell_indices(points, spec)
        occ[tuple(idx[:, inside])] = True
    return VoxelGrid.from_bool_array(spec, occ)


def query_points(grid: VoxelGrid, points: np.ndarray) -> np.ndarray:
    """Which of the (N, 3) points lie in an occupied cell, as an (N,) bool array.

    A point outside the grid, or with a NaN coordinate, reads unoccupied.
    Reads the packed bits of the hit cells only; the grid is never unpacked.
    """
    idx, inside = _cell_indices(points, grid.spec)
    out = np.zeros(idx.shape[1], dtype=bool)
    if np.any(inside):
        _, ny, nz = grid.spec.dims
        # Every point's flat index, then one mask select: cheaper than
        # selecting from three index rows.
        flat = ((idx[0] * ny + idx[1]) * nz + idx[2])[inside]
        out[inside] = (grid.packed[flat >> 3] >> (flat & 7)) & 1
    return out


@dataclass(frozen=True)
class EgoVoxelBlock:
    """32^3 occupancy crop around the ego."""

    occupancy: np.ndarray  # (32, 32, 32) bool

    def __post_init__(self):
        occ = np.asarray(self.occupancy, dtype=bool)
        if occ.shape != (EGO_DIMS, EGO_DIMS, EGO_DIMS):
            raise DimensionError(f"ego block must be {EGO_DIMS}^3, got {occ.shape}")
        object.__setattr__(self, "occupancy", occ)


@lru_cache(maxsize=1)
def ego_cell_centers() -> np.ndarray:
    """Cell centers of the ego box in ego coordinates, shape (32, 32, 32, 3).

    Computed once; the array is shared and read-only.
    """
    size = (EGO_BOX_MAX - EGO_BOX_MIN) / EGO_DIMS
    axes = [EGO_BOX_MIN[k] + (np.arange(EGO_DIMS) + 0.5) * size[k] for k in range(3)]
    gx, gy, gz = np.meshgrid(*axes, indexing="ij")
    centers = np.stack([gx, gy, gz], axis=-1)
    centers.flags.writeable = False
    return centers


def extract_ego_voxels(grid: VoxelGrid, ego_to_world: RigidTransform) -> EgoVoxelBlock:
    """Sample the world grid at the ego box cell centers.

    Each ego cell queries the world occupancy at its mapped center; queries
    landing outside the world grid count as free.
    """
    world = ego_to_world.apply_points(ego_cell_centers().reshape(-1, 3))
    occ = query_points(grid, world).reshape(EGO_DIMS, EGO_DIMS, EGO_DIMS)
    return EgoVoxelBlock(occ)
