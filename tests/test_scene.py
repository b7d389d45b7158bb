"""Voxel grid tests: voxelization oracle, query conventions, ego extraction."""
import tracemalloc

import numpy as np
import pytest
from scene_reference import (
    empty_grid,
    occupied,
    reference_cells,
    reference_ego_occupancy,
    reference_query_points,
    unpacked,
)

from remogen.errors import DimensionError
from remogen.motion import RigidTransform, rotation_about_axis
from remogen.scene import (
    EGO_BOX_MAX,
    EGO_BOX_MIN,
    EGO_DIMS,
    EgoVoxelBlock,
    GridSpec,
    VoxelGrid,
    _cell_indices,
    ego_cell_centers,
    extract_ego_voxels,
    room_grid_spec,
    query_points,
    voxelize_points,
)
from remogen.tensorcore import Rng


IDENTITY = RigidTransform(np.eye(3), np.zeros(3))


def small_spec():
    return GridSpec([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], (4, 4, 4))


class TestGridSpec:
    def test_voxel_size_derived(self):
        spec = GridSpec([0, 0, 0], [2.0, 1.0, 4.0], (4, 2, 8))
        np.testing.assert_allclose(spec.voxel_size, [0.5, 0.5, 0.5])

    def test_room_preset_dims(self):
        spec = room_grid_spec()
        assert spec.dims == (300, 400, 100)
        np.testing.assert_allclose(spec.voxel_size, [0.02, 0.02, 0.02])

    def test_invalid_bounds(self):
        with pytest.raises(DimensionError):
            GridSpec([0, 0, 0], [1, -1, 1], (2, 2, 2))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_corner_refused(self, bad):
        with pytest.raises(DimensionError, match="finite"):
            GridSpec([0, 0, 0], [bad, 1, 1], (2, 2, 2))
        with pytest.raises(DimensionError, match="finite"):
            GridSpec([0, bad, 0], [1, 1, 1], (2, 2, 2))
        with pytest.raises(DimensionError, match="finite"):
            GridSpec.from_resolution([0, 0, 0], [bad, 1, 1], 0.1)

    def test_axis_above_the_uint32_dims_field_refused(self):
        # Specs only: no grid of this size is built.
        assert GridSpec([0, 0, 0], [1, 1, 1], (2 ** 32 - 1, 1, 1)).dims[0] == 2 ** 32 - 1
        with pytest.raises(DimensionError, match="exceed"):
            GridSpec([0, 0, 0], [1, 1, 1], (1, 2 ** 32, 1))
        with pytest.raises(DimensionError, match="exceed"):
            GridSpec.from_resolution([0, 0, 0], [1, 1, 1], 1e-10)

    @pytest.mark.parametrize("resolution", [np.inf, np.nan, -0.1, 3.0])
    def test_resolution_that_gives_no_whole_cell_refused(self, resolution):
        # 3.0 on a unit extent rounds to zero cells; inf gives zero, nan gives nan.
        with pytest.raises(DimensionError):
            GridSpec.from_resolution([0, 0, 0], [1, 1, 1], resolution)

    def test_resolution_whose_cell_count_overflows_refused(self):
        with pytest.raises(DimensionError):
            GridSpec.from_resolution([0, 0, 0], [1e308, 1, 1], 1e-10)
        with pytest.raises(DimensionError):
            GridSpec.from_resolution([0, 0, 0], [1, 1, 1], 0.0)


class TestVoxelizePoints:
    def test_empty_points_empty_grid(self):
        grid = voxelize_points(np.zeros((0, 3)), small_spec())
        assert grid.occupied_count() == 0

    def test_single_point_single_cell(self):
        spec = small_spec()
        center = spec.min_corner + spec.voxel_size * np.array([1.5, 2.5, 0.5])
        grid = voxelize_points(center[None, :], spec)
        assert grid.occupied_count() == 1
        assert unpacked(grid)[1, 2, 0]

    def test_out_of_bounds_points_ignored(self):
        grid = voxelize_points(np.array([[5.0, 5.0, 5.0], [-1.0, 0.5, 0.5]]), small_spec())
        assert grid.occupied_count() == 0

    def test_matches_per_point_floor_oracle(self):
        spec = GridSpec([-1.0, -2.0, 0.0], [3.0, 2.0, 2.0], (8, 16, 4))
        gen = Rng(11).generator("vox")
        points = gen.uniform(-2.5, 3.5, size=(1000, 3))
        grid = voxelize_points(points, spec)
        expected = set()
        for p in points:
            idx = tuple(int(np.floor((p[k] - spec.min_corner[k]) / spec.voxel_size[k]))
                        for k in range(3))
            if all(0 <= idx[k] < spec.dims[k] for k in range(3)):
                expected.add(idx)
        occ = unpacked(grid)
        got = set(zip(*np.nonzero(occ)))
        assert got == expected

    def test_voxelize_query_round_trip(self):
        spec = small_spec()
        gen = Rng(3).generator("rt")
        points = gen.uniform(0.0, 1.0, size=(50, 3))
        grid = voxelize_points(points, spec)
        for p in points:
            if np.all(p < spec.max_corner):
                assert occupied(grid, p)


def full_grid(spec):
    return VoxelGrid.from_bool_array(spec, np.ones(spec.dims, dtype=bool))


class TestQueryOccupancy:
    def test_below_min_is_out_of_bounds(self):
        spec = small_spec()
        point = np.array([[-0.1, 0.5, 0.5]])
        assert not _cell_indices(point, spec)[1][0]
        assert not occupied(full_grid(spec), point)

    def test_at_max_corner_is_out_of_bounds(self):
        spec = small_spec()
        point = np.array([[1.0, 0.5, 0.5]])
        assert not _cell_indices(point, spec)[1][0]
        assert not occupied(full_grid(spec), point)

    def test_min_corner_of_occupied_cell_owned(self):
        spec = small_spec()
        occ = np.zeros(spec.dims, dtype=bool)
        occ[2, 1, 0] = True
        grid = VoxelGrid.from_bool_array(spec, occ)
        corner = spec.min_corner + spec.voxel_size * np.array([2, 1, 0])
        assert occupied(grid, corner)
        before = corner - np.array([1e-9, 0, 0])
        assert _cell_indices(before, spec)[1][0]
        assert not occupied(grid, before)


class TestBitPacking:
    def test_round_trip_bit_identical(self):
        spec = GridSpec([0, 0, 0], [1, 1, 1], (3, 5, 7))
        gen = Rng(5).generator("bits")
        occ = gen.uniform(size=spec.dims) > 0.5
        grid = VoxelGrid.from_bool_array(spec, occ)
        again = VoxelGrid.from_bool_array(spec, unpacked(grid))
        assert np.array_equal(grid.packed, again.packed)
        assert np.array_equal(unpacked(grid), occ)

    def test_flat_index_convention(self):
        spec = GridSpec([0, 0, 0], [1, 1, 1], (2, 3, 4))
        occ = np.zeros(spec.dims, dtype=bool)
        occ[1, 2, 3] = True
        grid = VoxelGrid.from_bool_array(spec, occ)
        flat = (1 * 3 + 2) * 4 + 3
        assert grid.packed[flat // 8] == 1 << (flat % 8)


class TestExtractEgoVoxels:
    def test_empty_world_all_free(self):
        grid = empty_grid(GridSpec([-2, -2, 0], [2, 2, 2], (8, 8, 8)))
        block = extract_ego_voxels(grid, IDENTITY)
        assert not block.occupancy.any()

    def test_full_world_all_occupied(self):
        spec = GridSpec([-2, -2, -0.5], [2, 2, 2], (8, 8, 8))
        grid = VoxelGrid.from_bool_array(spec, np.ones(spec.dims, dtype=bool))
        block = extract_ego_voxels(grid, IDENTITY)
        assert block.occupancy.all()

    def test_wall_plane_matches_per_cell_oracle(self):
        spec = GridSpec([-2, -2, 0], [2, 2, 2], (40, 40, 20))
        occ = np.zeros(spec.dims, dtype=bool)
        # Wall occupying all cells whose span starts at x >= 1.0.
        first_wall = int(np.ceil((1.0 - spec.min_corner[0]) / spec.voxel_size[0]))
        occ[first_wall:, :, :] = True
        grid = VoxelGrid.from_bool_array(spec, occ)
        ego = IDENTITY
        block = extract_ego_voxels(grid, ego)
        centers = ego_cell_centers().reshape(-1, 3)
        for cell, point in zip(block.occupancy.reshape(-1), centers):
            assert cell == occupied(grid, point)

    def test_identity_extraction_equals_direct_subsample(self):
        spec = GridSpec([-1, -1, 0], [1, 1, 1.5], (30, 30, 30))
        gen = Rng(8).generator("ego")
        occ = gen.uniform(size=spec.dims) > 0.7
        grid = VoxelGrid.from_bool_array(spec, occ)
        block = extract_ego_voxels(grid, IDENTITY)
        centers = ego_cell_centers().reshape(-1, 3)
        oracle = np.array([occupied(grid, p) for p in centers])
        assert np.array_equal(block.occupancy.reshape(-1), oracle)

    def test_yawed_frame_rotates_the_box(self):
        spec = GridSpec([-2, -2, 0], [2, 2, 2], (40, 40, 20))
        occ = np.zeros(spec.dims, dtype=bool)
        occ[int(40 * 2.3 / 4):, :, :] = True  # wall at x >= 0.3, inside box reach
        grid = VoxelGrid.from_bool_array(spec, occ)
        quarter = RigidTransform(rotation_about_axis([0, 0, 1.0], np.pi / 2), np.zeros(3))
        rotated = extract_ego_voxels(grid, quarter)
        aligned = extract_ego_voxels(grid, RigidTransform(np.eye(3), quarter.translation))
        # Same wall, but seen along a different body axis once yaw is applied.
        assert rotated.occupancy.sum() == aligned.occupancy.sum() > 0
        assert not np.array_equal(rotated.occupancy, aligned.occupancy)
        centers = ego_cell_centers().reshape(-1, 3)
        world = quarter.apply_points(centers)
        oracle = np.array([occupied(grid, p) for p in world])
        assert np.array_equal(rotated.occupancy.reshape(-1), oracle)

    def test_out_of_bounds_maps_to_free(self):
        spec = GridSpec([-0.1, -0.1, 0.0], [0.1, 0.1, 0.1], (2, 2, 2))
        grid = VoxelGrid.from_bool_array(spec, np.ones(spec.dims, dtype=bool))
        block = extract_ego_voxels(grid, IDENTITY)
        # Ego box extends far beyond this tiny grid; those cells read free.
        assert not block.occupancy.all()

    def test_block_shape_enforced(self):
        with pytest.raises(DimensionError):
            EgoVoxelBlock(np.zeros((8, 8, 8), dtype=bool))
        assert (EGO_BOX_MAX - EGO_BOX_MIN)[0] == pytest.approx(1.2)
        assert EGO_DIMS == 32


class TestPackedLookup:
    @pytest.mark.parametrize("dims", [(3, 5, 7), (1, 1, 1), (9, 2, 11), (13, 6, 5)])
    def test_matches_unpacked_indexing(self, dims):
        assert np.prod(dims) % 8
        spec = GridSpec([-1.0, 0.5, -0.2], [2.0, 1.5, 0.9], dims)
        gen = Rng(int(np.prod(dims))).generator("packed")
        grid = VoxelGrid.from_bool_array(spec, gen.uniform(size=dims) < 0.4)
        span = spec.max_corner - spec.min_corner
        inner = spec.min_corner + gen.uniform(-0.2, 1.2, (500, 3)) * span
        faces = spec.min_corner + gen.uniform(0, 1, (60, 3)) * span
        for k in range(3):   # points on each max face (outside) and min face (inside)
            faces[20 * k:20 * k + 10, k] = spec.max_corner[k]
            faces[20 * k + 10:20 * k + 20, k] = spec.min_corner[k]
        points = np.vstack([inner, faces, spec.max_corner, spec.min_corner])
        occ = unpacked(grid)
        idx = np.floor((points - spec.min_corner) / spec.voxel_size).astype(int)
        inside = np.all((idx >= 0) & (idx < np.asarray(dims)), axis=1)
        expected = np.zeros(len(points), dtype=bool)
        expected[inside] = occ[tuple(idx[inside].T)]
        assert inside.any() and not inside.all()
        np.testing.assert_array_equal(_cell_indices(points, spec)[1], inside)
        np.testing.assert_array_equal(query_points(grid, points), expected)

    def test_room_query_does_not_unpack_the_grid(self):
        spec = room_grid_spec()
        packed = Rng(3).generator("room").integers(0, 256, (spec.cell_count + 7) // 8,
                                                   dtype=np.uint8)
        grid = VoxelGrid(spec, packed)
        points = Rng(4).generator("pts").uniform(-3.5, 3.5, (4096, 3))
        tracemalloc.start()
        try:
            query_points(grid, points)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_ego_cell_centers_computed_once(self):
        centers = ego_cell_centers()
        assert centers is ego_cell_centers()
        assert not centers.flags.writeable


def random_room_grid(seed):
    """The room preset with about half its cells occupied at random."""
    spec = room_grid_spec()
    packed = Rng(seed).generator("room").integers(0, 256, (spec.cell_count + 7) // 8,
                                                  dtype=np.uint8)
    return VoxelGrid(spec, packed)


class TestLongAxisLookup:
    """The (3, N) lookup gives the cells of the (N, 3) reference, bit for bit."""

    def test_ego_crops_match_reference(self):
        grid = random_room_grid(5)
        spec = grid.spec
        gen = Rng(6).generator("frames")
        # Translations reach 0.9 m past every face, so some boxes hang outside.
        lo, hi = spec.min_corner - 0.9, spec.max_corner + 0.9
        partly_outside = 0
        for _ in range(240):
            frame = RigidTransform(rotation_about_axis([0, 0, 1.0], gen.uniform(0, 2 * np.pi)),
                                   gen.uniform(lo, hi))
            block = extract_ego_voxels(grid, frame)
            np.testing.assert_array_equal(block.occupancy, reference_ego_occupancy(grid, frame))
            world = frame.apply_points(ego_cell_centers().reshape(-1, 3))
            np.testing.assert_array_equal(query_points(grid, world),
                                          reference_query_points(grid, world))
            inside = _cell_indices(world, spec)[1]
            np.testing.assert_array_equal(inside, reference_cells(spec, world)[1])
            partly_outside += bool(inside.any() and not inside.all())
        assert partly_outside >= 20

    def test_faces_and_corners_match_reference(self):
        grid = random_room_grid(7)
        spec = grid.spec
        lo, hi = spec.min_corner, spec.max_corner
        corners = np.array([[(lo, hi)[(c >> k) & 1][k] for k in range(3)] for c in range(8)])
        gen = Rng(8).generator("faces")
        faces = gen.uniform(lo, hi, (120, 3))
        for k in range(3):
            faces[40 * k:40 * k + 20, k] = lo[k]
            faces[40 * k + 20:40 * k + 40, k] = hi[k]
        points = np.vstack([corners, faces, np.nextafter(hi, lo), np.nextafter(lo, hi)])
        np.testing.assert_array_equal(query_points(grid, points),
                                      reference_query_points(grid, points))
        inside = _cell_indices(points, spec)[1]
        np.testing.assert_array_equal(inside, reference_cells(spec, points)[1])
        assert not inside.all() and inside.any()

    def test_empty_input(self):
        grid = random_room_grid(9)
        for points in (np.zeros((0, 3)), []):
            states = query_points(grid, points)
            assert states.shape == (0,) and states.dtype == bool
            np.testing.assert_array_equal(states, reference_query_points(grid, points))

    def test_nan_coordinates_are_out_of_bounds(self):
        grid = random_room_grid(10)
        points = Rng(11).generator("nan").uniform([-1.0, -1.0, 0.1], [1.0, 1.0, 1.9], (12, 3))
        nan_rows = np.array([0, 3, 4, 8, 11])
        for i, row in enumerate(nan_rows):   # NaN in one axis, then in all three
            points[row, i if i < 3 else slice(None)] = np.nan
        with np.errstate(invalid="ignore"):   # the int64 cast of the NaN rows
            states = query_points(grid, points)
        finite = np.ones(len(points), dtype=bool)
        finite[nan_rows] = False
        np.testing.assert_array_equal(states[finite],
                                      reference_query_points(grid, points[finite]))
        with np.errstate(invalid="ignore"):
            inside = _cell_indices(points, grid.spec)[1]
        np.testing.assert_array_equal(inside, finite)
        assert not states[nan_rows].any()
