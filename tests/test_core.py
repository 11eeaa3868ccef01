"""Core geometry, grid indexing, RNG, and serialization tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcbench.core import (
    BoxAnnotation,
    GridSpec,
    PointCloud,
    Rng,
    VoxelGrid,
    default_grid,
    derive64,
    points_in_box_mask,
    read_only,
    read_point_cloud_csv,
    voxel_indices,
    write_boxes_csv,
    write_point_cloud_csv,
)


def oracle_point_in_box(xyz, box):
    """Independent membership check: matrix rotation into the box frame."""
    yaw = box.yaw
    rot = np.array(
        [[math.cos(-yaw), -math.sin(-yaw)], [math.sin(-yaw), math.cos(-yaw)]]
    )
    local = rot @ (np.asarray(xyz[:2]) - np.asarray(box.center[:2]))
    half = np.asarray(box.size) / 2.0
    return (
        abs(local[0]) <= half[0]
        and abs(local[1]) <= half[1]
        and abs(xyz[2] - box.center[2]) <= half[2]
    )


def bin_positions(*positions):
    return voxel_indices(default_grid(), np.array(positions, dtype=np.float64))


def in_box(xyz, box) -> bool:
    return bool(points_in_box_mask(np.array([xyz], dtype=np.float64), box)[0])


class TestVoxelIndex:
    def test_min_edge_bins_to_first_cell(self):
        mask, ix, _, _ = bin_positions((-51.2, 0.0, 0.0))
        assert mask[0] and ix[0] == 0

    def test_max_edge_bins_to_last_cell(self):
        mask, ix, _, _ = bin_positions((51.2, 0.0, 0.0))
        assert mask[0] and ix[0] == 127

    def test_origin_bins_to_cell_64(self):
        mask, ix, _, _ = bin_positions((0.0, 0.0, 0.0))
        assert mask[0] and ix[0] == 64

    def test_out_of_range_is_absent(self):
        mask, _, _, _ = bin_positions((51.3, 0.0, 0.0), (0.0, 0.0, 3.1))
        assert mask.tolist() == [False, False]

    def test_monotone_and_surjective_along_axis(self):
        """Sweeping the range hits every cell index in order."""
        xs = np.linspace(-51.2, 51.2, 4097)
        mask, ix, _, _ = bin_positions(*[(x, 0.0, 0.0) for x in xs])
        assert mask.all()
        assert ix[0] == 0 and ix[-1] == 127
        assert np.all(np.diff(ix) >= 0)
        assert set(ix.tolist()) == set(range(128))

    @given(
        x=st.floats(-51.2, 51.2),
        y=st.floats(-51.2, 51.2),
        z=st.floats(-5.0, 3.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_in_range_positions_always_bin(self, x, y, z):
        spec = default_grid()
        mask, *idx = bin_positions((x, y, z))
        assert mask[0]
        for i, n in zip(idx, spec.cells):
            assert 0 <= i[0] < n


class TestPointInBox:
    def test_center_is_interior(self):
        box = BoxAnnotation(center=(1.0, 2.0, 3.0), size=(4.0, 2.0, 2.0), yaw=0.7)
        assert in_box((1.0, 2.0, 3.0), box)

    def test_just_outside_face(self):
        box = BoxAnnotation(center=(0.0, 0.0, 0.0), size=(4.0, 2.0, 2.0), yaw=0.0)
        assert not in_box((2.01, 0.0, 0.0), box)

    def test_rotated_frame_swaps_extents(self):
        # At yaw = pi/2 the world x offset lands on the box's width axis.
        box = BoxAnnotation(
            center=(0.0, 0.0, 0.0), size=(4.0, 2.0, 2.0), yaw=math.pi / 2
        )
        assert not in_box((2.0 - 1e-6, 0.0, 0.0), box)
        assert not oracle_point_in_box((2.0 - 1e-6, 0.0, 0.0), box)

    def test_agrees_with_rotation_matrix_oracle(self):
        gen = np.random.default_rng(2024)
        for _ in range(10_000):
            xyz = gen.uniform(-10, 10, size=3)
            box = BoxAnnotation(
                center=tuple(gen.uniform(-5, 5, size=3)),
                size=tuple(gen.uniform(0.5, 6.0, size=3)),
                yaw=float(gen.uniform(-math.pi, math.pi)),
            )
            assert in_box(xyz, box) == oracle_point_in_box(xyz, box)


class TestRng:
    def test_identical_streams_replay(self):
        a = Rng(seed=12345, stream=7).generator().uniform(size=10_000)
        b = Rng(seed=12345, stream=7).generator().uniform(size=10_000)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = Rng(seed=12345, stream=0).generator().uniform(size=100)
        b = Rng(seed=12345, stream=1).generator().uniform(size=100)
        assert not np.array_equal(a, b)

    def test_derive64_is_order_sensitive(self):
        assert derive64(1, 2) != derive64(2, 1)
        assert derive64(1, 2) == derive64(1, 2)


class TestTypes:
    def test_cloud_rejects_non_finite(self):
        with pytest.raises(ValueError):
            PointCloud(data=[[math.nan, 0.0, 0.0, 0.0, 0.0]])

    def test_cloud_shape_validation(self):
        with pytest.raises(ValueError):
            PointCloud(data=np.zeros((3, 4)))

    def test_cloud_is_immutable(self):
        cloud = PointCloud(data=np.zeros((2, 5)))
        with pytest.raises(ValueError):
            cloud.data[0, 0] = 1.0

    def test_box_rejects_bad_size_and_yaw(self):
        with pytest.raises(ValueError):
            BoxAnnotation(center=(0, 0, 0), size=(0.0, 1.0, 1.0), yaw=0.0)
        with pytest.raises(ValueError):
            BoxAnnotation(center=(0, 0, 0), size=(1.0, 1.0, 1.0), yaw=4.0)

    def test_grid_rejects_inverted_range(self):
        with pytest.raises(ValueError):
            GridSpec(x_range=(1.0, -1.0), y_range=(0, 1), z_range=(0, 1), cells=(1, 1, 1))

    def test_grid_cell_sizes(self):
        assert default_grid().cell_sizes == pytest.approx((0.8, 0.8, 1.0))

    def test_voxel_grid_field_shape_checked(self):
        spec = GridSpec(x_range=(0, 1), y_range=(0, 1), z_range=(0, 1), cells=(2, 2, 2))
        with pytest.raises(ValueError):
            VoxelGrid(
                spec=spec,
                rcs=np.zeros((2, 2, 2)),
                vel=np.zeros((2, 2, 3)),
                count=np.zeros((2, 2, 2), dtype=np.int64),
            )

    def test_voxel_grid_leaves_caller_arrays_writeable_and_unshared(self):
        spec = GridSpec(x_range=(0, 1), y_range=(0, 1), z_range=(0, 1), cells=(2, 2, 2))
        fields = {
            "rcs": np.zeros((2, 2, 2)),
            "vel": np.zeros((2, 2, 2)),
            "count": np.zeros((2, 2, 2), dtype=np.int64),
        }
        grid = VoxelGrid(spec=spec, **fields)
        for name, arr in fields.items():
            held = getattr(grid, name)
            assert arr.flags.writeable and not held.flags.writeable
            assert not np.shares_memory(held, arr)
            arr[0, 0, 0] = 7
            assert held[0, 0, 0] == 0

    def test_voxel_grid_keeps_read_only_arrays_without_a_copy(self):
        spec = GridSpec(x_range=(0, 1), y_range=(0, 1), z_range=(0, 1), cells=(2, 2, 2))
        fields = {
            "rcs": read_only(np.zeros((2, 2, 2))),
            "vel": read_only(np.zeros((2, 2, 2))),
            "count": read_only(np.zeros((2, 2, 2), dtype=np.int64)),
        }
        grid = VoxelGrid(spec=spec, **fields)
        assert all(getattr(grid, name) is arr for name, arr in fields.items())


class TestCsvRoundTrip:
    def test_point_cloud_round_trip_is_exact(self, tmp_path):
        gen = np.random.default_rng(5)
        cloud = PointCloud(data=gen.normal(size=(37, 5)) * 17.3, frame_id="frame-9")
        path = tmp_path / "cloud.csv"
        write_point_cloud_csv(cloud, path)
        back = read_point_cloud_csv(path)
        assert back.frame_id == "frame-9"
        assert np.array_equal(back.data, cloud.data)

    def test_empty_cloud_round_trip(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_point_cloud_csv(PointCloud(data=np.empty((0, 5)), frame_id="e"), path)
        assert len(read_point_cloud_csv(path)) == 0

    def test_header_is_mandatory(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,3,4,5,6\n")
        with pytest.raises(ValueError):
            read_point_cloud_csv(path)

    def test_mixed_frames_rejected(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text("frame_id,x,y,z,rcs,v\na,0,0,0,0,0\nb,0,0,0,0,0\n")
        with pytest.raises(ValueError):
            read_point_cloud_csv(path)

    def test_boxes_csv_text_is_pinned(self, tmp_path):
        # Box files are written only; repr keeps every float's exact value.
        boxes = (
            BoxAnnotation(center=(1.0, -2.0, 0.5), size=(4.0, 2.0, 1.5), yaw=0.1 + 0.2),
            BoxAnnotation(center=(8, 8, 0), size=(2.0, 2.0, 2.0), yaw=-1.2),
        )
        path = tmp_path / "boxes.csv"
        write_boxes_csv(boxes, path, frame_id="f")
        assert path.read_bytes() == (
            b"frame_id,cx,cy,cz,l,w,h,yaw\n"
            b"f,1.0,-2.0,0.5,4.0,2.0,1.5,0.30000000000000004\n"
            b"f,8.0,8.0,0.0,2.0,2.0,2.0,-1.2\n"
        )
