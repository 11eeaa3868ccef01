"""Radar corruption model tests: statistics, count laws, determinism."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcbench.core import BoxAnnotation, PointCloud, Rng, default_grid
from rcbench.corruption import (
    SIGMA_KINDS,
    CorruptionKind,
    CorruptionSpec,
    SpuriousMode,
    apply_corruption,
    beam_azimuth_sector,
    beam_drop,
    key_point_missing,
    non_positional_disturbance,
    point_shift,
    spurious_points,
)


def random_cloud(n, seed=0, scale=20.0):
    gen = np.random.default_rng(seed)
    return PointCloud(data=gen.uniform(-scale, scale, size=(n, 5)))


class TestKeyPointMissing:
    def test_removes_half_cloud_wide(self):
        cloud = random_cloud(100)
        out = key_point_missing(cloud, (), gamma=0, k=50, rng=Rng(1))
        assert len(out) == 50

    def test_survivors_keep_order_and_values(self):
        cloud = random_cloud(60, seed=3)
        out = key_point_missing(cloud, (), gamma=0, k=20, rng=Rng(2))
        # Every output row appears in the input, in the same relative order.
        rows = {tuple(r): i for i, r in enumerate(cloud.data)}
        positions = [rows[tuple(r)] for r in out.data]
        assert positions == sorted(positions)

    def test_targeted_removal_is_capped_by_region(self):
        gen = np.random.default_rng(8)
        far = gen.uniform(20, 30, size=(47, 5))
        inside = np.zeros((3, 5))
        cloud = PointCloud(data=np.vstack([inside, far]))
        box = BoxAnnotation(center=(0, 0, 0), size=(2, 2, 2), yaw=0.0)
        out = key_point_missing(cloud, (box,), gamma=1, k=8, rng=Rng(4))
        assert len(out) == 47
        # Exactly the in-box points are gone.
        assert np.array_equal(out.data, far)

    def test_targeted_removal_only_hits_boxes(self):
        cloud = random_cloud(200, seed=9, scale=10.0)
        box = BoxAnnotation(center=(0, 0, 0), size=(8, 8, 8), yaw=0.4)
        out = key_point_missing(cloud, (box,), gamma=1, k=5, rng=Rng(5))
        removed_rows = set(map(tuple, cloud.data)) - set(map(tuple, out.data))
        from rcbench.core import points_in_box_mask

        removed = np.array(sorted(removed_rows)).reshape(-1, 5)
        assert points_in_box_mask(removed[:, :3], box).all()

    def test_k_bounds_enforced(self):
        cloud = random_cloud(10)
        with pytest.raises(ValueError):
            key_point_missing(cloud, (), gamma=0, k=6, rng=Rng(0))  # cap is 5
        with pytest.raises(ValueError):
            key_point_missing(cloud, (), gamma=0, k=0, rng=Rng(0))
        with pytest.raises(ValueError):
            key_point_missing(cloud, (), gamma=1, k=9, rng=Rng(0))  # cap is 8

    def test_empty_cloud_rejected(self):
        with pytest.raises(ValueError):
            key_point_missing(PointCloud(data=np.empty((0, 5))), (), 0, 1, Rng(0))


class TestSpuriousPoints:
    def test_union_semantics(self):
        cloud = random_cloud(100, seed=1)
        out = spurious_points(
            cloud, SpuriousMode.POINT_RELATED, 0.2, 3.0, default_grid(), Rng(6)
        )
        assert len(out) == 120
        assert np.array_equal(out.data[:100], cloud.data)

    def test_point_related_noise_statistics(self):
        """All bases identical, so (added - base) isolates the noise draw."""
        base_row = np.array([[4.0, -3.0, 1.0, 7.5, 2.0]])
        cloud = PointCloud(data=np.repeat(base_row, 100_000, axis=0))
        out = spurious_points(
            cloud, SpuriousMode.POINT_RELATED, 1.0, 3.0, default_grid(), Rng(7)
        )
        added = out.data[100_000:] - base_row
        stds = added.std(axis=0)
        assert np.all(stds >= 2.97) and np.all(stds <= 3.03)

    def test_point_related_support_within_five_sigma(self):
        cloud = random_cloud(50, seed=12, scale=30.0)
        sigma = 4.0
        out = spurious_points(
            cloud, SpuriousMode.POINT_RELATED, 1.0, sigma, default_grid(), Rng(8)
        )
        added = out.data[50:]
        # Every added point lies within 5 sigma of some original, per coordinate.
        diff = np.abs(added[:, None, :] - cloud.data[None, :, :]).max(axis=2)
        assert np.all(diff.min(axis=1) <= 5.0 * sigma)

    def test_random_mode_positions_inside_bounds(self):
        bounds = default_grid()
        cloud = random_cloud(200, seed=2, scale=40.0)
        out = spurious_points(cloud, SpuriousMode.RANDOM, 1.0, 25.0, bounds, Rng(9))
        added = out.data[200:]
        for axis, (lo, hi) in enumerate(bounds.ranges):
            assert np.all(added[:, axis] >= lo) and np.all(added[:, axis] <= hi)

    def test_empty_cloud_rejected(self):
        with pytest.raises(ValueError):
            spurious_points(
                PointCloud(data=np.empty((0, 5))),
                SpuriousMode.POINT_RELATED,
                0.2,
                1.0,
                default_grid(),
                Rng(0),
            )

    def test_ratio_bounds(self):
        with pytest.raises(ValueError):
            spurious_points(
                random_cloud(5), SpuriousMode.POINT_RELATED, 0.0, 1.0, default_grid(), Rng(0)
            )


class TestPointShift:
    def test_degenerate_sigma_is_identity(self):
        cloud = random_cloud(500, seed=4)
        out = point_shift(cloud, 1e-12, Rng(10))
        assert np.allclose(out.xyz, cloud.xyz, atol=1e-9)

    def test_offset_statistics(self):
        cloud = random_cloud(100_000, seed=5)
        out = point_shift(cloud, 5.0, Rng(11))
        stds = (out.xyz - cloud.xyz).std(axis=0)
        assert np.all(stds >= 4.95) and np.all(stds <= 5.05)

    def test_rcs_and_velocity_untouched(self):
        cloud = random_cloud(1000, seed=6)
        out = point_shift(cloud, 8.0, Rng(12))
        assert np.array_equal(out.data[:, 3:5], cloud.data[:, 3:5])
        assert len(out) == len(cloud)

    def test_mean_displacement_grows_with_sigma(self):
        cloud = random_cloud(10_000, seed=7)
        means = []
        for sigma in (1.0, 5.0, 10.0, 25.0, 50.0):
            out = point_shift(cloud, sigma, Rng(13))
            means.append(np.linalg.norm(out.xyz - cloud.xyz, axis=1).mean())
        assert all(b > a for a, b in zip(means, means[1:]))


class TestNonPositionalDisturbance:
    def test_positions_bit_identical(self):
        cloud = random_cloud(1000, seed=8)
        out = non_positional_disturbance(cloud, 10.0, Rng(14))
        assert np.array_equal(out.xyz, cloud.xyz)
        assert len(out) == len(cloud)

    def test_degenerate_sigma_is_identity(self):
        cloud = random_cloud(500, seed=9)
        out = non_positional_disturbance(cloud, 1e-12, Rng(15))
        assert np.allclose(out.data, cloud.data, atol=1e-9)

    def test_disturbance_statistics(self):
        cloud = random_cloud(100_000, seed=10)
        out = non_positional_disturbance(cloud, 10.0, Rng(16))
        stds = (out.data[:, 3:5] - cloud.data[:, 3:5]).std(axis=0)
        assert np.all(stds >= 9.9) and np.all(stds <= 10.1)


class TestBeamDrop:
    def test_zero_drop_is_rejected(self):
        # A level that drops nothing is no corruption, as KeyPointMissing 0 is not.
        with pytest.raises(ValueError, match=r"drop_count=0 outside \[1, total_beams=32\]"):
            beam_drop(random_cloud(100, seed=11), 32, 0, Rng(17))

    def test_all_beams_dropped_empties_cloud(self):
        cloud = random_cloud(100, seed=12)
        assert len(beam_drop(cloud, 32, 32, Rng(18))) == 0

    def test_dropped_sectors_are_whole(self):
        """A dropped sector removes all of its points; kept sectors keep all."""
        cloud = random_cloud(500, seed=13)
        out = beam_drop(cloud, 32, 10, Rng(19))
        kept_rows = set(map(tuple, out.data))
        sectors = beam_azimuth_sector(cloud.data[:, 0], cloud.data[:, 1], 32)
        removed_sectors = {
            int(s)
            for s, row in zip(sectors, cloud.data)
            if tuple(row) not in kept_rows
        }
        kept_sectors = {
            int(s) for s, row in zip(sectors, cloud.data) if tuple(row) in kept_rows
        }
        assert removed_sectors.isdisjoint(kept_sectors)
        assert len(removed_sectors) <= 10

    def test_drop_count_validated(self):
        with pytest.raises(ValueError):
            beam_drop(random_cloud(5), 32, 33, Rng(0))


@given(
    n=st.integers(2, 60),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_count_laws_hold(n, seed):
    cloud = random_cloud(n, seed=seed)
    gen = np.random.default_rng(seed)
    k = int(gen.integers(1, n // 2 + 1))
    assert len(key_point_missing(cloud, (), 0, k, Rng(seed))) == n - k
    ratio = float(gen.uniform(0.05, 1.0))
    m = max(1, round(ratio * n))
    out = spurious_points(
        cloud, SpuriousMode.POINT_RELATED, ratio, 2.0, default_grid(), Rng(seed)
    )
    assert len(out) == n + m
    assert len(point_shift(cloud, 3.0, Rng(seed))) == n
    assert len(non_positional_disturbance(cloud, 3.0, Rng(seed))) == n


class TestDeterminism:
    def test_all_operations_replay_bit_identically(self):
        cloud = random_cloud(300, seed=14)
        box = BoxAnnotation(center=(0, 0, 0), size=(10, 10, 10), yaw=0.2)
        grid = default_grid()
        pairs = [
            (
                key_point_missing(cloud, (box,), 1, 4, Rng(20)),
                key_point_missing(cloud, (box,), 1, 4, Rng(20)),
            ),
            (
                spurious_points(cloud, SpuriousMode.RANDOM, 0.3, 2.0, grid, Rng(21)),
                spurious_points(cloud, SpuriousMode.RANDOM, 0.3, 2.0, grid, Rng(21)),
            ),
            (point_shift(cloud, 5.0, Rng(22)), point_shift(cloud, 5.0, Rng(22))),
            (
                non_positional_disturbance(cloud, 5.0, Rng(23)),
                non_positional_disturbance(cloud, 5.0, Rng(23)),
            ),
            (beam_drop(cloud, 32, 7, Rng(24)), beam_drop(cloud, 32, 7, Rng(24))),
        ]
        for a, b in pairs:
            assert np.array_equal(a.data, b.data)


class TestCorruptionSpecJson:
    @pytest.mark.parametrize(
        "text, field",
        [
            ('{"kind": "BeamDrop", "drop_count": 2.5}', "drop_count"),
            ('{"kind": "KeyPointMissing", "drop_count": 1.5}', "drop_count"),
            ('{"kind": "KeyPointMissing", "drop_count": 1, "gamma": true}', "gamma"),
            ('{"kind": "PointShifting", "sigma": 1e309}', "sigma"),
            ('{"kind": "PointShifting", "sigma": 1.0, "seed": -1}', "seed"),
            ('{"kind": "PointShifting", "sigma": 1.0, "seed": 18446744073709551616}', "seed"),
            ('{"kind": "SpuriousPoints", "sigma": 1.0, "spurious_ratio": true}', "spurious_ratio"),
        ],
    )
    def test_bad_values_rejected_when_built(self, text, field):
        # Each of these used to build and then fail, or run wrong, at apply time.
        # Every other field is valid, so the error must name the bad one.
        with pytest.raises(ValueError, match=f"^{field} must"):
            CorruptionSpec(**json.loads(text))

    def test_sigma_kind_without_sigma_rejected_when_built(self):
        # Without the check, apply_corruption would hand None to the noise model.
        for kind in SIGMA_KINDS:
            with pytest.raises(ValueError, match="needs a sigma"):
                CorruptionSpec(kind=kind, seed=5)

    def test_apply_dispatches_beam_drop(self):
        cloud = random_cloud(50, seed=16)
        spec = CorruptionSpec(kind=CorruptionKind.BEAM_DROP, seed=5, drop_count=32)
        assert len(apply_corruption(cloud, spec, total_beams=32)) == 0
