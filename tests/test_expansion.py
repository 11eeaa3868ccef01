"""Voxelization, kernel construction, and Gaussian expansion tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcbench.core import GridSpec, PointCloud, Rng, default_grid, derive64
from rcbench.corruption import CorruptionKind, CorruptionSpec, apply_corruption
from rcbench.expansion import (
    ISOTROPIC_3D,
    LAMBDA_CHOICES,
    PLANAR_XY,
    ProjectorWeights,
    bev_project,
    build_kernel,
    expand,
    heuristic_kernel_params,
    kernel_params,
    kernel_params_for_cloud,
    load_projector_weights,
    merge_residual,
    project_params,
    voxelize,
)
from test_bench import write_projector_weights


def small_grid(n=8):
    return GridSpec(x_range=(0.0, 8.0), y_range=(0.0, 8.0), z_range=(0.0, 8.0), cells=(n, n, n))


def cloud_from_rows(rows):
    return PointCloud(data=np.asarray(rows, dtype=np.float64))


class TestVoxelize:
    def test_empty_cloud_gives_zero_grid(self):
        grid = voxelize(PointCloud(data=np.empty((0, 5))), small_grid())
        assert grid.rcs.sum() == 0 and grid.count.sum() == 0

    def test_same_cell_accumulates(self):
        cloud = cloud_from_rows([[1.1, 1.2, 1.3, 1.0, 4.0], [1.4, 1.5, 1.6, 2.0, -1.0]])
        grid = voxelize(cloud, small_grid())
        assert grid.rcs[1, 1, 1] == 3.0
        assert grid.vel[1, 1, 1] == 3.0
        assert grid.count[1, 1, 1] == 2

    def test_mass_matches_direct_summation(self):
        gen = np.random.default_rng(21)
        data = np.column_stack(
            [
                gen.uniform(0.0, 8.0, size=(1000, 3)),
                gen.uniform(-5, 5, size=(1000, 2)),
            ]
        ).reshape(1000, 5)
        cloud = PointCloud(data=data)
        grid = voxelize(cloud, small_grid())
        assert abs(grid.rcs.sum() - cloud.rcs.sum()) < 1e-9
        assert abs(grid.vel.sum() - cloud.v.sum()) < 1e-9
        assert grid.count.sum() == 1000

    def test_out_of_range_points_reported(self):
        cloud = cloud_from_rows(
            [[1.0, 1.0, 1.0, 1.0, 0.0], [99.0, 1.0, 1.0, 1.0, 0.0]]
        )
        grid = voxelize(cloud, small_grid())
        assert grid.out_of_range == 1
        assert grid.count.sum() == 1

    def test_empty_cells_have_zero_fields(self):
        cloud = cloud_from_rows([[1.0, 1.0, 1.0, 3.0, 2.0]])
        grid = voxelize(cloud, small_grid())
        empty = grid.count == 0
        assert np.all(grid.rcs[empty] == 0.0)
        assert np.all(grid.vel[empty] == 0.0)


class TestProjector:
    def test_zero_weights_give_smallest_kernel(self):
        weights = ProjectorWeights(
            w1=np.zeros((8, 2)), b1=np.zeros(8), w2=np.zeros((4, 8)), b2=np.zeros(4)
        )
        (params,) = project_params(1.0, 2.0, weights)
        assert params.lambda_p == 1
        assert params.sigma == pytest.approx(math.log(2.0) + 0.1, abs=1e-12)

    def test_rejects_non_finite_inputs(self):
        weights = ProjectorWeights(
            w1=np.zeros((8, 2)), b1=np.zeros(8), w2=np.zeros((4, 8)), b2=np.zeros(4)
        )
        with pytest.raises(ValueError):
            project_params(math.nan, 0.0, weights)

    def test_matches_straight_line_affine_oracle(self, tmp_path):
        gen = np.random.default_rng(22)
        weights = ProjectorWeights(
            w1=gen.normal(size=(8, 2)),
            b1=gen.normal(size=8),
            w2=gen.normal(size=(4, 8)),
            b2=gen.normal(size=4),
        )
        path = tmp_path / "proj.json"
        write_projector_weights(weights, path)
        loaded = load_projector_weights(path)
        inputs = gen.uniform(-10, 10, size=(50, 2))
        for (rcs, v), got in zip(inputs, project_params(inputs[:, 0], inputs[:, 1], loaded)):
            # Straight-line re-evaluation of the two affine layers.
            hidden = [
                max(sum(weights.w1[i, j] * [rcs, v][j] for j in range(2)) + weights.b1[i], 0.0)
                for i in range(8)
            ]
            out = [
                sum(weights.w2[i, j] * hidden[j] for j in range(8)) + weights.b2[i]
                for i in range(4)
            ]
            lam = LAMBDA_CHOICES[int(np.argmax(out[:3]))]
            sigma = math.log1p(math.exp(-abs(out[3]))) + max(out[3], 0.0) + 0.1
            assert got.lambda_p == lam
            assert got.sigma == pytest.approx(sigma, rel=1e-12)

    def test_heuristic_quartile_rule(self):
        rcs = np.concatenate([np.full(25, 1.0), np.full(50, 5.0), np.full(25, 9.0)])
        data = np.zeros((100, 5))
        data[:, 3] = rcs
        cloud = PointCloud(data=data)
        params = heuristic_kernel_params(cloud)
        lams = np.array([p.lambda_p for p in params])
        assert np.all(lams[:25] == 5)
        assert np.all(lams[25:75] == 3)
        assert np.all(lams[75:] == 1)
        # Top of the range always maps to the unit kernel.
        assert params[-1].sigma == pytest.approx(1.0 / 3.0)

    def test_heuristic_single_point_gets_unit_kernel(self):
        cloud = cloud_from_rows([[0, 0, 0, 4.2, 0]])
        assert heuristic_kernel_params(cloud)[0].lambda_p == 1

    def test_dispatch_matches_modes(self):
        cloud = cloud_from_rows([[0, 0, 0, 4.2, 0], [1, 1, 1, 2.0, 1]])
        assert len(kernel_params_for_cloud(cloud)) == 2


class TestBuildKernel:
    def test_unit_kernel(self):
        kernel = build_kernel(1, 0.5, PLANAR_XY)
        assert kernel.shape == (1, 1, 1)
        assert kernel[0, 0, 0] == 1.0

    @pytest.mark.parametrize("mode", [PLANAR_XY, ISOTROPIC_3D])
    @pytest.mark.parametrize("lam", LAMBDA_CHOICES)
    @pytest.mark.parametrize("sigma", [0.1, 0.5, 1.0, 5.0, 50.0])
    def test_normalization(self, mode, lam, sigma):
        kernel = build_kernel(lam, sigma, mode)
        # Independent summation over explicit loops.
        total = 0.0
        for i in range(lam):
            for j in range(lam):
                for k in range(lam):
                    total += kernel[i, j, k]
        assert abs(total - 1.0) < 1e-12

    def test_even_symmetry(self):
        kernel = build_kernel(3, 0.8, PLANAR_XY)
        assert kernel[2, 1, 1] == kernel[0, 1, 1]
        assert kernel[1, 2, 1] == kernel[1, 0, 1]

    def test_planar_mode_ignores_z_offset(self):
        kernel = build_kernel(3, 0.8, PLANAR_XY)
        assert kernel[1, 1, 0] == kernel[1, 1, 1] == kernel[1, 1, 2]

    def test_isotropic_mode_decays_in_z(self):
        kernel = build_kernel(3, 0.8, ISOTROPIC_3D)
        assert kernel[1, 1, 0] < kernel[1, 1, 1]


class TestExpand:
    def test_interior_point_fills_3x3x3_block(self):
        cloud = cloud_from_rows([[4.5, 4.5, 4.5, 2.0, 1.0]])
        grid = expand(cloud, small_grid(), kernel_params(3, 1.0), PLANAR_XY)
        nonzero = np.argwhere(grid.rcs != 0)
        assert nonzero.min() == 3 and nonzero.max() == 5
        assert len(nonzero) == 27

    def test_unit_kernels_reproduce_voxelize_exactly(self):
        gen = np.random.default_rng(23)
        data = np.column_stack(
            [gen.uniform(0, 8, size=(500, 3)), gen.uniform(-4, 4, size=(500, 2))]
        ).reshape(500, 5)
        cloud = PointCloud(data=data)
        params = kernel_params([1] * 500, 1.0)
        vox = voxelize(cloud, small_grid())
        exp = expand(cloud, small_grid(), params, PLANAR_XY)
        assert np.array_equal(vox.rcs, exp.rcs)
        assert np.array_equal(vox.vel, exp.vel)
        assert np.array_equal(vox.count, exp.count)

    @pytest.mark.parametrize("mode", [PLANAR_XY, ISOTROPIC_3D])
    def test_interior_mass_conservation(self, mode):
        gen = np.random.default_rng(24)
        # Keep all points >= 2 cells from every border (cells are 1.0 wide).
        data = np.column_stack(
            [gen.uniform(2.5, 5.5, size=(200, 3)), gen.uniform(-4, 4, size=(200, 2))]
        ).reshape(200, 5)
        cloud = PointCloud(data=data)
        params = kernel_params_for_cloud(cloud)
        grid = expand(cloud, small_grid(), params, mode)
        assert abs(grid.rcs.sum() - cloud.rcs.sum()) < 1e-9
        assert abs(grid.vel.sum() - cloud.v.sum()) < 1e-9

    def test_border_clipping_loses_mass(self):
        cloud = cloud_from_rows([[0.5, 0.5, 0.5, 1.0, 0.0]])
        grid = expand(cloud, small_grid(), kernel_params(5, 1.0), ISOTROPIC_3D)
        assert grid.rcs.sum() < 1.0

    def test_length_mismatch_rejected(self):
        cloud = cloud_from_rows([[1, 1, 1, 1, 0]])
        with pytest.raises(ValueError):
            expand(cloud, small_grid(), kernel_params([], []), PLANAR_XY)


class TestMergeResidual:
    def test_zero_expansion_is_identity(self):
        cloud = cloud_from_rows([[1, 1, 1, 2, 3]])
        vox = voxelize(cloud, small_grid())
        zero = voxelize(PointCloud(data=np.empty((0, 5))), small_grid())
        merged = merge_residual(vox, zero)
        assert np.array_equal(merged.rcs, vox.rcs)
        assert np.array_equal(merged.count, vox.count)

    def test_matches_scalar_loop_oracle(self):
        gen = np.random.default_rng(25)
        grid_spec = small_grid(4)
        a = voxelize(
            PointCloud(
                data=np.column_stack(
                    [gen.uniform(0, 8, (50, 3)), gen.uniform(-2, 2, (50, 2))]
                ).reshape(50, 5)
            ),
            grid_spec,
        )
        b = voxelize(
            PointCloud(
                data=np.column_stack(
                    [gen.uniform(0, 8, (70, 3)), gen.uniform(-2, 2, (70, 2))]
                ).reshape(70, 5)
            ),
            grid_spec,
        )
        merged = merge_residual(a, b)
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    assert merged.rcs[i, j, k] == a.rcs[i, j, k] + b.rcs[i, j, k]
                    assert merged.vel[i, j, k] == a.vel[i, j, k] + b.vel[i, j, k]

    def test_unit_expansion_doubles_occupied_cells(self):
        gen = np.random.default_rng(26)
        data = np.column_stack(
            [gen.uniform(0, 8, (100, 3)), gen.uniform(1, 3, (100, 2))]
        ).reshape(100, 5)
        cloud = PointCloud(data=data)
        vox = voxelize(cloud, small_grid())
        exp = expand(cloud, small_grid(), kernel_params([1] * 100, 1.0), PLANAR_XY)
        merged = merge_residual(vox, exp)
        assert np.array_equal(merged.rcs, 2.0 * vox.rcs)

    def test_spec_mismatch_rejected(self):
        a = voxelize(PointCloud(data=np.empty((0, 5))), small_grid(4))
        b = voxelize(PointCloud(data=np.empty((0, 5))), small_grid(8))
        with pytest.raises(ValueError):
            merge_residual(a, b)


class TestBevProject:
    def test_zero_grid(self):
        grid = voxelize(PointCloud(data=np.empty((0, 5))), small_grid())
        assert np.all(bev_project(grid) == 0.0)

    def test_single_cell(self):
        cloud = cloud_from_rows([[1.5, 2.5, 3.5, 2.0, 0.0]])
        bev = bev_project(voxelize(cloud, small_grid()))
        assert bev[1, 2] == 2.0
        assert bev.sum() == 2.0

    def test_matches_triple_loop_oracle(self):
        gen = np.random.default_rng(27)
        data = np.column_stack(
            [gen.uniform(0, 8, (200, 3)), gen.uniform(-3, 3, (200, 2))]
        ).reshape(200, 5)
        grid = voxelize(PointCloud(data=data), small_grid())
        bev = bev_project(grid)
        nx, ny, nz = grid.spec.cells
        for i in range(nx):
            for j in range(ny):
                total = 0.0
                for k in range(nz):
                    total += abs(grid.rcs[i, j, k])
                assert abs(bev[i, j] - total) < 1e-12


@given(lam=st.sampled_from(LAMBDA_CHOICES), sigma=st.floats(0.05, 60.0))
@settings(max_examples=80, deadline=None)
def test_kernel_normalization_property(lam, sigma):
    for mode in (PLANAR_XY, ISOTROPIC_3D):
        kernel = build_kernel(lam, sigma, mode)
        assert abs(kernel.sum() - 1.0) < 1e-12
        assert np.all(kernel >= 0.0)


class TestIdentityDegeneration:
    def test_merge_of_unit_expansion_is_exactly_double(self):
        gen = np.random.default_rng(28)
        data = np.column_stack(
            [gen.uniform(0, 8, (300, 3)), gen.uniform(-5, 5, (300, 2))]
        ).reshape(300, 5)
        cloud = PointCloud(data=data)
        spec = small_grid()
        vox = voxelize(cloud, spec)
        merged = merge_residual(vox, expand(cloud, spec, kernel_params([1] * 300, 0.7), PLANAR_XY))
        assert np.array_equal(merged.rcs, 2.0 * vox.rcs)
        assert np.array_equal(merged.vel, 2.0 * vox.vel)


class TestNoiseSuppression:
    def test_snr_never_degrades_under_spurious_noise(self):
        """100 seeded scenes: in/out amplitude ratio after expansion >= before."""
        from rcbench.bench import SceneConfig, gen_scene, metric_snr, pipeline_bev

        grid = default_grid()
        cfg = SceneConfig()
        improved = 0
        for rep in range(100):
            seed = derive64(17, rep)
            scene = gen_scene(cfg, grid, Rng(seed))
            spec = CorruptionSpec(
                kind=CorruptionKind.SPURIOUS_POINTS,
                seed=derive64(seed, 1),
                sigma=5.0,
                spurious_ratio=0.5,
            )
            corrupted = apply_corruption(scene.cloud, spec, bounds=grid)
            before = metric_snr(pipeline_bev(corrupted, grid, "raw"), scene.boxes, grid)
            after = metric_snr(
                pipeline_bev(corrupted, grid, "3dge_planar"), scene.boxes, grid
            )
            improved += after >= before
        assert improved == 100
