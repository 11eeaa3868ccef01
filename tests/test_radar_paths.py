"""Radar-path tests: the shared entry builder against a per-point loop
oracle, direct binning against the unit-kernel deposit, the kernel-param
arrays, batched kernels and batched projector against one-at-a-time
oracles, one binning and one entry pass per cloud and one box mask per
sweep task, the sweep's BEVs from the entries against the dense-grid
pipeline, a pass over many clouds against each cloud alone, the windowed
box mask against the full grid, bounded Chamfer and BEV memory, and grid
indexing of extreme or out-of-grid coordinates.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rcbench.bench as bench
import rcbench.expansion as expansion
from rcbench.bench import (
    KIND_IDS,
    PIPELINES,
    SWEEP_GRID,
    BenchRow,
    SceneConfig,
    SweepConfig,
    SweepEntry,
    gen_scene,
    metric_chamfer,
    metric_peak,
    metric_snr,
    pipeline_bev,
    scripted_scene,
)
from rcbench.core import (
    BoxAnnotation,
    GridSpec,
    PointCloud,
    Rng,
    default_grid,
    derive64,
    float_bits,
    in_box_footprint,
    voxel_indices,
)
from rcbench.corruption import CorruptionKind, apply_corruption
from rcbench.expansion import (
    EXPONENT_MODES,
    ISOTROPIC_3D,
    LAMBDA_CHOICES,
    PLANAR_XY,
    ProjectorWeights,
    bev_project,
    build_kernel,
    column_bevs,
    expand,
    heuristic_kernel_params,
    kernel_params,
    kernel_params_for_cloud,
    merge_residual,
    project_params,
    residual_columns,
    voxelize,
)
from test_bench import sweep_bevs, sweep_rows, write_projector_weights


def one_cloud_bevs(cloud, spec, params, exponent_modes):
    """One cloud's raw BEV, then one per mode, from residual_columns and column_bevs."""
    ((cols, amps),) = residual_columns([cloud], spec, [params], exponent_modes)
    return column_bevs(spec, cols, amps)


def small_grid(n=8):
    return GridSpec(x_range=(0.0, 8.0), y_range=(0.0, 8.0), z_range=(0.0, 8.0), cells=(n, n, n))


def loop_kernel(side, sigma, exponent_mode):
    """One kernel on its own: a Python-float sigma and one cube normalized by its sum."""
    axes = 3 if exponent_mode == ISOTROPIC_3D else 2
    offsets = np.indices((side, side, side)).reshape(3, -1).T - (side - 1) // 2
    sq = (offsets[:, :axes].astype(np.float64) ** 2).sum(axis=1)
    cube = np.exp(-sq / (2.0 * sigma**2)).reshape((side,) * 3)
    return cube / cube.sum()


def loop_expand(cloud, spec, params_per_point, exponent_mode):
    """Per-point reference: add each clipped kernel window to the grid in turn."""
    nx, ny, nz = spec.cells
    rcs = np.zeros(spec.cells)
    vel = np.zeros(spec.cells)
    count = np.zeros(spec.cells, dtype=np.int64)
    mask, ixs, iys, izs = voxel_indices(spec, cloud.xyz)
    for i, (side, sigma) in enumerate(zip(params_per_point.lambda_p, params_per_point.sigma)):
        if not mask[i]:
            continue
        kernel = loop_kernel(int(side), float(sigma), exponent_mode)
        half = (side - 1) // 2
        ix, iy, iz = int(ixs[i]), int(iys[i]), int(izs[i])
        gx0, gx1 = max(ix - half, 0), min(ix + half, nx - 1)
        gy0, gy1 = max(iy - half, 0), min(iy + half, ny - 1)
        gz0, gz1 = max(iz - half, 0), min(iz + half, nz - 1)
        kx0, ky0, kz0 = gx0 - (ix - half), gy0 - (iy - half), gz0 - (iz - half)
        window = kernel[
            kx0 : kx0 + (gx1 - gx0 + 1),
            ky0 : ky0 + (gy1 - gy0 + 1),
            kz0 : kz0 + (gz1 - gz0 + 1),
        ]
        rcs[gx0 : gx1 + 1, gy0 : gy1 + 1, gz0 : gz1 + 1] += window * cloud.rcs[i]
        vel[gx0 : gx1 + 1, gy0 : gy1 + 1, gz0 : gz1 + 1] += window * cloud.v[i]
        count[ix, iy, iz] += 1
    return rcs, vel, count, int(np.count_nonzero(~mask))


def border_cloud(seed, n=400):
    """Points near every face and corner of small_grid(), some outside it."""
    gen = np.random.default_rng(seed)
    near = gen.choice([0.3, 1.7, 6.3, 7.7, 8.0, 0.0], size=(n, 3))
    jitter = gen.uniform(-0.25, 0.25, size=(n, 3))
    xyz = np.where(gen.random((n, 3)) < 0.5, near + jitter, gen.uniform(-1.0, 9.0, (n, 3)))
    return PointCloud(data=np.column_stack([xyz, gen.uniform(-5, 20, (n, 2))]))


def mixed_params(seed, n):
    gen = np.random.default_rng(seed)
    lams = gen.choice([1, 3, 5], size=n)
    sigmas = gen.choice([0.4, 1.0, 1.0 / 3.0, 2.5], size=n)
    return kernel_params(lams, sigmas)


def learned_weights(seed):
    gen = np.random.default_rng(seed)
    return ProjectorWeights(
        w1=gen.normal(size=(8, 2)),
        b1=gen.normal(size=8),
        w2=gen.normal(size=(4, 8)),
        b2=gen.normal(size=4),
    )


class TestDepositOracle:
    @pytest.mark.parametrize("mode", EXPONENT_MODES)
    @pytest.mark.parametrize("source", ["mixed", "heuristic", "learned"])
    def test_expand_equals_loop(self, mode, source):
        cloud = border_cloud(31)
        params = {
            "mixed": lambda: mixed_params(32, len(cloud)),
            "heuristic": lambda: kernel_params_for_cloud(cloud),
            "learned": lambda: kernel_params_for_cloud(cloud, learned_weights(33)),
        }[source]()
        assert len({p.lambda_p for p in params}) > 1
        grid = expand(cloud, small_grid(), params, mode)
        rcs, vel, count, out = loop_expand(cloud, small_grid(), params, mode)
        assert out > 0
        assert np.array_equal(grid.rcs, rcs)
        assert np.array_equal(grid.vel, vel)
        assert np.array_equal(grid.count, count)
        assert grid.out_of_range == out

    # Entry bounds of 1 give one kernel per block; 3, 64 and 1000 give blocks of
    # several unit kernels, of several side-3 kernels, and of every side mixed.
    @pytest.mark.parametrize("block", [1, 3, 64, 1000])
    def test_block_size_does_not_change_the_sums(self, monkeypatch, block):
        cloud = border_cloud(34, n=150)
        params = mixed_params(35, len(cloud))
        whole = expand(cloud, small_grid(), params, EXPONENT_MODES[1])
        monkeypatch.setattr(expansion, "DEPOSIT_BLOCK_ENTRIES", block)
        blocked = expand(cloud, small_grid(), params, EXPONENT_MODES[1])
        assert np.array_equal(whole.rcs, blocked.rcs)
        assert np.array_equal(whole.vel, blocked.vel)
        vox = voxelize(cloud, small_grid())
        assert np.array_equal(vox.count, blocked.count)

    def test_binning_equals_unit_kernel_deposit_bytes(self):
        # voxelize adds v where a unit kernel added 1.0 * v; signed zeros,
        # subnormals and point-order sums in shared cells must keep every bit.
        gen = np.random.default_rng(36)
        cloud = border_cloud(36, n=2000)
        special = [-0.0, 0.0, 5e-324, -5e-324, 1e-310, -2.5e-320, 1e-300]
        data = cloud.data.copy()
        for col in (3, 4):
            data[:, col] = np.where(
                gen.random(len(data)) < 0.6, gen.choice(special, len(data)), data[:, col]
            )
        cloud = cloud.with_data(data)
        unit = kernel_params(1, np.ones(len(cloud)))
        grid = voxelize(cloud, small_grid())
        rcs, vel, count, out = loop_expand(cloud, small_grid(), unit, PLANAR_XY)
        assert grid.rcs.tobytes() == rcs.tobytes()
        assert grid.vel.tobytes() == vel.tobytes()
        assert grid.count.tobytes() == count.tobytes()
        assert grid.out_of_range == out > 0
        tiny = np.abs(grid.rcs[grid.rcs != 0]) < np.finfo(np.float64).tiny
        assert tiny.any() and count.max() > 2

    def test_heuristic_select_matches_if_chain(self):
        gen = np.random.default_rng(36)
        # Few distinct values, so many points sit exactly on a quartile.
        data = np.zeros((101, 5))
        data[:, 3] = gen.integers(0, 5, 101)
        cloud = PointCloud(data=data)
        q25, q75 = np.percentile(cloud.rcs, [25.0, 75.0])
        expected = [5 if r < q25 else 3 if r < q75 else 1 for r in cloud.rcs]
        got = heuristic_kernel_params(cloud)
        assert [p.lambda_p for p in got] == expected
        assert all(p.sigma == p.lambda_p / 3.0 for p in got)


def loop_project(rcs, v, weights):
    """The projector on one point: two matrix-vector products."""
    hidden = np.maximum(weights.w1 @ np.array([rcs, v]) + weights.b1, 0.0)
    out = weights.w2 @ hidden + weights.b2
    return LAMBDA_CHOICES[int(np.argmax(out[:3]))], float(np.logaddexp(0.0, out[3])) + 0.1


class TestKernelParamArrays:
    def test_batched_kernels_equal_one_at_a_time(self):
        # The first three sigmas square differently under libm pow and sigma * sigma.
        pinned = [0.10027544064458081, 0.278728551791814, 5.082199791324082, 1 / 3, 1.0, 5 / 3]
        sigmas = np.concatenate([pinned, np.random.default_rng(37).uniform(0.1, 6.0, 294)])
        for mode in EXPONENT_MODES:
            for side in LAMBDA_CHOICES:
                batch = build_kernel(side, sigmas, mode)
                assert batch.shape == (len(sigmas), side, side, side)
                for sigma, kernel in zip(sigmas, batch):
                    assert np.array_equal(kernel, loop_kernel(side, float(sigma), mode))

    @pytest.mark.parametrize("seed", range(12))
    def test_batched_projector_equals_per_point(self, seed):
        cloud = border_cloud(seed + 40, n=300)
        weights = learned_weights(seed + 60)
        got = project_params(cloud.rcs, cloud.v, weights)
        want = [loop_project(rcs, v, weights) for rcs, v in zip(cloud.rcs, cloud.v)]
        assert [(int(p.lambda_p), float(p.sigma)) for p in got] == want

    @pytest.mark.parametrize("source", ["heuristic", "learned"])
    def test_records_name_their_side(self, source):
        # A kernel-class counter keys each record by f"l{p.lambda_p}".
        cloud = border_cloud(38)
        weights = learned_weights(39) if source == "learned" else None
        labels = [f"l{p.lambda_p}" for p in kernel_params_for_cloud(cloud, weights)]
        assert len(labels) == len(cloud)
        assert set(labels) <= {"l1", "l3", "l5"} and len(set(labels)) > 1

    def test_fields_and_broadcasting(self):
        params = kernel_params([1, 3, 5], 0.5)
        assert params.dtype.names == ("lambda_p", "sigma")
        assert params.lambda_p.dtype == np.int64 and params.sigma.dtype == np.float64
        assert params.lambda_p.tolist() == [1, 3, 5] and params.sigma.tolist() == [0.5] * 3
        assert len(kernel_params(3, 1.0)) == 1 and len(kernel_params([], [])) == 0

    @pytest.mark.parametrize(
        "lam, sigma",
        [(2, 1.0), (3.5, 1.0), (3, 0.0), (3, -1.0), (3, np.nan), (3, np.inf), ([[3]], [[1.0]])],
    )
    def test_bad_params_rejected(self, lam, sigma):
        with pytest.raises(ValueError):
            kernel_params(lam, sigma)

    def test_expand_checks_the_records(self):
        cloud = border_cloud(41, n=4)
        bad = np.zeros(4, dtype=[("lambda_p", np.int64), ("sigma", np.float64)])
        bad["lambda_p"], bad["sigma"] = [1, 3, 2, 5], 1.0
        with pytest.raises(ValueError):
            expand(cloud, small_grid(), bad, EXPONENT_MODES[0])

    def test_merge_keeps_the_original_counts(self):
        vox = voxelize(border_cloud(42), small_grid())
        assert merge_residual(vox, vox).count is vox.count


def multi_config(**overrides):
    kwargs = dict(
        scene=SceneConfig(),
        corruptions=(
            SweepEntry(kind=CorruptionKind.SPURIOUS_POINTS, levels=(5.0,)),
            SweepEntry(kind=CorruptionKind.POINT_SHIFTING, levels=(2.0,)),
        ),
        pipelines=("3dge_isotropic", "raw", "3dge_planar"),
        replicates=2,
        master_seed=91,
    )
    kwargs.update(overrides)
    return SweepConfig(**kwargs)


def per_row_sweep(cfg, weights=None):
    """Each row recomputed on its own through pipeline_bev, three BEVs per row."""
    rows, maps = [], {}
    for entry in cfg.corruptions:
        for level in entry.levels:
            for replicate in range(cfg.replicates):
                seed = derive64(cfg.master_seed, KIND_IDS[entry.kind], float_bits(level), replicate)
                scene = gen_scene(cfg.scene, SWEEP_GRID, Rng(seed))
                spec = entry.spec_for(level, seed=derive64(seed, 1))
                for pipeline in cfg.pipelines:
                    key = dict(kind=entry.kind.value, level=level, replicate=replicate, pipeline=pipeline)
                    try:
                        corrupted = apply_corruption(
                            scene.cloud, spec, boxes=scene.boxes, bounds=SWEEP_GRID
                        )
                        raw = pipeline_bev(corrupted, SWEEP_GRID, "raw")
                        before = metric_snr(raw, scene.boxes, SWEEP_GRID)
                        clean = pipeline_bev(scene.cloud, SWEEP_GRID, pipeline, weights)
                        processed = pipeline_bev(corrupted, SWEEP_GRID, pipeline, weights)
                        after = (
                            before if pipeline == "raw"
                            else metric_snr(processed, scene.boxes, SWEEP_GRID)
                        )
                        consistent, l2 = metric_peak(clean, processed)
                        chamfer = metric_chamfer(scene.cloud, corrupted)
                    except Exception as exc:
                        rows.append(BenchRow(**key, error=f"{type(exc).__name__}: {exc}"))
                        continue
                    rows.append(
                        BenchRow(
                            **key, snr_before=before, snr_after=after,
                            peak_consistent=consistent, peak_l2_cells=l2, chamfer_m=chamfer,
                            points_in=len(scene.cloud), points_out=len(corrupted),
                        )
                    )
                    tag = f"{entry.kind.value}_l{level:g}_r{replicate}_{pipeline}"
                    maps[f"bev_{tag}"] = processed
                    maps[f"bev_clean_{tag}"] = clean
    return rows, maps


def assert_sweep_matches_per_row(cfg, weights=None):
    rows, maps = sweep_bevs(cfg)
    expected_rows, expected_maps = per_row_sweep(cfg, weights)
    assert rows == expected_rows
    assert maps.keys() == expected_maps.keys()
    for name, bev in maps.items():
        assert np.array_equal(bev, expected_maps[name]), name
    return rows


class TestOneVoxelizationPerCloud:
    def test_sweep_equals_per_row_pipelines(self):
        rows = assert_sweep_matches_per_row(multi_config())
        assert len(rows) == 12 and all(r.error is None for r in rows)

    def test_error_rows_equal_per_row_errors(self):
        # Half of an 80-point scene is 40 points, so 41 and 500 fail in the
        # corruption; dropping all 32 beams leaves no cloud for the Chamfer.
        cfg = multi_config(
            corruptions=(
                SweepEntry(kind=CorruptionKind.KEY_POINT_MISSING, levels=(41.0, 500.0)),
                SweepEntry(kind=CorruptionKind.BEAM_DROP, levels=(32,)),
            ),
        )
        rows = assert_sweep_matches_per_row(cfg)
        errors = {r.error for r in rows}
        assert None not in errors and len(errors) >= 2

    def test_learned_projector_equals_per_row(self, tmp_path):
        weights = learned_weights(37)
        path = tmp_path / "weights.json"
        write_projector_weights(weights, path)
        cfg = multi_config(projector_weights=str(path), replicates=1)
        assert_sweep_matches_per_row(cfg, weights)

    def test_each_cloud_voxelized_once_and_chamfer_once_per_task(self, monkeypatch):
        # The sweep bins a cloud with voxel_indices, once for all its pipelines;
        # a batch of clouds shares a call, so count the points binned.
        calls = {"voxel_indices": 0, "metric_chamfer": 0}
        for module, name in ((expansion, "voxel_indices"), (bench, "metric_chamfer")):
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += len(args[1]) if _name == "voxel_indices" else 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        cfg = multi_config()
        tasks = sum(len(e.levels) for e in cfg.corruptions) * cfg.replicates
        rows = sweep_rows(cfg)
        points = sum(r.points_in + r.points_out for r in rows if r.pipeline == "raw")
        assert calls == {"voxel_indices": points, "metric_chamfer": tasks}

    @pytest.mark.parametrize("pipelines, passes", [(PIPELINES, 2), (("raw",), 0)])
    def test_one_entry_pass_per_cloud(self, monkeypatch, pipelines, passes):
        # The planar and isotropic deposits share one pass; raw sums are binned.
        # A batch of clouds shares a pass, so count the clouds in each.
        calls = []
        original = expansion._entries

        def counted(key, z, groups, which, rank, nz):
            # rank has one (x, y) slab of columns per cloud of the pass.
            calls.append(len(np.unique(key // rank[0].size)))
            return original(key, z, groups, which, rank, nz)

        monkeypatch.setattr(expansion, "_entries", counted)
        cfg = multi_config(pipelines=pipelines)
        tasks = sum(len(e.levels) for e in cfg.corruptions) * cfg.replicates
        sweep_rows(cfg)
        assert sum(calls) == passes * tasks

    def test_voxelize_builds_no_kernel_and_no_entries(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("voxelize must bin points directly")

        monkeypatch.setattr(expansion, "_entries", forbidden)
        monkeypatch.setattr(expansion, "build_kernel", forbidden)
        cloud = border_cloud(37)
        grid = voxelize(cloud, small_grid())
        assert grid.count.sum() + grid.out_of_range == len(cloud)

    def test_box_mask_built_once_per_task(self):
        bench._planar_box_mask.cache_clear()
        cfg = multi_config()
        tasks = sum(len(e.levels) for e in cfg.corruptions) * cfg.replicates
        sweep_rows(cfg)
        info = bench._planar_box_mask.cache_info()
        # metric_snr builds it for a task's first pipeline and reuses it for the rest.
        assert (info.misses, info.hits) == (tasks, tasks * (len(cfg.pipelines) - 1))

    def test_box_mask_is_read_only_and_boxes_may_be_a_list(self):
        scene = gen_scene(SceneConfig(cluster_count=2), default_grid(), Rng(92))
        bev = pipeline_bev(scene.cloud, default_grid(), "raw")
        mask = bench._planar_box_mask(bev.shape, scene.boxes, default_grid())
        assert not mask.flags.writeable and mask.any()
        snr = metric_snr(bev, scene.boxes, default_grid())
        assert metric_snr(bev, list(scene.boxes), default_grid()) == snr
        assert metric_snr(bev, scene.boxes[:1], default_grid()) != snr


def dense_cloud(seed):
    """The sweep-dense scene: ten 200-point clusters and 1000 clutter points."""
    cfg = SceneConfig(cluster_count=10, points_per_cluster=200, noise_points=1000)
    return gen_scene(cfg, default_grid(), Rng(seed)).cloud


def uniform_cloud(seed, n):
    """Points over the default grid, some past its z-range."""
    gen = np.random.default_rng(seed)
    xyz = gen.uniform([-51.2, -51.2, -5.5], [51.2, 51.2, 3.5], size=(n, 3))
    return PointCloud(data=np.column_stack([xyz, gen.uniform(-5, 20, (n, 2))]))


def all_bevs(cloud, spec, weights):
    """Every pipeline's BEV of a cloud from one residual_columns deposit."""
    params = kernel_params_for_cloud(cloud, weights)
    return dict(zip(PIPELINES, one_cloud_bevs(cloud, spec, params, [PLANAR_XY, ISOTROPIC_3D])))


def oracle_bevs(cloud, spec, weights):
    """Each pipeline's BEV from dense grids: voxelize, expand, merge, project."""
    base = voxelize(cloud, spec)
    params = kernel_params_for_cloud(cloud, weights)
    bevs = {"raw": bev_project(base)}
    for pipeline, mode in (("3dge_planar", PLANAR_XY), ("3dge_isotropic", ISOTROPIC_3D)):
        bevs[pipeline] = bev_project(merge_residual(base, expand(cloud, spec, params, mode)))
    return bevs


ORACLE_CLOUDS = {
    **{f"scripted-{seed}": (lambda seed=seed: scripted_scene(seed).cloud) for seed in range(20)},
    "dense": lambda: dense_cloud(93),
    "border": lambda: border_cloud(94),
    "empty": lambda: PointCloud(data=np.empty((0, 5))),
    "outside": lambda: PointCloud(data=border_cloud(95).data + [9.5, 0, 0, 0, 0]),
}


class TestBevsFromEntries:
    @pytest.mark.parametrize("source", ["heuristic", "learned"])
    @pytest.mark.parametrize("name", ORACLE_CLOUDS)
    def test_bytes_equal_dense_grid_pipeline(self, name, source):
        cloud = ORACLE_CLOUDS[name]()
        spec = small_grid() if name in ("border", "outside") else default_grid()
        weights = learned_weights(96) if source == "learned" else None
        want = oracle_bevs(cloud, spec, weights)
        got = all_bevs(cloud, spec, weights)
        assert got.keys() == want.keys()
        for pipeline, bev in got.items():
            assert bev.shape == spec.cells[:2] and bev.dtype == np.float64
            assert bev.tobytes() == want[pipeline].tobytes(), pipeline
        for pipeline in PIPELINES:
            alone = pipeline_bev(cloud, spec, pipeline, weights)
            assert alone.tobytes() == want[pipeline].tobytes(), pipeline
        if name == "outside":
            assert voxelize(cloud, spec).out_of_range == len(cloud) and not any(
                bev.any() for bev in got.values()
            )

    # As above, with the heuristic's kernels of sides 5, 3 and 1.
    @pytest.mark.parametrize("block", [1, 7, 64, 1000])
    def test_block_size_does_not_change_the_bevs(self, monkeypatch, block):
        cloud = border_cloud(97, n=150)
        whole = all_bevs(cloud, small_grid(), None)
        monkeypatch.setattr(expansion, "DEPOSIT_BLOCK_ENTRIES", block)
        blocked = all_bevs(cloud, small_grid(), None)
        for pipeline in PIPELINES:
            assert blocked[pipeline].tobytes() == whole[pipeline].tobytes()

    def test_entry_blocks_are_bounded_by_entries(self, monkeypatch):
        # 3000 side-5 kernels inside the grid make 375,000 entries, which must
        # go in blocks of at most 16,384, whatever the point count.
        gen = np.random.default_rng(99)
        xyz = gen.uniform([-40.0, -40.0, -1.9], [40.0, 40.0, -0.1], size=(3000, 3))
        cloud = PointCloud(data=np.column_stack([xyz, gen.uniform(-5, 20, (3000, 2))]))
        params = kernel_params(np.full(len(cloud), 5), 1.0)
        blocks = []
        original = expansion._entries

        def recorded(*args):
            for block in original(*args):
                blocks.append(len(block[0]))
                yield block

        monkeypatch.setattr(expansion, "_entries", recorded)
        one_cloud_bevs(cloud, default_grid(), params, EXPONENT_MODES)
        assert sum(blocks) == 125 * len(cloud)
        assert max(blocks) <= 16384

    def test_peak_memory_bounded_at_100k_points(self):
        cloud = uniform_cloud(98, 100_000)
        tracemalloc.start()
        try:
            all_bevs(cloud, default_grid(), None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The dense-grid pipeline (voxelize, expand, merge, project) peaked at
        # 37.2 MiB on this cloud; entry blocks and RCS-only sums must stay below.
        assert peak < 32 * 2**20

    def test_small_cloud_builds_no_dense_grid(self):
        # One float64 grid of the default spec is 1 MiB. Summing into tables of
        # the reachable columns instead kept the 80-point scene at 907 KiB with
        # every pipeline (3.7 MiB with dense sums), so no task frees and refaults
        # megabyte grids.
        scene = scripted_scene(3)
        tracemalloc.start()
        try:
            all_bevs(scene.cloud, default_grid(), None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def batch_cloud(seed, n, kind):
    """n points over small_grid() and past it, and kernel params of one kind."""
    gen = np.random.default_rng(seed)
    xyz = gen.uniform(-2.0, 10.0, (n, 3))
    cloud = PointCloud(data=np.column_stack([xyz, gen.uniform(-5, 20, (n, 2))]))
    params = {
        "heuristic": lambda: heuristic_kernel_params(cloud),
        "unit": lambda: kernel_params(np.ones(n, np.int64), 1.0 / 3.0),
        "wide": lambda: kernel_params(np.full(n, 5), gen.uniform(0.2, 3.0, n)),
        "mixed": lambda: mixed_params(seed, n),
        "learned": lambda: project_params(cloud.rcs, cloud.v, learned_weights(seed)),
    }[kind]()
    return cloud, params


BATCH_KINDS = ("heuristic", "unit", "wide", "mixed", "learned")


class TestBatchedDeposit:
    @given(
        specs=st.lists(
            st.tuples(st.integers(0, 2**16), st.integers(0, 40), st.sampled_from(BATCH_KINDS)),
            min_size=1,
            max_size=6,
        ),
        modes=st.sampled_from([(), (PLANAR_XY,), (ISOTROPIC_3D,), EXPONENT_MODES]),
        bound=st.integers(0, 300),
    )
    @example(
        specs=[(1, 30, "unit"), (2, 30, "wide"), (3, 0, "wide")], modes=EXPONENT_MODES, bound=300
    )
    @settings(max_examples=80, deadline=None)
    def test_a_pass_equals_each_cloud_alone_however_cut(self, specs, modes, bound):
        # Empty clouds, points past the grid, unit kernels beside side-5 ones and
        # learned params; the bound cuts the list from one cloud a pass to one pass.
        clouds, params = zip(*(batch_cloud(*spec) for spec in specs))
        alone = [one_cloud_bevs(c, small_grid(), p, modes) for c, p in zip(clouds, params)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(expansion, "DEPOSIT_BATCH_POINTS", bound)
            columns = list(residual_columns(clouds, small_grid(), params, modes))
        assert len(columns) == len(clouds)
        for (cols, amps), want in zip(columns, alone):
            assert amps.shape == (1 + len(modes), len(cols))
            got = column_bevs(small_grid(), cols, amps)
            assert [b.tobytes() for b in got] == [b.tobytes() for b in want]

    def test_a_pass_holds_at_most_16_clouds_and_a_larger_cloud_alone(self, monkeypatch):
        passes = []
        original = expansion._summed

        def counted(clouds, *args):
            passes.append(len(clouds))
            return original(clouds, *args)

        monkeypatch.setattr(expansion, "_summed", counted)
        bound = expansion.DEPOSIT_BATCH_POINTS
        sizes = [0] * 20 + [bound + 1] + [bound // 2] * 3
        clouds = [uniform_cloud(seed, n) for seed, n in enumerate(sizes)]
        params = [heuristic_kernel_params(c) for c in clouds]
        assert len(list(residual_columns(clouds, default_grid(), params, (PLANAR_XY,)))) == 24
        assert passes == [16, 4, 1, 2, 1]

    def test_peak_memory_of_a_full_pass(self):
        # The most clouds one pass takes, each of 1/16 of the bound spread over
        # the grid, with the widest kernels and both modes: 7.0 MiB measured
        # (a 3k-point cloud alone peaks at about 3.8 MiB).
        n = expansion.DEPOSIT_BATCH_POINTS // 16
        clouds = [uniform_cloud(seed, n) for seed in range(16)]
        params = [kernel_params(np.full(n, 5), 1.0)] * 16
        tracemalloc.start()
        try:
            columns = list(residual_columns(clouds, default_grid(), params, EXPONENT_MODES))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(columns) == 16
        assert peak < 8 * 2**20


def full_box_mask(boxes, spec):
    """Every grid cell center tested against every box."""
    nx, ny, _ = spec.cells
    csx, csy, _ = spec.cell_sizes
    centers_x = spec.x_range[0] + (np.arange(nx) + 0.5) * csx
    centers_y = spec.y_range[0] + (np.arange(ny) + 0.5) * csy
    mask = np.zeros((nx, ny), dtype=bool)
    for box in boxes:
        mask |= in_box_footprint(centers_x[:, None], centers_y[None, :], box)
    return mask


side = st.one_of(st.floats(0.01, 40.0), st.floats(1e300, 1e308))
boxes = st.builds(
    BoxAnnotation,
    center=st.tuples(st.floats(-70.0, 70.0), st.floats(-70.0, 70.0), st.floats(-5.0, 5.0)),
    size=st.tuples(side, side, st.floats(0.1, 5.0)),
    yaw=st.floats(-math.pi, math.pi),
)


class TestWindowedBoxMask:
    # Boxes with any yaw, across the grid's edges, wholly off it, or huge.
    @given(boxes=st.lists(boxes, min_size=1, max_size=3), small=st.booleans())
    @example(boxes=[BoxAnnotation((100.0, 0.0, 0.0), (4.0, 4.0, 2.0), 0.3)], small=False)
    @example(boxes=[BoxAnnotation((51.0, -51.0, 0.0), (4.0, 1.0, 2.0), -2.0)], small=False)
    @settings(max_examples=150, deadline=None)
    def test_equals_a_full_grid_evaluation(self, boxes, small):
        spec = small_grid() if small else default_grid()
        want = full_box_mask(boxes, spec)
        build = bench._planar_box_mask.__wrapped__
        if not want.any():
            with pytest.raises(ValueError, match="no grid cells fall inside the boxes"):
                build(spec.cells[:2], tuple(boxes), spec)
        else:
            assert np.array_equal(build(spec.cells[:2], tuple(boxes), spec), want)


class TestChamferBlocks:
    @staticmethod
    def one_shot(a, b):
        diff = a.xyz[:, None, :] - b.xyz[None, :, :]
        dist = np.sqrt((diff * diff).sum(axis=2))
        return float(0.5 * (dist.min(axis=1).mean() + dist.min(axis=0).mean()))

    @pytest.mark.parametrize("block", [1, 7, 1000, 1 << 18])
    @pytest.mark.parametrize("n, m", [(1, 1), (1, 9), (9, 1), (37, 41), (300, 310)])
    def test_blocked_equals_one_shot(self, monkeypatch, block, n, m):
        gen = np.random.default_rng(n * 1000 + m)
        a = PointCloud(data=gen.normal(scale=20.0, size=(n, 5)))
        b = PointCloud(data=gen.normal(scale=20.0, size=(m, 5)))
        monkeypatch.setattr(bench, "CHAMFER_BLOCK", block)
        assert metric_chamfer(a, b) == self.one_shot(a, b)

    def test_peak_memory_bounded_at_2000_by_2000(self):
        gen = np.random.default_rng(38)
        a = PointCloud(data=gen.normal(size=(2000, 5)))
        b = PointCloud(data=gen.normal(size=(2000, 5)))
        tracemalloc.start()
        try:
            metric_chamfer(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


extreme = st.one_of(
    st.floats(min_value=1e300, max_value=1.7976931348623157e308),
    st.floats(min_value=-1.7976931348623157e308, max_value=-1e300),
)


class TestGridEdges:
    @given(coord=extreme, axis=st.integers(0, 2), inside=st.floats(-2.0, 2.0))
    @settings(max_examples=100, deadline=None)
    def test_extreme_finite_coordinates_masked_without_warning(self, coord, axis, inside):
        spec = default_grid()
        xyz = np.full((2, 3), inside)
        xyz[0, axis] = coord
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mask, ix, iy, iz = voxel_indices(spec, xyz)
            # The in-range row bins as it does on its own.
            _, jx, jy, jz = voxel_indices(spec, xyz[1:])
        assert (ix[1], iy[1], iz[1]) == (jx[0], jy[0], jz[0])
        assert mask.tolist() == [False, True]

    @given(
        coords=st.lists(
            st.tuples(
                st.one_of(extreme, st.floats(60.0, 1e6), st.floats(-1e6, -60.0)),
                st.floats(-40.0, 40.0),
                st.floats(-4.0, 2.0),
            ),
            max_size=12,
        ),
        mode=st.sampled_from(["heuristic", "learned"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_empty_and_outside_clouds_run_every_pipeline(self, coords, mode):
        spec = default_grid()
        data = np.array([[x, y, z, 1.0, 0.5] for x, y, z in coords]).reshape(-1, 5)
        cloud = PointCloud(data=data)
        weights = learned_weights(39) if mode == "learned" else None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert voxelize(cloud, spec).out_of_range == len(cloud)
            for pipeline in PIPELINES:
                bev = pipeline_bev(cloud, spec, pipeline, weights)
                assert bev.shape == spec.cells[:2] and not bev.any()
