"""Harness tests: scene generation, metrics, sweeps, CLI round trips."""

import json
import math

import numpy as np
import pytest

from rcbench.bench import (
    ConfigError,
    SceneConfig,
    SweepConfig,
    SweepEntry,
    default_sweep_config,
    emit_heatmap,
    gen_manifest,
    gen_scene,
    metric_chamfer,
    metric_peak,
    metric_snr,
    pipeline_bev,
    run_sweep,
    scripted_scene,
    sweep_config_from_json_dict,
    sweep_config_to_json_dict,
    write_report_csv,
)
from rcbench.cli import main
from rcbench.core import (
    BoxAnnotation,
    PointCloud,
    Rng,
    default_grid,
    derive64,
    points_in_box_mask,
    read_point_cloud_csv,
)
from rcbench.corruption import CorruptionKind, CorruptionSpec, apply_corruption


class TestGenScene:
    def test_counts_and_annotations(self):
        scene = gen_scene(SceneConfig(), default_grid(), Rng(1))
        assert len(scene.cloud) == 80
        assert len(scene.boxes) == 1
        box = scene.boxes[0]
        assert box.size == (4.0, 4.0, 2.0)

    def test_cluster_points_inside_their_box(self):
        scene = scripted_scene(5)
        box = scene.boxes[0]
        # Cluster points come first.
        assert points_in_box_mask(scene.cloud.xyz[:30], box).all()

    def test_same_seed_is_bit_identical(self):
        a = gen_scene(SceneConfig(), default_grid(), Rng(9))
        b = gen_scene(SceneConfig(), default_grid(), Rng(9))
        assert np.array_equal(a.cloud.data, b.cloud.data)
        assert a.boxes == b.boxes

    def test_scripted_scene_is_anchored(self):
        scene = scripted_scene(2)
        assert scene.boxes[0].center == (10.0, 5.0, 0.0)


class TestMetricSnr:
    def test_uniform_heatmap_gives_unity(self):
        grid = default_grid()
        boxes = (BoxAnnotation(center=(0, 0, 0), size=(8, 8, 2), yaw=0.0),)
        bev = np.full(grid.cells[:2], 3.7)
        assert metric_snr(bev, boxes, grid) == pytest.approx(1.0)

    def test_in_box_only_signal_is_infinite(self):
        grid = default_grid()
        boxes = (BoxAnnotation(center=(0, 0, 0), size=(8, 8, 2), yaw=0.0),)
        bev = np.zeros(grid.cells[:2])
        bev[64, 64] = 5.0  # cell center (0.4, 0.4) lies in the box
        assert metric_snr(bev, boxes, grid) == math.inf

    def test_matches_two_pass_oracle(self):
        grid = default_grid()
        scene = scripted_scene(11)
        bev = pipeline_bev(scene.cloud, grid, "3dge_planar")
        got = metric_snr(bev, scene.boxes, grid)

        # Straight-line two-pass re-computation over explicit cell centers.
        nx, ny = bev.shape
        csx, csy, _ = grid.cell_sizes
        in_vals, out_vals = [], []
        box = scene.boxes[0]
        for i in range(nx):
            for j in range(ny):
                cx = grid.x_range[0] + (i + 0.5) * csx
                cy = grid.y_range[0] + (j + 0.5) * csy
                dx, dy = cx - box.center[0], cy - box.center[1]
                c, s = math.cos(box.yaw), math.sin(box.yaw)
                inside = (
                    abs(c * dx + s * dy) <= box.size[0] / 2
                    and abs(-s * dx + c * dy) <= box.size[1] / 2
                )
                a = abs(bev[i, j])
                if inside:
                    in_vals.append(a)
                elif a > 0:
                    out_vals.append(a)
        expected = np.mean(in_vals) / np.mean(out_vals)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_no_boxes_rejected(self):
        with pytest.raises(ValueError):
            metric_snr(np.ones((4, 4)), (), default_grid())


class TestMetricPeak:
    def test_identical_maps(self):
        bev = np.arange(12.0).reshape(3, 4)
        assert metric_peak(bev, bev) == (True, 0.0)

    def test_one_cell_apart(self):
        a = np.zeros((3, 4))
        b = np.zeros((3, 4))
        a[1, 1] = 1.0
        b[1, 2] = 1.0
        consistent, l2 = metric_peak(a, b)
        assert consistent is False
        assert l2 == pytest.approx(1.0)

    def test_row_major_tie_break(self):
        a = np.zeros((3, 3))
        a[0, 1] = a[2, 2] = 5.0  # tie: first occurrence wins
        consistent, _ = metric_peak(a, a)
        assert consistent is True

    def test_scripted_scene_spurious_peak_survives_expansion(self):
        # Typical-case behavior (holds for ~97% of corruption draws on
        # this scene); the acceptance suite measures the full rate.
        grid = default_grid()
        scene = scripted_scene(0)
        clean_bev = pipeline_bev(scene.cloud, grid, "3dge_planar")
        for rep in range(5):
            spec = CorruptionSpec(
                kind=CorruptionKind.SPURIOUS_POINTS,
                seed=derive64(scene.seed, 1, rep),
                sigma=5.0,
            )
            corrupted = apply_corruption(scene.cloud, spec, bounds=grid)
            processed = pipeline_bev(corrupted, grid, "3dge_planar")
            consistent, l2 = metric_peak(clean_bev, processed)
            assert consistent and l2 == 0.0


class TestMetricChamfer:
    def test_identical_clouds(self):
        cloud = PointCloud(data=np.random.default_rng(0).normal(size=(20, 5)))
        assert metric_chamfer(cloud, cloud) == 0.0

    def test_single_points_at_distance(self):
        a = PointCloud(data=np.array([[0.0, 0.0, 0.0, 1.0, 0.0]]))
        b = PointCloud(data=np.array([[3.0, 4.0, 0.0, 9.0, 9.0]]))
        assert metric_chamfer(a, b) == pytest.approx(5.0)

    def test_matches_double_loop_oracle(self):
        gen = np.random.default_rng(3)
        a = PointCloud(data=gen.normal(size=(50, 5)))
        b = PointCloud(data=gen.normal(size=(40, 5)))
        got = metric_chamfer(a, b)
        fwd = [min(math.dist(p[:3], q[:3]) for q in b.data) for p in a.data]
        rev = [min(math.dist(q[:3], p[:3]) for p in a.data) for q in b.data]
        expected = 0.5 * (np.mean(fwd) + np.mean(rev))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_empty_cloud_rejected(self):
        a = PointCloud(data=np.empty((0, 5)))
        b = PointCloud(data=np.zeros((1, 5)))
        with pytest.raises(ValueError):
            metric_chamfer(a, b)


def tiny_config(**overrides):
    kwargs = dict(
        scene=SceneConfig(),
        corruptions=(
            SweepEntry(kind=CorruptionKind.SPURIOUS_POINTS, levels=(5.0,)),
        ),
        pipelines=("raw", "3dge_planar"),
        replicates=1,
        master_seed=77,
    )
    kwargs.update(overrides)
    return SweepConfig(**kwargs)


class TestRunSweep:
    def test_row_count_one_per_combination(self):
        rows, _ = run_sweep(tiny_config())
        assert len(rows) == 2
        assert [r.pipeline for r in rows] == ["raw", "3dge_planar"]

    def test_raw_pipeline_has_equal_before_after(self):
        rows, _ = run_sweep(tiny_config())
        raw = rows[0]
        assert raw.snr_before == raw.snr_after
        assert raw.points_in == 80 and raw.points_out == 96

    def test_rows_and_csv_are_deterministic(self, tmp_path):
        cfg = tiny_config(replicates=2)
        rows1, _ = run_sweep(cfg)
        rows2, _ = run_sweep(cfg)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_report_csv(rows1, p1)
        write_report_csv(rows2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_error_rows_do_not_abort_sweep(self, tmp_path):
        # Dropping all 32 beams empties the cloud; chamfer then fails and
        # the row must carry an error marker while the sweep continues.
        cfg = tiny_config(
            corruptions=(
                SweepEntry(kind=CorruptionKind.BEAM_DROP, levels=(32,)),
                SweepEntry(kind=CorruptionKind.POINT_SHIFTING, levels=(1.0,)),
            ),
        )
        rows, _ = run_sweep(cfg)
        assert len(rows) == 4
        assert rows[0].error is not None
        assert rows[2].error is None
        path = tmp_path / "report.csv"
        write_report_csv(rows, path)
        lines = path.read_text().splitlines()
        assert "ERROR" in lines[1]

    def test_heatmaps_collected_on_request(self):
        rows, maps = run_sweep(tiny_config(), want_heatmaps=True)
        assert len(maps) == 4  # processed + clean per row
        for arr in maps.values():
            assert arr.shape == (128, 128)

    def test_parallel_matches_serial(self):
        cfg = tiny_config(replicates=2)
        rows_serial, maps_s = run_sweep(cfg, jobs=1, want_heatmaps=True)
        rows_parallel, maps_p = run_sweep(cfg, jobs=2, want_heatmaps=True)
        assert len(rows_serial) == len(rows_parallel)
        # wall_ms is measured, so compare every other field.
        for a, b in zip(rows_serial, rows_parallel):
            assert (a.kind, a.level, a.replicate, a.pipeline) == (
                b.kind,
                b.level,
                b.replicate,
                b.pipeline,
            )
            assert a.snr_after == b.snr_after
            assert a.peak_l2_cells == b.peak_l2_cells
        assert sorted(maps_s) == sorted(maps_p)
        for key in maps_s:
            assert np.array_equal(maps_s[key], maps_p[key])

    @pytest.mark.parametrize(
        "jobs, replicates, cpus, want",
        [
            (10_000, 2, 4, 2),
            (10_000, 4, 2, 2),
            (2, 4, 2, 2),
            (3, 8, 16, 3),
            (4, 4, 1, None),
        ],
    )
    def test_jobs_clamped_to_tasks_and_cpus(
        self, monkeypatch, jobs, replicates, cpus, want
    ):
        """The pool never gets more workers than tasks or CPUs; one CPU runs serially."""
        started = []

        class FakePool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr("rcbench.bench.ProcessPoolExecutor", FakePool)
        monkeypatch.setattr("rcbench.bench.os.cpu_count", lambda: cpus)
        rows, _ = run_sweep(tiny_config(replicates=replicates), jobs=jobs)
        assert started == ([] if want is None else [want])
        assert len(rows) == 2 * replicates


class TestEmitHeatmap:
    def test_quantization_example(self, tmp_path):
        path = tmp_path / "map.pgm"
        emit_heatmap(np.array([[0.0, 1.0], [2.0, 4.0]]), path)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n2 2\n255\n")
        assert list(raw[-4:]) == [0, 63, 127, 255]

    def test_all_zero_map(self, tmp_path):
        path = tmp_path / "zero.pgm"
        emit_heatmap(np.zeros((3, 3)), path)
        assert path.read_bytes()[-9:] == bytes(9)

    def test_round_trip_reproduces_quantized_values(self, tmp_path):
        from rcbench.imaging import read_pnm

        gen = np.random.default_rng(4)
        bev = gen.uniform(0, 9, size=(6, 7))
        path = tmp_path / "rt.pgm"
        emit_heatmap(bev, path)
        back = read_pnm(path) * 255.0
        expected = np.floor((bev - bev.min()) * 255.0 / (bev.max() - bev.min()))
        np.testing.assert_allclose(back, expected, atol=1e-9)


class TestMonotoneDegradation:
    def test_peak_displacement_grows_with_shift_severity(self):
        """Without expansion, mean argmax displacement is non-decreasing
        in the shift severity."""
        grid = default_grid()
        cfg = SceneConfig()
        means = []
        for sigma in (1.0, 5.0, 10.0, 25.0):
            total = 0.0
            for rep in range(50):
                seed = derive64(31, int(sigma * 8), rep)
                scene = gen_scene(cfg, grid, Rng(seed))
                spec = CorruptionSpec(
                    kind=CorruptionKind.POINT_SHIFTING, seed=derive64(seed, 1), sigma=sigma
                )
                corrupted = apply_corruption(scene.cloud, spec, bounds=grid)
                clean_bev = pipeline_bev(scene.cloud, grid, "raw")
                corrupted_bev = pipeline_bev(corrupted, grid, "raw")
                total += metric_peak(clean_bev, corrupted_bev)[1]
            means.append(total / 50)
        assert all(b >= a for a, b in zip(means, means[1:]))


class TestExpansionBenefit:
    def test_mean_snr_improves_for_spurious_at_every_level(self):
        """Default-config C1 sweep, 100 replicates per level: the expanded
        pipeline never lowers the mean in/out amplitude ratio."""
        cfg = SweepConfig(
            corruptions=(
                SweepEntry(kind=CorruptionKind.SPURIOUS_POINTS, levels=(3.0, 5.0)),
            ),
            pipelines=("3dge_planar",),
            replicates=100,
            master_seed=5,
        )
        rows, _ = run_sweep(cfg)
        assert len(rows) == 200
        for level in (3.0, 5.0):
            level_rows = [r for r in rows if r.level == level]
            assert len(level_rows) == 100
            before = np.mean([r.snr_before for r in level_rows])
            after = np.mean([r.snr_after for r in level_rows])
            assert after >= before


class TestThroughput:
    def test_default_sweep_completes_within_budget(self):
        import time

        started = time.perf_counter()
        rows, _ = run_sweep(default_sweep_config())
        elapsed = time.perf_counter() - started
        assert len(rows) == 160  # 4 kinds x 2 levels x 10 replicates x 2 pipelines
        assert all(r.error is None for r in rows)
        assert elapsed < 60.0


class TestSweepConfigJson:
    def test_default_sweep_levels(self):
        cfg = default_sweep_config()
        by_kind = {e.kind: e.levels for e in cfg.corruptions}
        assert by_kind[CorruptionKind.SPURIOUS_POINTS] == (3.0, 5.0)
        assert by_kind[CorruptionKind.NON_POSITIONAL_DISTURBANCE] == (3.0, 5.0)
        assert by_kind[CorruptionKind.BEAM_DROP] == (10.0, 14.0)
        assert by_kind[CorruptionKind.POINT_SHIFTING] == (3.0, 5.0)
        assert cfg.pipelines == ("raw", "3dge_planar")
        assert cfg.total_beams == 32

    def test_default_round_trip(self):
        cfg = default_sweep_config()
        payload = sweep_config_to_json_dict(cfg)
        assert sweep_config_from_json_dict(payload) == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config"):
            sweep_config_from_json_dict({"replicates": 1, "bogus": 2})

    def test_unknown_scene_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown scene"):
            sweep_config_from_json_dict({"scene": {"clusters": 1}})

    def test_bad_pipeline_rejected(self):
        with pytest.raises(ConfigError, match="pipeline"):
            sweep_config_from_json_dict({"pipelines": ["raw", "magic"]})

    def test_weights_mode_requires_path(self):
        with pytest.raises(ConfigError, match="weights"):
            sweep_config_from_json_dict({"projector": "weights-file"})

    def test_beam_levels_must_be_integral(self):
        with pytest.raises(ConfigError, match="integer"):
            sweep_config_from_json_dict(
                {"corruptions": [{"kind": "BeamDrop", "levels": [2.5]}]}
            )


class TestManifest:
    def test_clean_ratio_is_exact(self):
        rows = gen_manifest(100, 0.8, master_seed=3)
        groups = [r.group for r in rows]
        assert groups.count("clean") == 80
        assert groups.count("noisy") == 20

    def test_noisy_rows_have_kind_and_level(self):
        rows = gen_manifest(50, 0.8, master_seed=4)
        for row in rows:
            if row.group == "noisy":
                assert row.kind in {
                    "SpuriousPoints",
                    "NonPositionalDisturbance",
                    "KeyPointMissing",
                    "PointShifting",
                }
                if row.kind == "KeyPointMissing":
                    assert 1 <= row.level <= 16
                else:
                    assert 1.0 <= row.level <= 50.0
            else:
                assert row.kind is None

    def test_deterministic(self):
        assert gen_manifest(40, 0.8, master_seed=5) == gen_manifest(40, 0.8, master_seed=5)


class TestCli:
    def test_gen_scene_then_corrupt_round_trip(self, tmp_path):
        scene_csv = tmp_path / "scene.csv"
        assert main(["gen-scene", "--seed", "3", "--out", str(scene_csv)]) == 0
        assert scene_csv.exists()
        assert (tmp_path / "scene_boxes.csv").exists()
        out_csv = tmp_path / "noisy.csv"
        code = main(
            [
                "corrupt",
                "--kind",
                "c1",
                "--level",
                "5",
                "--seed",
                "4",
                "--in",
                str(scene_csv),
                "--out",
                str(out_csv),
            ]
        )
        assert code == 0
        assert len(read_point_cloud_csv(out_csv)) == 96

    def test_run_writes_report(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "corruptions": [{"kind": "PointShifting", "levels": [5]}],
                    "pipelines": ["raw"],
                    "replicates": 1,
                    "master_seed": 8,
                }
            )
        )
        out_dir = tmp_path / "out"
        code = main(
            ["run", "--config", str(cfg_path), "--out-dir", str(out_dir), "--emit-heatmaps"]
        )
        assert code == 0
        report = (out_dir / "report.csv").read_text().splitlines()
        assert report[0].startswith("kind,level,replicate,pipeline")
        assert len(report) == 2
        assert len(list((out_dir / "heatmaps").glob("*.pgm"))) == 2

    def test_bad_config_is_exit_1(self, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text("{not json")
        assert main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 1

    def test_unknown_kind_is_exit_1(self, tmp_path):
        src = tmp_path / "x.csv"
        main(["gen-scene", "--seed", "1", "--out", str(src)])
        code = main(
            [
                "corrupt",
                "--kind",
                "hail",
                "--level",
                "1",
                "--seed",
                "0",
                "--in",
                str(src),
                "--out",
                str(tmp_path / "y.csv"),
            ]
        )
        assert code == 1

    def test_infeasible_keypoint_count_is_exit_1(self, tmp_path):
        src = tmp_path / "x.csv"
        main(["gen-scene", "--seed", "1", "--out", str(src)])
        code = main(
            [
                "corrupt",
                "--kind",
                "keypoint",
                "--level",
                "100000",
                "--seed",
                "0",
                "--in",
                str(src),
                "--out",
                str(tmp_path / "y.csv"),
            ]
        )
        assert code == 1

    def test_missing_input_is_exit_2(self, tmp_path):
        code = main(
            [
                "corrupt",
                "--kind",
                "c4",
                "--level",
                "1",
                "--seed",
                "0",
                "--in",
                str(tmp_path / "nope.csv"),
                "--out",
                str(tmp_path / "y.csv"),
            ]
        )
        assert code == 2

    def test_usage_error_is_exit_1(self):
        assert main(["run"]) == 1

    def test_gen_manifest_cli(self, tmp_path):
        out = tmp_path / "manifest.csv"
        assert main(["gen-manifest", "--out", str(out), "--count", "10"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "scene_id,group,kind,level,seed"
        assert len(lines) == 11
