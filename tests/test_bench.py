"""Harness tests: scene generation, metrics, sweeps, CLI round trips."""

import functools
import hashlib
import itertools
import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing.connection import wait
from pathlib import Path

import numpy as np
import pytest

import rcbench.bench as bench
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
    pgm_bytes,
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
    GridSpec,
    PointCloud,
    Rng,
    default_grid,
    derive64,
    points_in_any_box_mask,
    points_in_box_mask,
    read_point_cloud_csv,
)
from rcbench.corruption import CorruptionKind, CorruptionSpec, apply_corruption
from rcbench.expansion import PROJECTOR_HIDDEN, ProjectorWeights, save_projector_weights


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

    @pytest.mark.parametrize("yaw", [0.0, math.pi, -math.pi, math.pi / 2, 0.7, -2.3])
    def test_box_mask_is_the_point_test_on_cell_centres(self, yaw):
        # 1 m cells: at yaw 0 every box edge runs through a row of cell centres,
        # and at yaw +-pi sin(yaw) nudges those centres to either side.
        grid = GridSpec(x_range=(0, 8), y_range=(0, 6), z_range=(-1, 1), cells=(8, 6, 1))
        boxes = (
            BoxAnnotation(center=(3.5, 2.5, 0.0), size=(2.0, 4.0, 2.0), yaw=yaw),
            BoxAnnotation(center=(6.0, 4.0, 0.0), size=(3.0, 1.0, 1.0), yaw=-yaw),
        )
        mask = bench._planar_box_mask((8, 6), boxes, grid)
        cx, cy = np.meshgrid(np.arange(8) + 0.5, np.arange(6) + 0.5, indexing="ij")
        centres = np.column_stack([cx.ravel(), cy.ravel(), np.zeros(cx.size)])
        assert np.array_equal(mask.ravel(), points_in_any_box_mask(centres, boxes))
        if yaw == 0.0:
            # Corner centres are inside: 3 x 5 cells and 4 x 2 cells, 2 shared.
            assert mask[2, 0] and mask[4, 4] and mask[7, 3]
            assert mask.sum() == 21


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


def sweep_rows(cfg, **kwargs):
    """Every row of a run_sweep stream, in task order."""
    return [row for rows, _ in run_sweep(cfg, **kwargs) for row in rows]


def sweep_bevs(cfg):
    """A serial run_sweep's rows, and by heatmap name the float64 BEV that
    was passed to pgm_bytes for it; each heatmap must be that BEV's PGM."""
    captured = []

    def capture(bev):
        captured.append(bev)
        return pgm_bytes(bev)

    rows, names = [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bench, "pgm_bytes", capture)
        for task_rows, task_maps in run_sweep(cfg, want_heatmaps=True):
            rows += task_rows
            for name, pgm in task_maps.items():
                assert pgm == pgm_bytes(captured[len(names)]), name
                names.append(name)
    assert len(captured) == len(names)
    return rows, dict(zip(names, captured))


def float_bytes(bev):
    return np.asarray(bev, dtype=np.float64).tobytes()


@pytest.fixture
def forked_pool(monkeypatch, fresh_pool):
    """Make run_sweep's pool fork its workers, so they see this test's
    monkeypatches. Fork is not the default start method everywhere (Python
    3.14 starts Linux workers from a forkserver), and a spawned worker
    would import the unpatched module."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("needs the fork start method")
    forked = functools.partial(ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork"))
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", forked)


SRC = Path(__file__).resolve().parents[1] / "src"

# Every kind and pipeline, with heatmaps, on two forked workers. Prints the
# caller's pid, then per task the worker's pid and the modules it imported.
WORKER_IMPORTS_SCRIPT = """
import json, multiprocessing, os, sys
import rcbench.bench as bench
from rcbench.corruption import CorruptionKind

run_task = bench._run_task

def recording_task(*task):
    before = set(sys.modules)
    run_task(*task)
    return os.getpid(), sorted(set(sys.modules) - before)

multiprocessing.set_start_method("fork")
os.cpu_count = lambda: 2
bench._run_task = recording_task
levels = {CorruptionKind.BEAM_DROP: 10, CorruptionKind.KEY_POINT_MISSING: 5}
cfg = bench.SweepConfig(
    corruptions=tuple(
        bench.SweepEntry(kind=kind, levels=(levels.get(kind, 3.0),)) for kind in CorruptionKind
    ),
    pipelines=bench.PIPELINES,
    replicates=1,
)
print(json.dumps([os.getpid(), list(bench.run_sweep(cfg, jobs=2, want_heatmaps=True))]))
"""


class TestRunSweep:
    def test_row_count_one_per_combination(self):
        rows = sweep_rows(tiny_config())
        assert len(rows) == 2
        assert [r.pipeline for r in rows] == ["raw", "3dge_planar"]

    def test_raw_pipeline_has_equal_before_after(self):
        rows = sweep_rows(tiny_config())
        raw = rows[0]
        assert raw.snr_before == raw.snr_after
        assert raw.points_in == 80 and raw.points_out == 96

    def test_rows_and_csv_are_deterministic(self, tmp_path):
        cfg = tiny_config(replicates=2)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_report_csv(sweep_rows(cfg), p1)
        # The writer takes any iterable of rows, so a stream too.
        write_report_csv((r for rows, _ in run_sweep(cfg) for r in rows), p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "b.csv"]

    def test_error_rows_do_not_abort_sweep(self, tmp_path):
        # Dropping all 32 beams empties the cloud; chamfer then fails and
        # the row must carry an error marker while the sweep continues.
        cfg = tiny_config(
            corruptions=(
                SweepEntry(kind=CorruptionKind.BEAM_DROP, levels=(32,)),
                SweepEntry(kind=CorruptionKind.POINT_SHIFTING, levels=(1.0,)),
            ),
        )
        rows = sweep_rows(cfg)
        assert len(rows) == 4
        assert rows[0].error is not None
        assert rows[2].error is None
        path = tmp_path / "report.csv"
        write_report_csv(rows, path)
        lines = path.read_text().splitlines()
        assert "ERROR" in lines[1]

    def test_heatmaps_collected_on_request(self):
        assert all(not maps for _, maps in run_sweep(tiny_config()))
        ((_, maps),) = run_sweep(tiny_config(), want_heatmaps=True)
        rows, bevs = sweep_bevs(tiny_config())
        assert len(rows) == 2
        assert list(bevs) == list(maps) and len(maps) == 4  # processed + clean per row
        for name, bev in bevs.items():
            assert bev.shape == (128, 128) and bev.dtype == np.float64
            assert maps[name] == pgm_bytes(bev)
            assert maps[name].startswith(b"P5\n128 128\n255\n")

    def test_parallel_matches_serial(self, monkeypatch, forked_pool):
        cfg = tiny_config(replicates=2)
        # The forked workers return the float64 BEVs' bytes too.
        monkeypatch.setattr(bench, "pgm_bytes", float_bytes)
        serial = list(run_sweep(cfg, jobs=1, want_heatmaps=True))
        parallel = list(run_sweep(cfg, jobs=2, want_heatmaps=True))
        rows_serial = [r for rows, _ in serial for r in rows]
        rows_parallel = [r for rows, _ in parallel for r in rows]
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
        maps_s = [maps for _, maps in serial]
        maps_p = [maps for _, maps in parallel]
        assert [list(m) for m in maps_s] == [list(m) for m in maps_p]
        assert maps_s == maps_p
        for maps in maps_s:
            for key, raw in maps.items():
                assert len(raw) == 128 * 128 * 8, key

    @pytest.mark.parametrize(
        "jobs, replicates, cpus, want",
        [
            (10_000, 2, 4, 2),
            (10_000, 4, 2, 2),
            (2, 4, 2, 2),
            (3, 8, 16, 3),
            (4, 4, 1, None),
            (0, 2, 2, None),
        ],
    )
    def test_jobs_clamped_to_tasks_and_cpus(
        self, monkeypatch, fresh_pool, jobs, replicates, cpus, want
    ):
        """The pool never gets more workers than tasks or CPUs; one CPU runs serially."""
        started = []

        class FakePool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def shutdown(self):
                pass

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", FakePool)
        monkeypatch.setattr("rcbench.bench.os.cpu_count", lambda: cpus)
        rows = sweep_rows(tiny_config(replicates=replicates), jobs=jobs)
        assert started == ([] if want is None else [want])
        assert len(rows) == 2 * replicates

    def test_pool_workers_import_nothing_while_running_tasks(self):
        """Forked workers inherit every module a task needs from the caller.
        pytest's process has long imported numpy.random, so a fresh
        interpreter runs the sweep; fork carries its module-level wrapper of
        _run_task, which reports what each task imported, to the workers."""
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs the fork start method")
        result = subprocess.run(
            [sys.executable, "-c", WORKER_IMPORTS_SCRIPT],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        caller, tasks = json.loads(result.stdout)
        assert len(tasks) == 5
        assert all(pid != caller for pid, _ in tasks)
        assert [imported for _, imported in tasks] == [[]] * 5


class ReversePool:
    """A fake pool whose submitted tasks all finish, newest first, when any
    result is read; it counts futures submitted but not yet read."""

    def __init__(self, max_workers):
        self.workers = max_workers
        self.unfinished = []
        self.finished = []
        self.outstanding = 0
        self.most_outstanding = 0

    def shutdown(self):
        pass

    def submit(self, fn, *args):
        future = ReverseFuture(self, fn, args)
        self.unfinished.append(future)
        self.outstanding += 1
        self.most_outstanding = max(self.most_outstanding, self.outstanding)
        return future


class ReverseFuture:
    def __init__(self, pool, fn, args):
        self.pool, self.fn, self.args = pool, fn, args

    def result(self):
        while self.pool.unfinished:
            future = self.pool.unfinished.pop()
            future.value = future.fn(*future.args)
            self.pool.finished.append(future.args[3])  # the replicate
        self.pool.outstanding -= 1
        return self.value


RUN_TASK = bench._run_task


def fail_third_replicate(*args):
    """_run_task that raises on replicate 2; module-level, so a pool can pickle it."""
    if args[3] == 2:
        raise RuntimeError("task failed")
    return RUN_TASK(*args)


class TestSweepStream:
    def test_pool_yields_in_task_order_with_a_bounded_window(self, monkeypatch, fresh_pool):
        pools = []

        def make_pool(max_workers):
            pools.append(ReversePool(max_workers))
            return pools[-1]

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", make_pool)
        monkeypatch.setattr("rcbench.bench.os.cpu_count", lambda: 2)
        cfg = tiny_config(replicates=9)
        replicates = [rows[0].replicate for rows, _ in run_sweep(cfg, jobs=2)]
        (pool,) = pools
        assert replicates == list(range(9))
        assert sorted(pool.finished) == replicates and pool.finished != replicates
        assert pool.finished[:4] == [3, 2, 1, 0]
        assert pool.most_outstanding == 2 * pool.workers == 4
        assert pool.outstanding == 0

    def test_serial_stream_runs_a_task_only_when_asked(self, monkeypatch):
        calls = []
        original = bench._run_task

        def counted(*args):
            calls.append(args[3])
            return original(*args)

        monkeypatch.setattr(bench, "_run_task", counted)
        stream = run_sweep(tiny_config(replicates=3))
        assert calls == []
        next(stream)
        assert calls == [0]
        assert [rows[0].replicate for rows, _ in stream] == [1, 2]

    def test_bad_weights_raise_before_any_task_runs(self, tmp_path):
        cfg = tiny_config(projector_weights=str(tmp_path / "no.json"))
        for jobs in (1, 2):
            with pytest.raises(ConfigError, match="cannot load projector weights"):
                run_sweep(cfg, jobs=jobs)


# The file the tasks below write to; set before the pool forks its workers.
TASK_LOG = None


def logged_task(*args):
    """_run_task that logs "<master seed> <replicate>" to TASK_LOG when done.
    Module-level, so a pool can pickle it. It first sleeps, so that a task
    left running when its sweep closes still runs when the test reads the log."""
    time.sleep(0.05)
    result = RUN_TASK(*args)
    with open(TASK_LOG, "a") as log:
        log.write(f"{args[0].master_seed} {args[3]}\n")
    return result


def stream_bytes(stream, path):
    """The report.csv bytes of a run_sweep stream's rows, written to path,
    and its PGM heatmaps by name."""
    maps = {}

    def rows():
        for task_rows, task_maps in stream:
            maps.update(task_maps)
            yield from task_rows

    write_report_csv(rows(), path)
    return path.read_bytes(), maps


def sweep_bytes(cfg, jobs, tmp_path):
    """A sweep's report.csv bytes and its PGM heatmaps by name."""
    stream = run_sweep(cfg, jobs=jobs, want_heatmaps=True)
    return stream_bytes(stream, tmp_path / f"report-{jobs}.csv")


def exit_on_third_replicate(*args):
    """_run_task that logs its replicate to TASK_LOG, then ends its worker on
    replicate 2. Module-level, so a pool can pickle it."""
    with open(TASK_LOG, "a") as log:
        log.write(f"{args[3]}\n")
    if args[3] == 2:
        os._exit(1)
    return RUN_TASK(*args)


def stall_once_on_replicate_3(*args):
    """_run_task that, the first time any worker reaches replicate 3, writes
    the worker's pid to TASK_LOG and sleeps. Module-level, so a pool can
    pickle it."""
    if args[3] == 3 and not TASK_LOG.exists():
        TASK_LOG.write_text(str(os.getpid()))
        time.sleep(60)
    return RUN_TASK(*args)


def still_running(processes, timeout=60):
    """The sentinels of those processes that have not exited within timeout seconds."""
    sentinels = [p.sentinel for p in processes]
    deadline = time.monotonic() + timeout
    while sentinels and time.monotonic() < deadline:
        for ready in wait(sentinels, timeout=1):
            sentinels.remove(ready)
    return sentinels


def exited(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


# A pooled sweep on two workers that prints their pids and exits normally.
POOLED_EXIT_SCRIPT = """
import json, multiprocessing, os
import rcbench.bench as bench
from rcbench.corruption import CorruptionKind

os.cpu_count = lambda: 2
entry = bench.SweepEntry(kind=CorruptionKind.SPURIOUS_POINTS, levels=(5.0,))
list(bench.run_sweep(bench.SweepConfig(corruptions=(entry,), replicates=2), jobs=2))
print(json.dumps([p.pid for p in multiprocessing.active_children()]))
"""


class TestSharedPool:
    """Pooled sweeps in one process share one pool of workers."""

    def test_consecutive_sweeps_run_on_the_same_workers(self, tmp_path, monkeypatch, fresh_pool):
        monkeypatch.setattr("rcbench.bench.os.cpu_count", lambda: 2)
        workers = []
        for seed in (5, 6):
            cfg = tiny_config(replicates=4, master_seed=seed)
            assert sweep_bytes(cfg, 2, tmp_path) == sweep_bytes(cfg, 1, tmp_path)
            workers.append(sorted(p.pid for p in multiprocessing.active_children()))
        assert len(workers[0]) == 2 and os.getpid() not in workers[0]
        assert workers[1] == workers[0]

    def test_a_killed_worker_is_replaced(self, tmp_path, monkeypatch, fresh_pool):
        monkeypatch.setattr("rcbench.bench.os.cpu_count", lambda: 2)
        cfg = tiny_config(replicates=4)
        serial = sweep_bytes(cfg, 1, tmp_path)
        assert sweep_bytes(cfg, 2, tmp_path) == serial
        old = multiprocessing.active_children()
        os.kill(old[0].pid, signal.SIGKILL)
        # The pool marks itself broken before it stops its other worker, so
        # once both have exited the next sweep must find it broken.
        sentinels = still_running(old)
        assert sentinels == []
        assert sweep_bytes(cfg, 2, tmp_path) == serial
        new = {p.pid for p in multiprocessing.active_children()}
        assert len(new) == 2 and not new & {p.pid for p in old}

    def test_a_worker_killed_just_before_a_sweep_is_replaced(
        self, tmp_path, monkeypatch, fresh_pool
    ):
        """The next sweep starts before the pool can see the dead worker, so
        it may submit to the broken pool and must then run again."""
        monkeypatch.setattr("rcbench.bench.os.cpu_count", lambda: 2)
        cfg = tiny_config(replicates=4, master_seed=8)
        serial = sweep_bytes(cfg, 1, tmp_path)
        assert sweep_bytes(cfg, 2, tmp_path) == serial
        old = {p.pid for p in multiprocessing.active_children()}
        os.kill(min(old), signal.SIGKILL)
        assert sweep_bytes(cfg, 2, tmp_path) == serial
        new = {p.pid for p in multiprocessing.active_children()}
        assert len(new) == 2 and not new & old

    def test_a_worker_killed_mid_sweep_is_replaced(self, tmp_path, monkeypatch, forked_pool):
        """A reused pool that breaks after its sweep has yielded costs a rerun
        of the tasks not yet yielded, on a new pool."""
        cfg = tiny_config(replicates=9, master_seed=9)
        serial = sweep_bytes(cfg, 1, tmp_path)
        monkeypatch.setattr(sys.modules[__name__], "TASK_LOG", tmp_path / "stalled.pid")
        monkeypatch.setattr(bench, "_run_task", stall_once_on_replicate_3)
        monkeypatch.setattr("rcbench.bench.os.cpu_count", lambda: 2)
        list(run_sweep(tiny_config(replicates=2), jobs=2))
        old = multiprocessing.active_children()
        stream = run_sweep(cfg, jobs=2, want_heatmaps=True)
        first = next(stream)
        # Kill the worker inside a task: one killed while it sends a result
        # can leave concurrent.futures waiting for the rest of it.
        deadline = time.monotonic() + 60
        while not (TASK_LOG.exists() and TASK_LOG.read_text()) and time.monotonic() < deadline:
            time.sleep(0.01)
        os.kill(int(TASK_LOG.read_text()), signal.SIGKILL)
        assert still_running(old) == []
        assert stream_bytes(itertools.chain([first], stream), tmp_path / "killed.csv") == serial

    @pytest.mark.parametrize("reused", [False, True])
    def test_a_pool_that_keeps_breaking_raises(self, tmp_path, monkeypatch, forked_pool, reused):
        """A new pool that breaks raises at once; a reused one reruns once, then raises."""
        monkeypatch.setattr(sys.modules[__name__], "TASK_LOG", tmp_path / "tasks.log")
        monkeypatch.setattr(bench, "_run_task", exit_on_third_replicate)
        monkeypatch.setattr("rcbench.bench.os.cpu_count", lambda: 2)
        if reused:
            list(run_sweep(tiny_config(replicates=2), jobs=2))
        with pytest.raises(BrokenProcessPool):
            list(run_sweep(tiny_config(replicates=4), jobs=2))
        assert TASK_LOG.read_text().split().count("2") == 1 + reused

    def test_interleaved_sweeps_of_two_worker_counts(self, tmp_path, monkeypatch, fresh_pool):
        """A sweep that asks for another worker count does not shut down the
        pool a suspended sweep still runs on; that sweep's end does."""
        monkeypatch.setattr("rcbench.bench.os.cpu_count", lambda: 3)
        two = tiny_config(replicates=8, master_seed=3)
        three = tiny_config(replicates=6, master_seed=4)
        streams = (
            run_sweep(two, jobs=2, want_heatmaps=True),
            run_sweep(three, jobs=3, want_heatmaps=True),
        )
        got = ([], [])
        for pair in itertools.zip_longest(*streams):
            for items, item in zip(got, pair):
                if item is not None:
                    items.append(item)
        for name, cfg, items in zip(("two", "three"), (two, three), got):
            assert stream_bytes(items, tmp_path / f"{name}.csv") == sweep_bytes(cfg, 1, tmp_path)
        assert len(multiprocessing.active_children()) == 3

    def test_a_closed_sweep_leaves_no_task_behind(self, tmp_path, monkeypatch, forked_pool):
        monkeypatch.setattr(sys.modules[__name__], "TASK_LOG", tmp_path / "tasks.log")
        monkeypatch.setattr(bench, "_run_task", logged_task)
        monkeypatch.setattr("rcbench.bench.os.cpu_count", lambda: 2)
        stream = run_sweep(tiny_config(replicates=9, master_seed=1), jobs=2)
        next(stream)
        stream.close()
        closed = TASK_LOG.read_text().splitlines()
        cfg = tiny_config(replicates=4, master_seed=2)
        assert sweep_bytes(cfg, 2, tmp_path) == sweep_bytes(cfg, 1, tmp_path)
        # The closed sweep's tasks all finished before close returned.
        logged = TASK_LOG.read_text().splitlines()
        assert logged[: len(closed)] == closed and "1 0" in closed
        assert all(line.startswith("2 ") for line in logged[len(closed) :])

    def test_no_worker_outlives_its_process(self, tmp_path):
        out = tmp_path / "out.txt"
        with open(out, "w") as stdout:
            # Files, not pipes: a worker left running would hold a pipe open.
            result = subprocess.run(
                [sys.executable, "-c", POOLED_EXIT_SCRIPT],
                env={**os.environ, "PYTHONPATH": str(SRC)},
                stdout=stdout,
                stderr=subprocess.STDOUT,
                timeout=120,
            )
        assert result.returncode == 0, out.read_text()
        pids = json.loads(out.read_text())
        assert len(pids) == 2
        left = [pid for pid in pids if not exited(pid)]
        for pid in left:
            os.kill(pid, signal.SIGKILL)
        assert left == []


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
        gen = np.random.default_rng(4)
        bev = gen.uniform(0, 9, size=(6, 7))
        path = tmp_path / "rt.pgm"
        emit_heatmap(bev, path)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n7 6\n255\n")
        back = np.frombuffer(raw[-42:], np.uint8).reshape(6, 7)
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
        rows = sweep_rows(cfg)
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
        rows = sweep_rows(default_sweep_config())
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
        for weights in ("", 3, [], ["a.json"], False):
            with pytest.raises(ConfigError, match="projector_weights must be a non-empty path"):
                sweep_config_from_json_dict({"projector_weights": weights})

    def test_a_weights_path_is_always_loaded(self, tmp_path):
        # All-zero weights give every point a unit kernel, so the planar BEV is
        # the raw one doubled and keeps the raw SNR; the heuristic's does not.
        path = tmp_path / "zero.json"
        hidden = PROJECTOR_HIDDEN
        zero = ProjectorWeights(
            np.zeros((hidden, 2)), np.zeros(hidden), np.zeros((4, hidden)), np.zeros(4)
        )
        save_projector_weights(zero, path)

        def planar_snrs(payload):
            cfg = sweep_config_from_json_dict({**payload, "replicates": 1})
            rows = [row for task_rows, _ in run_sweep(cfg) for row in task_rows]
            return [(r.snr_before, r.snr_after) for r in rows if r.pipeline == "3dge_planar"]

        learned = planar_snrs({"projector_weights": str(path)})
        assert all(before == after for before, after in learned)
        assert any(before != after for before, after in planar_snrs({}))

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

    def run_config(self, tmp_path, payload, *flags):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(payload))
        out_dir = tmp_path / "out"
        argv = ["run", "--config", str(cfg_path), "--out-dir", str(out_dir), *flags]
        return main(argv), out_dir

    def test_bad_weights_path_is_exit_1_without_report(self, tmp_path, capsys):
        payload = {"projector_weights": str(tmp_path / "no.json")}
        code, out_dir = self.run_config(tmp_path, payload, "--emit-heatmaps")
        assert code == 1
        assert "cannot load projector weights" in capsys.readouterr().err
        assert not (out_dir / "report.csv").exists()
        assert list((out_dir / "heatmaps").iterdir()) == []

    @pytest.mark.parametrize(
        "text",
        [
            "[1, 2]",
            '"w1"',
            '{"w1": {}, "b1": [], "w2": [], "b2": []}',
            '{"w1": [[1, 2]], "b1": [], "w2": [], "b2": [%s]}' % ("9" * 400),
        ],
        ids=["list", "string", "object-block", "huge-integer"],
    )
    def test_malformed_weights_are_exit_1(self, tmp_path, capsys, text):
        path = tmp_path / "weights.json"
        path.write_text(text)
        code, out_dir = self.run_config(tmp_path, {"projector_weights": str(path)})
        assert code == 1
        assert "config error: cannot load projector weights" in capsys.readouterr().err
        assert not (out_dir / "report.csv").exists()

    @pytest.mark.parametrize("mode", ["heuristic", "weights-file"])
    def test_projector_key_is_exit_1(self, tmp_path, capsys, mode):
        # The weights path alone chooses the projector.
        code, _ = self.run_config(tmp_path, {"projector": mode})
        assert code == 1
        assert "unknown config fields: ['projector']" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, error",
        [
            (["--count", "0"], "manifest needs at least one scene"),
            (["--clean-ratio", "1.5"], "clean_ratio must lie in [0, 1], got 1.5"),
            (["--clean-ratio", "nan"], "clean_ratio must lie in [0, 1], got nan"),
        ],
        ids=["count", "ratio", "nan-ratio"],
    )
    def test_bad_manifest_bounds_are_exit_1(self, tmp_path, capsys, flags, error):
        out = tmp_path / "manifest.csv"
        assert main(["gen-manifest", "--out", str(out), *flags]) == 1
        assert capsys.readouterr().err == f"config error: {error}\n"
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_is_exit_1_without_report(self, tmp_path, capsys, jobs):
        # run_sweep itself runs such a count serially; the CLI refuses it.
        code, out_dir = self.run_config(tmp_path, {}, "--jobs", jobs)
        assert code == 1
        assert capsys.readouterr().err == f"config error: --jobs must be at least 1, got {jobs}\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failed_run_leaves_no_report_or_temp_file(
        self, tmp_path, monkeypatch, forked_pool, jobs
    ):
        monkeypatch.setattr(bench, "_run_task", fail_third_replicate)
        payload = {
            "corruptions": [{"kind": "PointShifting", "levels": [5]}],
            "pipelines": ["raw"],
            "replicates": 5,
        }
        # An earlier run's report must not be left beside this run's heatmaps.
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "report.csv").write_text("an earlier run's report\n")
        code, out_dir = self.run_config(tmp_path, payload, "--jobs", jobs, "--emit-heatmaps")
        assert code == 2
        assert list(out_dir.iterdir()) == [out_dir / "heatmaps"]
        # The tasks before the failing one were written as they arrived.
        maps = sorted(p.name for p in (out_dir / "heatmaps").iterdir())
        assert maps == [
            f"bev_{clean}PointShifting_l5_r{r}_raw.pgm" for clean in ("", "clean_") for r in (0, 1)
        ]

    def test_error_texts_are_printed_with_row_counts(self, tmp_path, capsys):
        payload = {
            "corruptions": [
                {"kind": "KeyPointMissing", "levels": [500]},
                {"kind": "BeamDrop", "levels": [32, 64]},
            ],
            "replicates": 2,
            "total_beams": 64,
        }
        code, out_dir = self.run_config(tmp_path, payload)
        assert code == 0
        lines = capsys.readouterr().err.splitlines()
        assert lines[0].startswith("wrote 12 rows (8 errored) to ")
        assert lines[1:] == [
            "  4 rows: ValueError: k=500 outside [1, 40] for gamma=0",
            "  4 rows: ValueError: chamfer distance requires non-empty clouds",
        ]
        report = (out_dir / "report.csv").read_text().splitlines()
        assert len(report) == 13 and sum("ERROR" in line for line in report) == 8

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

    def corrupt(self, in_path, out_path):
        argv = ["corrupt", "--kind", "c4", "--level", "1", "--seed", "0"]
        return main([*argv, "--in", str(in_path), "--out", str(out_path)])

    def test_missing_input_is_exit_1(self, tmp_path, capsys):
        # An unreadable --in file is bad user input, as an unreadable config is.
        assert self.corrupt(tmp_path / "nope.csv", tmp_path / "y.csv") == 1
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "y.csv").exists()

    @pytest.mark.parametrize(
        "text",
        [
            "1,2,3,4,5,6\n",
            "frame_id,x,y,z,rcs,v\na,0,0,0\n",
            "frame_id,x,y,z,rcs,v\na,0,0,0,0,0\nb,0,0,0,0,0\n",
            "frame_id,x,y,z,rcs,v\na,0,0,zero,0,0\n",
        ],
        ids=["header", "width", "frames", "number"],
    )
    def test_malformed_input_is_exit_1(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        assert self.corrupt(bad, tmp_path / "y.csv") == 1
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "y.csv").exists()

    def test_usage_error_is_exit_1(self):
        assert main(["run"]) == 1

    @pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
    def test_gen_scene_seed_out_of_range_is_exit_1(self, tmp_path, capsys, seed):
        out = tmp_path / "scene.csv"
        assert main(["gen-scene", "--seed", seed, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: seed out of 64-bit range: {seed}\n"
        assert not out.exists()

    def test_gen_manifest_cli(self, tmp_path):
        out = tmp_path / "manifest.csv"
        assert main(["gen-manifest", "--out", str(out), "--count", "10"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "scene_id,group,kind,level,seed"
        assert len(lines) == 11

    def test_gen_manifest_bytes_are_pinned(self, tmp_path):
        """All four noisy kinds, sigma levels and KeyPointMissing counts alike."""
        out = tmp_path / "manifest.csv"
        assert main(["gen-manifest", "--out", str(out), "--count", "200", "--seed", "9"]) == 0
        text = out.read_text()
        for kind in ("SpuriousPoints", "NonPositionalDisturbance", "KeyPointMissing", "PointShifting"):
            assert f",{kind}," in text
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "3170bca4bdf0bfb9752b8c2b9d27b1e98e2622047f7adb517982e95fe6dec336"
        )
