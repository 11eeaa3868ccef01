"""A sweep runs in units: runs of consecutive tasks that deposit their clouds
together, run inline or on the pool. A unit's pooled result carries rows
only, small enough for one atomic pipe write, and every unit bound gives the
same report and heatmaps."""

import dataclasses
import itertools
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from concurrent.futures.process import _ResultItem
from multiprocessing.reduction import ForkingPickler

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import rcbench.bench as bench
import rcbench.expansion as expansion
from rcbench.bench import SceneConfig, SweepConfig, SweepEntry, run_sweep, write_report_csv
from rcbench.corruption import CorruptionKind
from test_bench import SRC, heatmap_files, new_dir, tiny_config

# Linux's PIPE_BUF: a pipe write of at most this many bytes is atomic. A
# pooled result is one write of a 4-byte length header, then its pickle.
PIPE_BUF = 4096
RUN_TASK = bench._run_task


def result_bytes(result) -> int:
    """The pickled size of a pool worker's result, as its worker sends it."""
    return len(ForkingPickler.dumps(_ResultItem(2**62, result=result)))


class TestUnitResultSize:
    """The largest unit a sweep runs: BATCH_TASKS tasks, all three pipelines."""

    def unit(self):
        cfg = tiny_config(pipelines=bench.PIPELINES, replicates=bench.BATCH_TASKS)
        entry, level = cfg.corruptions[0], cfg.corruptions[0].levels[0]
        return [(cfg, entry, level, replicate, None) for replicate in range(bench.BATCH_TASKS)]

    def test_rows_fit_one_pipe_write(self):
        result = bench._unit_result(self.unit(), None)
        rows, error = result
        assert error is None and [len(r) for r in rows] == [3] * bench.BATCH_TASKS
        assert result_bytes(result) < PIPE_BUF - 4

    def test_the_longest_error_texts_fit_one_pipe_write(self, monkeypatch):
        # Each task fails with its own text, far over the cap, of 4-byte
        # characters; the unit's last task then raises one as long.
        tasks = itertools.count()

        def fail(*args):
            raise ValueError(chr(0x1F600 + next(tasks)) * 10_000)

        def raise_on_last(*args):
            if args[3] == bench.BATCH_TASKS - 1:
                raise OSError(28, "No space left on device", "\U0001f600" * 10_000)
            return RUN_TASK(*args)

        monkeypatch.setattr(bench, "metric_chamfer", fail)
        result = bench._unit_result(self.unit(), None)
        rows, error = result
        texts = {row.error for task in rows for row in task}
        assert error is None and len(texts) == bench.BATCH_TASKS
        assert all(len(text) == bench.ERROR_CHARS for text in texts)
        assert result_bytes(result) < PIPE_BUF - 4

        monkeypatch.setattr(bench, "_run_task", raise_on_last)
        result = bench._unit_result(self.unit(), None)
        rows, error = result
        assert len(rows) == bench.BATCH_TASKS - 1
        assert type(error) is RuntimeError and len(str(error)) == bench.ERROR_CHARS
        assert str(error).startswith("OSError: [Errno 28] No space left on device: ")
        assert result_bytes(result) < PIPE_BUF - 4

    def test_an_error_within_the_cap_keeps_its_type(self, monkeypatch):
        name = "\U0001f600" * (bench.ERROR_CHARS - len("OSError: [Errno 28] x: ''"))
        exc = OSError(28, "x", name)
        assert len(f"OSError: {exc}") == bench.ERROR_CHARS

        def raise_on_last(*args):
            if args[3] == bench.BATCH_TASKS - 1:
                raise exc
            return RUN_TASK(*args)

        monkeypatch.setattr(bench, "_run_task", raise_on_last)
        result = bench._unit_result(self.unit(), None)
        assert result[1] is exc
        assert result_bytes(result) < PIPE_BUF - 4


def sweep_outputs(cfg, jobs, tmp_path):
    """A sweep's report.csv bytes and its heatmaps by name."""
    maps = new_dir(tmp_path)
    report = maps.with_suffix(".csv")
    stream = run_sweep(cfg, jobs=jobs, heatmap_dir=maps)
    write_report_csv((row for rows in stream for row in rows), report)
    return report.read_bytes(), heatmap_files(maps)


KINDS = {
    CorruptionKind.SPURIOUS_POINTS: st.sampled_from([1.0, 5.0, 20.0]),
    CorruptionKind.POINT_SHIFTING: st.sampled_from([0.5, 3.0]),
    CorruptionKind.NON_POSITIONAL_DISTURBANCE: st.sampled_from([2.0, 5.0]),
    CorruptionKind.BEAM_DROP: st.sampled_from([4, 32]),
    CorruptionKind.KEY_POINT_MISSING: st.sampled_from([3, 500]),
}


@st.composite
def sweep_configs(draw):
    kinds = draw(st.lists(st.sampled_from(list(KINDS)), min_size=1, max_size=2, unique=True))
    entries = tuple(SweepEntry(kind=k, levels=(draw(KINDS[k]),)) for k in kinds)
    pipelines = draw(st.lists(st.sampled_from(bench.PIPELINES), min_size=1, unique=True))
    scene = SceneConfig(
        cluster_count=draw(st.integers(1, 2)),
        points_per_cluster=draw(st.integers(5, 40)),
        noise_points=draw(st.integers(0, 60)),
    )
    return SweepConfig(
        scene=scene,
        corruptions=entries,
        pipelines=tuple(pipelines),
        replicates=draw(st.integers(1, 4)),
        master_seed=draw(st.integers(0, 2**64 - 1)),
    )


WEIGHTS = {"w1": [[0.5, -0.25]] * 8, "b1": [0.1] * 8, "w2": [[0.2] * 8] * 4, "b2": [0.0] * 4}


@given(
    cfg=sweep_configs(),
    weights=st.booleans(),
    batch=st.integers(1, 4),
    points=st.sampled_from([16, 100, 1 << 10]),
)
@example(  # error rows: every point dropped, and more key points than a scene holds
    cfg=SweepConfig(
        corruptions=(
            SweepEntry(kind=CorruptionKind.BEAM_DROP, levels=(32,)),
            SweepEntry(kind=CorruptionKind.KEY_POINT_MISSING, levels=(500,)),
            SweepEntry(kind=CorruptionKind.SPURIOUS_POINTS, levels=(5.0,)),
        ),
        pipelines=bench.PIPELINES,
        replicates=2,
    ),
    weights=False,
    batch=2,
    points=100,
)
@example(  # the learned projector
    cfg=SweepConfig(
        corruptions=(SweepEntry(kind=CorruptionKind.POINT_SHIFTING, levels=(3.0,)),),
        pipelines=bench.PIPELINES,
        replicates=4,
    ),
    weights=True,
    batch=4,
    points=16,
)
@settings(
    max_examples=12, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_outputs_are_the_same_on_any_unit_bound_and_job_count(
    tmp_path, monkeypatch, fresh_pool, cfg, weights, batch, points
):
    if weights:
        path = tmp_path / "weights.json"
        path.write_text(json.dumps(WEIGHTS))
        cfg = dataclasses.replace(cfg, projector_weights=str(path))
    monkeypatch.setattr("rcbench.bench.os.cpu_count", lambda: 2)
    serial = sweep_outputs(cfg, 1, tmp_path)
    assert serial == sweep_outputs(cfg, 2, tmp_path)
    with monkeypatch.context() as mp:
        mp.setattr(bench, "BATCH_TASKS", batch)
        mp.setattr(bench, "DEPOSIT_BATCH_POINTS", points)
        mp.setattr(expansion, "DEPOSIT_BATCH_POINTS", points)
        assert sweep_outputs(cfg, 1, tmp_path) == serial


# A `bench run` on two workers forked from it, whatever the CPU count.
HEATMAP_SWEEP_SCRIPT = """
import concurrent.futures, functools, multiprocessing, os, sys
os.cpu_count = lambda: 2
concurrent.futures.ProcessPoolExecutor = functools.partial(
    concurrent.futures.ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")
)
from rcbench.cli import main
sys.exit(main(sys.argv[1:]))
"""


def children(pid):
    with open(f"/proc/{pid}/task/{pid}/children") as f:
        return [int(child) for child in f.read().split()]


@pytest.mark.skipif(
    not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children")
    or "fork" not in multiprocessing.get_all_start_methods(),
    reason="finds the workers through /proc/<pid>/task/<pid>/children; forks them",
)
def test_a_worker_killed_in_a_heatmap_sweep_never_hangs_it(tmp_path):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"replicates": 40}))
    out_dir = tmp_path / "out"
    argv = ["run", "--config", str(config), "--out-dir", str(out_dir), "--jobs", "2"]
    with open(tmp_path / "log.txt", "w") as log:
        sweep = subprocess.Popen(
            [sys.executable, "-c", HEATMAP_SWEEP_SCRIPT, *argv, "--emit-heatmaps"],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            stdout=log,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
    try:
        # Kill a worker once the workers write heatmaps: mid-sweep.
        deadline = time.monotonic() + 60
        maps = out_dir / "heatmaps"
        while not (maps.exists() and any(maps.iterdir())) and time.monotonic() < deadline:
            time.sleep(0.005)
        workers = children(sweep.pid)
        assert len(workers) == 2, workers
        os.kill(workers[0], signal.SIGKILL)
        try:
            code = sweep.wait(timeout=60)
        except subprocess.TimeoutExpired:
            pytest.fail("the sweep hung after one of its workers was killed")
    finally:
        try:
            os.killpg(sweep.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        sweep.wait()
    log = (tmp_path / "log.txt").read_text()
    # A new pool that breaks raises: exit 2, and no report. A sweep that ends
    # first writes its report.
    if code == 2:
        assert "error: BrokenProcessPool" in log, log
        assert not (out_dir / "report.csv").exists()
    else:
        assert code == 0, log
        assert (out_dir / "report.csv").exists()


@pytest.mark.parametrize(
    "affinity, cpus, pooled",
    [({0}, 64, []), ({0, 1}, 64, [2]), (None, 1, []), (None, 2, [2])],
    ids=["one-allowed-cpu", "two-allowed-cpus", "no-affinity-one-cpu", "no-affinity-two-cpus"],
)
def test_jobs_are_capped_at_the_cpus_this_process_may_run_on(monkeypatch, affinity, cpus, pooled):
    # The pool is replaced by a recorder of its worker count, so no process starts.
    started = []
    monkeypatch.setattr(bench, "_pooled", lambda units, workers, _: started.append(workers))
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
    stream = run_sweep(tiny_config(replicates=8), jobs=64)
    assert started == pooled
    if not pooled:
        assert len(list(stream)) == 8
