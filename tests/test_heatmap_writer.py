"""The heatmap writes of `bench run --emit-heatmaps`. A serial sweep's one
writer thread writes each task's files in task order behind a bounded
backlog and hands its errors back to the sweep; pool workers write their
own, and the report contract holds either way."""

import json
import os
import sys
import threading
import time

import pytest

import rcbench.bench as bench
from rcbench.bench import HEATMAP_BACKLOG
from rcbench.cli import main

PAYLOAD = {
    "corruptions": [{"kind": "PointShifting", "levels": [5]}],
    "pipelines": ["raw"],
    "replicates": 8,
}
WRITE = bench._write_heatmaps
RUN_TASK = bench._run_task
ALLOWED = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()
needs_two_cpus = pytest.mark.skipif(len(ALLOWED) < 2, reason="needs two allowed CPUs")


def run(tmp_path, *flags):
    tmp_path.mkdir(exist_ok=True)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(PAYLOAD))
    out_dir = tmp_path / "out"
    argv = ["run", "--config", str(config), "--out-dir", str(out_dir), "--emit-heatmaps"]
    return main([*argv, *flags]), out_dir


def heatmap_names(replicates):
    return sorted(
        f"bev_{clean}PointShifting_l5_r{r}_raw.pgm" for clean in ("", "clean_") for r in replicates
    )


def one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


@pytest.mark.parametrize("failing", [3, 8], ids=["third-task", "last-task"])
@pytest.mark.parametrize("cpus", ["all", "one"])
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_failed_write_keeps_the_report_contract(
    tmp_path, monkeypatch, capsys, forked_pool, jobs, cpus, failing
):
    heatmap_dir = tmp_path / "out" / "heatmaps"

    def fail_one_task(where, heatmaps):
        # By name, not by a count of calls: pool workers each count their own.
        if where == heatmap_dir and f"_r{failing - 1}_" in next(iter(heatmaps)):
            raise OSError(28, "No space left on device")
        WRITE(where, heatmaps)

    monkeypatch.setattr(bench, "_write_heatmaps", fail_one_task)
    # The shared pool's own thread outlives a sweep, so start it first; its
    # workers fork now, with the failing write in place.
    assert run(tmp_path / "warm-up", "--jobs", jobs)[0] == 0
    if cpus == "one":
        # One allowed CPU caps --jobs 2 at a serial sweep; the contract holds all the same.
        one_cpu(monkeypatch)
    threads = threading.active_count()
    capsys.readouterr()
    code, out_dir = run(tmp_path, "--jobs", jobs)
    assert code == 2
    assert "error: OSError: [Errno 28] No space left on device" in capsys.readouterr().err
    # Neither report.csv nor report.csv.tmp; the earlier tasks' heatmaps stay.
    assert sorted(os.listdir(out_dir)) == ["heatmaps"]
    assert sorted(os.listdir(out_dir / "heatmaps")) == heatmap_names(range(failing - 1))
    assert threading.active_count() == threads


def test_writes_keep_task_order_under_fast_thread_switching(tmp_path, monkeypatch):
    written = []

    def record(heatmap_dir, heatmaps):
        written.extend(heatmaps)
        WRITE(heatmap_dir, heatmaps)

    monkeypatch.setattr(bench, "_write_heatmaps", record)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        code, _ = run(tmp_path)
    finally:
        sys.setswitchinterval(interval)
    assert code == 0
    assert written == [
        f"bev_{clean}PointShifting_l5_r{r}_raw" for r in range(8) for clean in ("", "clean_")
    ]


def test_the_callers_cpu_mask_is_unchanged(tmp_path):
    before = os.sched_getaffinity(0) if ALLOWED else None
    assert run(tmp_path)[0] == 0
    assert (os.sched_getaffinity(0) if ALLOWED else None) == before


@needs_two_cpus
def test_a_stalled_writer_holds_the_sweep_three_tasks_ahead(tmp_path, monkeypatch):
    # Tasks made, counted once each has its heatmaps in hand.
    made, written, ahead = [0], [0], []
    full = threading.Event()

    def counting_task(*args):
        task = RUN_TASK(*args)
        made[0] += 1
        ahead.append(made[0] - written[0])
        if made[0] == HEATMAP_BACKLOG + 2:
            full.set()
        return task

    stalled = []

    def stall_first_write(heatmap_dir, heatmaps):
        if not written[0]:
            assert full.wait(timeout=30)
            # Room for a sweep that nothing holds back to run on.
            time.sleep(0.2)
            stalled.append(made[0])
        WRITE(heatmap_dir, heatmaps)
        written[0] += 1

    monkeypatch.setattr(bench, "_run_task", counting_task)
    monkeypatch.setattr(bench, "_write_heatmaps", stall_first_write)
    code, out_dir = run(tmp_path)
    assert code == 0
    # One task being written, two waiting, one waiting to be handed over.
    assert stalled == [4]
    assert max(ahead) == 4
    assert sorted(os.listdir(out_dir / "heatmaps")) == heatmap_names(range(8))
