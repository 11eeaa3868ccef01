"""The heatmap writer of `bench run --emit-heatmaps`: one thread, off the
caller's CPU, writes each task's files in task order behind a bounded
backlog and hands its errors back to the caller; with one CPU the writes
stay inline."""

import json
import os
import sys
import threading
import time

import pytest

import rcbench.cli as cli
from rcbench.cli import HEATMAP_BACKLOG, main

PAYLOAD = {
    "corruptions": [{"kind": "PointShifting", "levels": [5]}],
    "pipelines": ["raw"],
    "replicates": 8,
}
WRITE = cli._write_heatmaps
CURRENT_CPU = cli._current_cpu
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
    tmp_path, monkeypatch, capsys, fresh_pool, jobs, cpus, failing
):
    # The shared pool's own thread outlives a sweep, so start it first.
    assert run(tmp_path / "warm-up", "--jobs", jobs)[0] == 0
    if cpus == "one":
        one_cpu(monkeypatch)
    calls = []

    def fail_one_task(heatmap_dir, heatmaps):
        calls.append(heatmaps)
        if len(calls) == failing:
            raise OSError(28, "No space left on device")
        WRITE(heatmap_dir, heatmaps)

    monkeypatch.setattr(cli, "_write_heatmaps", fail_one_task)
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

    monkeypatch.setattr(cli, "_write_heatmaps", record)
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
def test_the_writer_runs_off_the_callers_cpu(tmp_path, monkeypatch):
    seen = {}

    def caller_cpu():
        seen["caller"] = (threading.get_ident(), os.sched_getaffinity(0), CURRENT_CPU())
        return seen["caller"][2]

    def record_writer(heatmap_dir, heatmaps):
        seen.setdefault("writer", (threading.get_ident(), os.sched_getaffinity(0)))
        WRITE(heatmap_dir, heatmaps)

    monkeypatch.setattr(cli, "_current_cpu", caller_cpu)
    monkeypatch.setattr(cli, "_write_heatmaps", record_writer)
    assert run(tmp_path)[0] == 0
    caller, caller_mask, cpu = seen["caller"]
    writer, writer_mask = seen["writer"]
    assert caller == threading.get_ident() and writer != caller
    assert caller_mask == ALLOWED
    assert cpu in ALLOWED and writer_mask == ALLOWED - {cpu}


@pytest.mark.parametrize("platform", ["one-cpu", "no-affinity"])
def test_without_a_second_cpu_no_thread_starts(tmp_path, monkeypatch, platform):
    if platform == "one-cpu":
        one_cpu(monkeypatch)
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    started, writers = [], set()
    start = threading.Thread.start

    def record_start(thread):
        started.append(thread)
        start(thread)

    def record_writer(heatmap_dir, heatmaps):
        writers.add(threading.get_ident())
        WRITE(heatmap_dir, heatmaps)

    monkeypatch.setattr(threading.Thread, "start", record_start)
    monkeypatch.setattr(cli, "_write_heatmaps", record_writer)
    code, out_dir = run(tmp_path)
    assert code == 0
    assert started == [] and writers == {threading.get_ident()}
    assert sorted(os.listdir(out_dir / "heatmaps")) == heatmap_names(range(8))


@needs_two_cpus
def test_a_stalled_writer_holds_the_sweep_three_tasks_ahead(tmp_path, monkeypatch):
    yielded, written, ahead = [0], [0], []
    full = threading.Event()
    sweep = cli.run_sweep

    def counting_sweep(*args, **kwargs):
        for task in sweep(*args, **kwargs):
            yielded[0] += 1
            ahead.append(yielded[0] - written[0])
            if yielded[0] == HEATMAP_BACKLOG + 2:
                full.set()
            yield task

    stalled = []

    def stall_first_write(heatmap_dir, heatmaps):
        if not written[0]:
            assert full.wait(timeout=30)
            # Room for a sweep that nothing holds back to run on.
            time.sleep(0.2)
            stalled.append(yielded[0])
        WRITE(heatmap_dir, heatmaps)
        written[0] += 1

    monkeypatch.setattr(cli, "run_sweep", counting_sweep)
    monkeypatch.setattr(cli, "_write_heatmaps", stall_first_write)
    code, out_dir = run(tmp_path)
    assert code == 0
    # One task being written, two waiting, one in the caller's hands.
    assert stalled == [4]
    assert max(ahead) == 4
    assert sorted(os.listdir(out_dir / "heatmaps")) == heatmap_names(range(8))
