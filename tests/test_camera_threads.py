"""The camera path's short-lived thread pools.

`fuse_bev_jvp` runs its plain attention branch on a 1-worker pool while
the calling thread runs the weighted one, and `same_timestamp_consistency`
fills its views on a 2-worker pool. These tests check that each call
leaves no thread behind, that input checks run before any worker does
and keep their text, that a worker's own error comes through, that a
process which ran the pools can still fork sweep workers, and that the
two live branches keep the JVP's working set under its memory bound.
"""

import copy
import re
import threading
import tracemalloc

import numpy as np
import pytest

from rcbench import fusion, imaging
from rcbench.bench import SceneConfig, SweepConfig, SweepEntry, write_report_csv
from rcbench.core import Rng
from rcbench.corruption import CorruptionKind
from rcbench.imaging import DegradationMap, DegradationSpec, ImagePlane
from test_bench import sweep_rows


def feature_maps(c, h, w, seed):
    gen = np.random.default_rng(seed)
    return [gen.normal(size=(c, h, w)) for _ in range(4)]


def fog_spec(dims):
    deg_map = DegradationMap(np.full(dims, 0.5), kind="fog")
    return DegradationSpec(kinds=("fog",), seed=0, maps={"fog": deg_map})


def frames(dims, count, seed=0):
    gen = np.random.default_rng(seed)
    return [ImagePlane(gen.uniform(size=(*dims, 3))) for _ in range(count)]


def test_calls_leave_no_thread_behind():
    params = fusion.random_fusion_params(8, Rng(3), heads=2)
    fi, dfi, fp, dfp = feature_maps(8, 6, 7, seed=4)
    before = threading.active_count()
    fusion.fuse_bev(fusion.FeatureMap(fi), fusion.FeatureMap(fp), params)
    assert threading.active_count() == before
    fusion.fuse_bev_jvp(fi, dfi, fp, dfp, params)
    assert threading.active_count() == before
    imaging.same_timestamp_consistency(frames((5, 4), 6), fog_spec((5, 4)))
    assert threading.active_count() == before


def test_mismatched_last_frame_keeps_its_message():
    views = frames((5, 4), 5) + frames((4, 5), 1)
    message = re.escape("map dims (5, 4) != image dims (4, 5)")
    before = threading.active_count()
    with pytest.raises(ValueError, match=message):
        imaging.same_timestamp_consistency(views, fog_spec((5, 4)))
    assert threading.active_count() == before


def test_frame_dims_are_checked_before_any_worker_runs(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started before the checks")

    monkeypatch.setattr(imaging, "ThreadPoolExecutor", no_pool)
    views = frames((5, 4), 3) + frames((5, 5), 1)
    with pytest.raises(ValueError, match=re.escape("!= image dims (5, 5)")):
        imaging.same_timestamp_consistency(views, fog_spec((5, 4)))


def test_branch_checks_run_before_the_worker_starts(monkeypatch):
    # A plain branch that expects twice the value channels.
    c = 8
    params = fusion.random_fusion_params(c, Rng(5), heads=2)
    wide = fusion.random_fusion_params(2 * c, Rng(6), heads=2).attn_plain
    attn = fusion.DeformAttnParams(
        offset_w=params.attn_plain.offset_w,
        offset_b=params.attn_plain.offset_b,
        weight_w=params.attn_plain.weight_w,
        weight_b=params.attn_plain.weight_b,
        out_w=wide.out_w[:c],
        out_b=params.attn_plain.out_b,
    )
    bad = copy.copy(params)
    object.__setattr__(bad, "attn_plain", attn)

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started before the checks")

    monkeypatch.setattr(fusion, "ThreadPoolExecutor", no_pool)
    fi, dfi, fp, dfp = feature_maps(c, 5, 6, seed=7)
    with pytest.raises(ValueError, match="value has 16 channels, parameters expect 32"):
        fusion.fuse_bev_jvp(fi, dfi, fp, dfp, bad)


def test_worker_exception_surfaces_with_its_text(monkeypatch):
    corner_weights = fusion._corner_weights

    def fail_off_the_main_thread(*args):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("plain branch failed on its worker")
        corner_weights(*args)

    monkeypatch.setattr(fusion, "_corner_weights", fail_off_the_main_thread)
    params = fusion.random_fusion_params(8, Rng(5), heads=2)
    fi, dfi, fp, dfp = feature_maps(8, 5, 6, seed=7)
    before = threading.active_count()
    for tangents in ((dfi, dfp), (None, None)):
        with pytest.raises(RuntimeError, match="plain branch failed on its worker"):
            fusion.fuse_bev_jvp(fi, tangents[0], fp, tangents[1], params)
        assert threading.active_count() == before


def test_sweep_workers_fork_cleanly_after_camera_threads(tmp_path, fresh_pool):
    params = fusion.random_fusion_params(8, Rng(8), heads=2)
    fusion.fuse_bev_jvp(*feature_maps(8, 6, 6, seed=9), params)
    cfg = SweepConfig(
        scene=SceneConfig(),
        corruptions=(SweepEntry(kind=CorruptionKind.SPURIOUS_POINTS, levels=(5.0,)),),
        pipelines=("raw", "3dge_planar"),
        replicates=2,
        master_seed=77,
    )
    serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    write_report_csv(sweep_rows(cfg, jobs=1), serial)
    write_report_csv(sweep_rows(cfg, jobs=2), parallel)
    assert parallel.read_bytes() == serial.read_bytes()


def test_jvp_peak_memory_is_bounded():
    # C=64 at 128x128 with 8 heads and 2 points, as in the benchmark. How
    # far the two branches overlap depends on scheduling, hence 5 calls.
    params = fusion.random_fusion_params(64, Rng(11), heads=8, points=2)
    fi, dfi, fp, dfp = feature_maps(64, 128, 128, seed=11)
    peaks = []
    for _ in range(5):
        tracemalloc.start()
        try:
            fusion.fuse_bev_jvp(fi, dfi, fp, dfp, params)
            peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
        finally:
            tracemalloc.stop()
    assert max(peaks) <= 160.0, peaks
