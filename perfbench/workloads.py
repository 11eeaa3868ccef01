"""The benchmark's three workloads.

sweep-default  `bench run --emit-heatmaps --jobs 1` on the built-in
               four-kind sweep (80-point scenes, 160 rows): per-grid
               fixed costs and the report/heatmap write path dominate.
sweep-dense    `bench run --jobs 2` on ~3k-point scenes with three
               pipelines: per-point work (Chamfer, the expand loop,
               isotropic kernels) dominates; the only process-pool load.
camera-fusion  six-view camera degradation plus `fuse_bev` and
               `fuse_bev_jvp` at C=64, 128x128: the only workload that
               runs `imaging` and `fusion`; the radar layers are idle.

Every timed operation is checked by the correctness gate. The untraced
loop gives the end-to-end figures; the traced run wraps each layer in a
span and gives the per-layer figures.
"""

from __future__ import annotations

import json
import math
import resource
import shutil
import statistics
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import rcbench.cli
from rcbench import fusion, imaging
from rcbench.bench import pipeline_bev, metric_peak, scripted_scene
from rcbench.core import Rng, default_grid, derive64
from rcbench.corruption import CorruptionKind, CorruptionSpec, apply_corruption

import gate
from spans import Recorder, summarize, total_ns

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
# The seed whose outputs were recorded as the reference.
REFERENCE_SEED = 0
# Fewest timed steps in one run, however short --seconds is.
MIN_STEPS = 3


@dataclass(frozen=True)
class SweepWorkload:
    config: dict
    jobs: int
    heatmaps: bool
    scene_size: int


SWEEPS = {
    "sweep-default": SweepWorkload(config={}, jobs=1, heatmaps=True, scene_size=80),
    "sweep-dense": SweepWorkload(
        config={
            "scene": {"cluster_count": 10, "points_per_cluster": 200, "noise_points": 1000},
            "corruptions": [
                {"kind": "SpuriousPoints", "levels": [5]},
                {"kind": "BeamDrop", "levels": [10]},
            ],
            "pipelines": ["raw", "3dge_planar", "3dge_isotropic"],
            "replicates": 2,
        },
        # --jobs equals the core count of the 2-vCPU machine it was sized on.
        jobs=2,
        heatmaps=False,
        scene_size=3000,
    ),
}
FUSION_CHANNELS = 64
FUSION_SIZE = 128
VIEWS = 6
VIEW_SHAPE = (450, 800)
WEATHER = ("rain", "fog", "snow")
# One timestamp per (kind, level) pair, so every run degrades the same mix.
DEGRADATIONS = (
    ("lowlight", "mild"),
    ("lowlight", "heavy"),
    ("rain", "light"),
    ("rain", "heavy"),
    ("fog", "light"),
    ("fog", "heavy"),
    ("snow", "heavy"),
)
FD_STEP = 1e-7
FD_TOL = 1e-4

# Per-layer spans. Names follow the module that defines the function.
SWEEP_LAYERS = (
    "cli.main",
    "bench.run_sweep",
    "cli.write_report_csv",
    "cli.emit_heatmap",
    "bench.gen_scene",
    "corruption.apply_corruption",
    "bench.pipeline_bev",
    "expansion.voxelize",
    "expansion.kernel_params",
    "expansion.expand",
    "expansion.merge_residual",
    "expansion.bev_project",
    "core.voxel_indices",
    "bench.metric_snr",
    "bench.metric_peak",
    "bench.metric_chamfer",
)
CAMERA_LAYERS = (
    "imaging.same_timestamp_consistency",
    "fusion.fuse_bev",
    "fusion.aggregate",
    "fusion.confidence_map",
    "fusion.weight_features",
    "fusion.concat_mm",
    "fusion.layer_norm",
    "fusion.attn_plain",
    "fusion.attn_weighted",
    "fusion.conv_merge",
    "fusion.fuse_bev_jvp",
)
# Spans with child spans; a leaf's self time equals its total.
COMPOSITE = {
    "cli.main",
    "bench.run_sweep",
    "bench.pipeline_bev",
    "expansion.voxelize",
    "expansion.expand",
    "fusion.fuse_bev",
    "fusion.concat_mm",
}
# Layers with at least 100 calls in a traced sweep-default run.
PERCENTILES = {
    "cli.emit_heatmap",
    "bench.pipeline_bev",
    "expansion.voxelize",
    "expansion.kernel_params",
    "expansion.expand",
    "expansion.merge_residual",
    "expansion.bev_project",
    "core.voxel_indices",
    "bench.metric_snr",
    "bench.metric_peak",
    "bench.metric_chamfer",
}
# (where the caller looks the function up, attribute, span name)
SWEEP_PATCHES = (
    ("rcbench.cli", "run_sweep", "bench.run_sweep"),
    ("rcbench.cli", "write_report_csv", "cli.write_report_csv"),
    ("rcbench.cli", "emit_heatmap", "cli.emit_heatmap"),
    ("rcbench.bench", "gen_scene", "bench.gen_scene"),
    ("rcbench.bench", "apply_corruption", "corruption.apply_corruption"),
    ("rcbench.bench", "pipeline_bev", "bench.pipeline_bev"),
    ("rcbench.bench", "voxelize", "expansion.voxelize"),
    ("rcbench.bench", "kernel_params_for_cloud", "expansion.kernel_params"),
    ("rcbench.bench", "expand", "expansion.expand"),
    ("rcbench.bench", "merge_residual", "expansion.merge_residual"),
    ("rcbench.bench", "bev_project", "expansion.bev_project"),
    ("rcbench.bench", "metric_snr", "bench.metric_snr"),
    ("rcbench.bench", "metric_peak", "bench.metric_peak"),
    ("rcbench.bench", "metric_chamfer", "bench.metric_chamfer"),
    ("rcbench.expansion", "voxel_indices", "core.voxel_indices"),
)


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, attempted: int, failures) -> None:
        self.attempted += attempted
        self.failed += min(len(failures), attempted)
        self.messages += list(failures)[: max(0, 10 - len(self.messages))]


def peak_rss_mb() -> float:
    """Peak RSS of this process or any child it waited for (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def keep_stepping(steps, started: float, seconds: float) -> bool:
    """Another step fits in the measuring window, or too few were taken."""
    if len(steps) < MIN_STEPS:
        return True
    return time.perf_counter() - started + statistics.median(steps) <= seconds


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def write_sweep_config(workload: str, seed: int, workdir: Path) -> Path:
    path = workdir / f"{workload}-seed{seed}.json"
    path.write_text(json.dumps({**SWEEPS[workload].config, "master_seed": seed}))
    return path


@dataclass
class CameraInputs:
    params: fusion.FusionParams
    f_image: fusion.FeatureMap
    f_radar: fusion.FeatureMap
    d_image: np.ndarray
    d_radar: np.ndarray
    frames: list
    timestamps: list


def degradation_specs(seed: int, maps: dict) -> list:
    """One timestamp spec per (kind, level) pair, seeds derived from ``seed``."""
    kinds = ("lowlight", *WEATHER)
    found = {}
    for t in range(10_000):
        spec = imaging.DegradationSpec(kinds=kinds, seed=derive64(seed, 3, t), maps=maps)
        kind, level, _ = imaging.sample_degradation(spec, Rng(spec.seed, stream=0))
        found.setdefault((kind, level), spec)
        if len(found) == len(DEGRADATIONS):
            return [found[pair] for pair in DEGRADATIONS]
    raise RuntimeError("degradation draws never covered every (kind, level)")


def camera_inputs(seed: int) -> CameraInputs:
    c, n = FUSION_CHANNELS, FUSION_SIZE
    params = fusion.random_fusion_params(c, Rng(derive64(seed, 1)))
    gen = Rng(derive64(seed, 2)).generator()
    f_image = fusion.FeatureMap(gen.normal(size=(c, n, n)))
    f_radar = fusion.FeatureMap(gen.normal(size=(c, n, n)))
    d_image = gen.normal(size=(c, n, n))
    d_radar = gen.normal(size=(c, n, n))
    frames = [imaging.ImagePlane(gen.uniform(size=(*VIEW_SHAPE, 3))) for _ in range(VIEWS)]
    maps = {k: imaging.DegradationMap(gen.uniform(size=VIEW_SHAPE), kind=k) for k in WEATHER}
    return CameraInputs(
        params, f_image, f_radar, d_image, d_radar, frames, degradation_specs(seed, maps)
    )


def build_inputs(workload: str, seed: int, workdir: Path):
    """Everything a run needs before its first timed step."""
    if workload in SWEEPS:
        return write_sweep_config(workload, seed, workdir)
    return camera_inputs(seed)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def run_cli(config: Path, out: Path, jobs: int, heatmaps: bool, rec=None):
    """One `bench run` through `rcbench.cli.main`; (exit code, seconds)."""
    shutil.rmtree(out, ignore_errors=True)
    argv = ["run", "--config", str(config), "--out-dir", str(out), "--jobs", str(jobs)]
    if heatmaps:
        argv.append("--emit-heatmaps")
    with rec.span("cli.main") if rec is not None else nullcontext():
        started = time.perf_counter()
        code = rcbench.cli.main(argv)
        seconds = time.perf_counter() - started
    return code, seconds


class SweepRunner:
    """Runs one sweep workload and checks each report it writes."""

    def __init__(self, workload: str, seed: int, workdir: Path, tally: Tally) -> None:
        self.w = SWEEPS[workload]
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.tally = tally
        self.reference = gate.read_report(REFERENCE_DIR / f"{workload}.csv")
        self.keys = [tuple(r[c] for c in gate.KEY_COLUMNS) for r in self.reference]
        self.config = write_sweep_config(workload, seed, workdir)

    def run(self, config: Path, out_name: str, jobs: int, reference, rec=None):
        """Run and gate one sweep; (seconds, digest of its output tree)."""
        out = self.workdir / out_name
        code, seconds = run_cli(config, out, jobs, self.w.heatmaps, rec)
        report = out / "report.csv"
        if code != 0 or not report.exists():
            failures = [f"bench run exited {code}"] * len(self.keys)
        else:
            failures = gate.check_report(
                gate.read_report(report), self.keys, self.w.scene_size, reference
            )
        self.tally.add(len(self.keys), failures)
        return seconds, gate.tree_digest(out)

    def check_reference(self) -> None:
        """The recorded seed's report, row for row; doubles as warm-up."""
        config = write_sweep_config(self.workload, REFERENCE_SEED, self.workdir)
        self.run(config, "reference", self.w.jobs, self.reference)

    def own_reference(self):
        return self.reference if self.seed == REFERENCE_SEED else None

    def same_bytes(self, digest: str, first: str) -> None:
        failures = [] if digest == first else ["output differs from the first run"]
        self.tally.add(1, failures)

    def measure(self, seconds: float) -> tuple[dict, list[float]]:
        self.check_reference()
        steps: list[float] = []
        first = None
        started = time.perf_counter()
        while keep_stepping(steps, started, seconds):
            wall, digest = self.run(self.config, "out", self.w.jobs, self.own_reference())
            steps.append(wall)
            if first is None:
                first = digest
            else:
                self.same_bytes(digest, first)
        return {"step_s": statistics.median(steps), "peak_rss_mb": peak_rss_mb()}, steps

    def trace(self) -> tuple[dict, Recorder]:
        self.check_reference()
        ref = self.own_reference()
        wall, digest = self.run(self.config, "untraced", self.w.jobs, ref)
        report = self.workdir / "untraced" / "report.csv"
        rows = gate.read_report(report) if report.exists() else []
        serial = wall
        if self.w.jobs > 1:
            serial, serial_digest = self.run(self.config, "serial", 1, ref)
            self.same_bytes(serial_digest, digest)
        rec = Recorder()
        counters = SweepCounters()
        for module, attr, name in SWEEP_PATCHES:
            rec.patch(module, attr, name, counters.observers.get(name))
        try:
            _, traced_digest = self.run(self.config, "traced", 1, ref, rec)
        finally:
            rec.unpatch()
        self.same_bytes(traced_digest, digest)
        traced = total_ns(rec.spans, "cli.main") / 1e9
        metrics = {
            **counters.metrics(),
            **report_quality(rows),
            "rows_per_s": len(rows) / wall,
            "bench.run_sweep.serial_s": serial,
            "trace.overhead_frac": traced / serial - 1.0,
        }
        return metrics, rec


class SweepCounters:
    """Exact counts taken at the wrapped layer boundaries."""

    def __init__(self) -> None:
        self.c = Counter()
        self.clouds: set[int] = set()
        self.pairs: set[tuple[int, int]] = set()
        self.observers = {
            "expansion.voxelize": self.voxelize,
            "bench.metric_chamfer": self.chamfer,
            "expansion.kernel_params": self.kernel_params,
            "corruption.apply_corruption": self.corruption,
        }

    def voxelize(self, args, kwargs, grid) -> None:
        cloud = args[0]
        self.clouds.add(hash(cloud.data.tobytes()))
        self.c["voxelize_calls"] += 1
        self.c["voxelize_points"] += len(cloud)
        self.c["out_of_range"] += grid.out_of_range

    def chamfer(self, args, kwargs, result) -> None:
        a, b = args
        self.pairs.add((hash(a.data.tobytes()), hash(b.data.tobytes())))
        self.c["chamfer_calls"] += 1
        self.c["chamfer_bytes"] += len(a) * len(b) * 3 * 8

    def kernel_params(self, args, kwargs, params) -> None:
        for p in params:
            self.c[f"l{p.lambda_p}"] += 1

    def corruption(self, args, kwargs, cloud) -> None:
        self.c["points_in"] += len(args[0])
        self.c["points_out"] += len(cloud)

    def metrics(self) -> dict:
        c = self.c
        return {
            "expansion.voxelize.distinct_frac": ratio(len(self.clouds), c["voxelize_calls"]),
            "bench.metric_chamfer.distinct_frac": ratio(len(self.pairs), c["chamfer_calls"]),
            "bench.metric_chamfer.bytes_computed": c["chamfer_bytes"],
            "expansion.out_of_range_frac": ratio(c["out_of_range"], c["voxelize_points"]),
            "expansion.kernel_class.l1": c["l1"],
            "expansion.kernel_class.l3": c["l3"],
            "expansion.kernel_class.l5": c["l5"],
            "corruption.points_in": c["points_in"],
            "corruption.points_out": c["points_out"],
        }


def ratio(num, den) -> float:
    return num / den if den else 0.0


def report_quality(rows) -> dict:
    """Peak consistency and SNR gain over the `3dge_*` rows of a report."""
    expanded = [r for r in rows if r["pipeline"].startswith("3dge")]
    gains = []
    for r in expanded:
        before, after = float(r["snr_before"]), float(r["snr_after"])
        if math.isfinite(before) and math.isfinite(after) and before > 0:
            gains.append(after / before)
    consistent = sum(r["peak_consistent"] == "true" for r in expanded)
    return {
        "peak_consistent_frac": ratio(consistent, len(expanded)),
        "snr_gain_median": statistics.median(gains) if gains else 0.0,
    }


# ---------------------------------------------------------------------------
# Camera degradation and fusion
# ---------------------------------------------------------------------------


def degrade_all(inputs: CameraInputs, rec=None) -> list:
    outs = []
    for spec in inputs.timestamps:
        with rec.span("imaging.same_timestamp_consistency") if rec else nullcontext():
            outs.append(imaging.same_timestamp_consistency(inputs.frames, spec))
    return outs


def frame_sums(outs) -> list[list[float]]:
    return [[float(f.data.sum()) for f in views] for views in outs]


def degrade_problems(outs) -> list[str]:
    """Invariants of one degraded timestamp set, for any seed."""
    problems = []
    for t, views in enumerate(outs):
        if len(views) != VIEWS:
            problems.append(f"timestamp {t}: {len(views)} views")
        for f in views:
            d = f.data
            if d.shape != (*VIEW_SHAPE, 3) or not (d.min() >= 0.0 and d.max() <= 1.0):
                problems.append(f"timestamp {t}: frame outside [0, 1] or misshapen")
                break
    return problems


def fuse_jvp(inputs: CameraInputs):
    return fusion.fuse_bev_jvp(
        inputs.f_image.data, inputs.d_image, inputs.f_radar.data, inputs.d_radar, inputs.params
    )


def compose_fuse_bev(inputs: CameraInputs, rec: Recorder) -> np.ndarray:
    """`fuse_bev` rebuilt from the public fusion ops, one span per stage."""
    fi, fp, p = inputs.f_image, inputs.f_radar, inputs.params
    with rec.span("fusion.aggregate"):
        query = fusion.aggregate(fi, fp, p)
    with rec.span("fusion.confidence_map"):
        m = fusion.confidence_map(fi, p.conf_mlp)
    with rec.span("fusion.weight_features"):
        fic, fpc = fusion.weight_features(fi, fp, m)
    with rec.span("fusion.concat_mm"):
        with rec.span("fusion.layer_norm"):
            a = fusion.layer_norm(fic, p.ln_weighted_image)
        with rec.span("fusion.layer_norm"):
            b = fusion.layer_norm(fpc, p.ln_weighted_radar)
        mm = fusion.FeatureMap(np.concatenate([a.data, b.data]))
    with rec.span("fusion.attn_plain"):
        value = fusion.FeatureMap(np.concatenate([fi.data, fp.data]))
        plain = fusion.deform_cross_attention(query, value, p.attn_plain)
    with rec.span("fusion.attn_weighted"):
        weighted = fusion.deform_cross_attention(query, mm, p.attn_weighted)
    with rec.span("fusion.conv_merge"):
        out = fusion.conv_merge(fusion.FeatureMap(plain.data + weighted.data), p.out_conv)
    return out.data


def fusion_work(c: int, h: int, w: int, heads: int, points: int) -> dict:
    """Computed flops and compulsory bytes of the fusion contractions.

    A contraction of ``cin`` to ``cout`` channels over n cells does
    2*cout*cin*n flops and must move its input, weights and output once
    (float64). Bilinear sampling and elementwise work are not counted.
    """
    n = h * w

    def contraction(cout, cin, taps=1):
        flops = 2 * cout * cin * taps * n
        return flops, 8 * (cin * n + cout * cin * taps + cout * n)

    conv = contraction(c, c, taps=9)
    parts = [
        contraction(c, 2 * c),  # aggregate
        contraction(16, c),  # confidence head, hidden layer
        contraction(2, 16),  # confidence head, logits
        conv,
    ]
    for _ in range(2):  # attention branches
        parts += [
            contraction(heads * 2 * points, c),  # offsets
            contraction(heads * points, c),  # weights
            contraction(c, 2 * c),  # output projection
        ]
    return {
        "fusion.conv_merge.flop_computed": conv[0],
        "fusion.conv_merge.bytes_computed": conv[1],
        "fusion.fuse_bev.flop_computed": sum(p[0] for p in parts),
        "fusion.fuse_bev.bytes_computed": sum(p[1] for p in parts),
    }


class CameraRunner:
    def __init__(self, seed: int, tally: Tally) -> None:
        self.seed = seed
        self.tally = tally

    def check_reference(self) -> None:
        """The recorded seed's fused map and degraded frames; doubles as warm-up."""
        want = json.loads((REFERENCE_DIR / "camera-fusion.json").read_text())
        ref = camera_inputs(REFERENCE_SEED)
        fused = fusion.fuse_bev(ref.f_image, ref.f_radar, ref.params).data
        ok = gate.checksums_close(gate.checksum(fused), want["fuse_bev"])
        self.tally.add(1, [] if ok else ["fuse_bev checksum differs from the reference"])
        sums = frame_sums(degrade_all(ref))
        bad = [
            f"timestamp {t} frame sums differ from the reference"
            for t, (got, exp) in enumerate(zip(sums, want["frame_sums"]))
            if not gate.checksums_close(got, exp)
        ]
        self.tally.add(len(sums), bad)

    def step(self, inputs: CameraInputs, first: dict | None):
        """Degrade every timestamp, fuse, and push a tangent; gate all three."""
        t0 = time.perf_counter()
        outs = degrade_all(inputs)
        t1 = time.perf_counter()
        fused = fusion.fuse_bev(inputs.f_image, inputs.f_radar, inputs.params).data
        t2 = time.perf_counter()
        primal, tangent = fuse_jvp(inputs)
        t3 = time.perf_counter()
        got = {"sums": frame_sums(outs), "fused": fused, "tangent": tangent}
        first = first or got
        changed = [] if got["sums"] == first["sums"] else ["degraded frames changed"]
        self.tally.add(len(outs), degrade_problems(outs) + changed)
        fused_ok = np.array_equal(fused, first["fused"]) and bool(np.isfinite(fused).all())
        self.tally.add(1, [] if fused_ok else ["fuse_bev output changed or non-finite"])
        jvp_ok = np.array_equal(primal, fused) and np.array_equal(tangent, first["tangent"])
        self.tally.add(1, [] if jvp_ok else ["fuse_bev_jvp disagrees with fuse_bev"])
        return (t1 - t0, t2 - t1, t3 - t2), first

    def measure(self, seconds: float) -> tuple[dict, list[float]]:
        self.check_reference()
        inputs = camera_inputs(self.seed)
        steps: list[float] = []
        first = None
        started = time.perf_counter()
        while keep_stepping(steps, started, seconds):
            times, first = self.step(inputs, first)
            steps.append(sum(times))
        return {"step_s": statistics.median(steps), "peak_rss_mb": peak_rss_mb()}, steps

    def trace(self) -> tuple[dict, Recorder]:
        self.check_reference()
        inputs = camera_inputs(self.seed)
        (t_deg, t_fwd, t_jvp), first = self.step(inputs, None)
        rec = Recorder()
        degrade_all(inputs, rec)
        with rec.span("fusion.fuse_bev"):
            composed = compose_fuse_bev(inputs, rec)
        with rec.span("fusion.fuse_bev_jvp"):
            primal, tangent = fuse_jvp(inputs)
        same = np.array_equal(composed, first["fused"])
        self.tally.add(1, [] if same else ["composed stages differ from fuse_bev"])
        jvp_same = np.array_equal(primal, first["fused"]) and np.array_equal(
            tangent, first["tangent"]
        )
        self.tally.add(1, [] if jvp_same else ["traced fuse_bev_jvp differs"])
        fd_err = self.fd_error(inputs, tangent)
        fd_ok = fd_err < FD_TOL
        self.tally.add(1, [] if fd_ok else [f"JVP finite-difference error {fd_err:.2e}"])
        p = inputs.params
        work = fusion_work(FUSION_CHANNELS, FUSION_SIZE, FUSION_SIZE, p.heads, p.points)
        untraced = t_deg + t_fwd + t_jvp
        top = ("imaging.same_timestamp_consistency", "fusion.fuse_bev", "fusion.fuse_bev_jvp")
        traced = sum(total_ns(rec.spans, name) for name in top) / 1e9
        metrics = {
            **work,
            "fusion.conv_merge.gflops": work["fusion.conv_merge.flop_computed"]
            / total_ns(rec.spans, "fusion.conv_merge"),
            "fusion.fuse_bev.gflops": work["fusion.fuse_bev.flop_computed"]
            / total_ns(rec.spans, "fusion.fuse_bev"),
            "fusion.fuse_bev_jvp.fd_rel_err": fd_err,
            "fuse_fwd_s": t_fwd,
            "fuse_jvp_s": t_jvp,
            "camera_degrade_s": t_deg / len(inputs.timestamps),
            "trace.overhead_frac": traced / untraced - 1.0,
        }
        return metrics, rec

    @staticmethod
    def fd_error(inputs: CameraInputs, tangent: np.ndarray) -> float:
        """Norm-relative error of a central difference against the JVP."""
        fi, fp, p = inputs.f_image.data, inputs.f_radar.data, inputs.params

        def at(step):
            return fusion.fuse_bev(
                fusion.FeatureMap(fi + step * inputs.d_image),
                fusion.FeatureMap(fp + step * inputs.d_radar),
                p,
            ).data

        fd = (at(FD_STEP) - at(-FD_STEP)) / (2 * FD_STEP)
        return float(np.linalg.norm(fd - tangent) / np.linalg.norm(tangent))


# ---------------------------------------------------------------------------
# Criterion-4 rates, the acceptance suite's known-red peak checks
# ---------------------------------------------------------------------------

CRITERION4 = (
    ("criterion4.spurious", CorruptionKind.SPURIOUS_POINTS),
    ("criterion4.point-shift", CorruptionKind.POINT_SHIFTING),
    ("criterion4.non-positional", CorruptionKind.NON_POSITIONAL_DISTURBANCE),
)


def criterion4_counts() -> dict:
    """Replicates out of 100 whose 3dge_planar peak cell matches the clean
    scene's, at sigma=5 on the scripted scene (the acceptance recipe)."""
    grid = default_grid()
    scene = scripted_scene(0)
    clean = pipeline_bev(scene.cloud, grid, "3dge_planar")
    counts = {}
    for kind_id, (name, kind) in enumerate(CRITERION4):
        hits = 0
        for rep in range(100):
            spec = CorruptionSpec(kind=kind, seed=derive64(scene.seed, kind_id, rep), sigma=5.0)
            corrupted = apply_corruption(scene.cloud, spec, boxes=scene.boxes, bounds=grid)
            hits += metric_peak(clean, pipeline_bev(corrupted, grid, "3dge_planar"))[0]
        counts[name] = hits
    return counts


# ---------------------------------------------------------------------------
# Entry points used by child.py
# ---------------------------------------------------------------------------


def runner(workload: str, seed: int, workdir: Path, tally: Tally):
    if workload in SWEEPS:
        return SweepRunner(workload, seed, workdir, tally)
    return CameraRunner(seed, tally)


def measure(workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    tally = Tally()
    metrics, steps = runner(workload, seed, workdir, tally).measure(seconds)
    return {"tally": tally, "metrics": metrics, "steps_s": steps}


def trace(workload: str, seed: int, workdir: Path) -> dict:
    """Per-layer figures; the spans are kept beside the run's work directory."""
    tally = Tally()
    metrics, rec = runner(workload, seed, workdir, tally).trace()
    metrics.update(summarize(rec.spans, SWEEP_LAYERS + CAMERA_LAYERS, COMPOSITE, PERCENTILES))
    metrics.update(criterion4_counts())
    metrics["failed_frac"] = tally.failed / tally.attempted
    spans = [[s.name, s.start_ns, s.end_ns, s.parent] for s in rec.spans]
    (workdir.parent / f"spans-{workload}-seed{seed}.json").write_text(json.dumps(spans))
    return {"tally": tally, "metrics": metrics}


def record_references(workdir: Path) -> None:
    """Write the reference files from the current program, for REFERENCE_SEED."""
    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload, w in SWEEPS.items():
        config = write_sweep_config(workload, REFERENCE_SEED, workdir)
        out = workdir / "record"
        code, _ = run_cli(config, out, w.jobs, w.heatmaps)
        if code != 0:
            raise RuntimeError(f"{workload}: bench run exited {code}")
        shutil.copyfile(out / "report.csv", REFERENCE_DIR / f"{workload}.csv")
    ref = camera_inputs(REFERENCE_SEED)
    fused = fusion.fuse_bev(ref.f_image, ref.f_radar, ref.params).data
    payload = {"fuse_bev": gate.checksum(fused), "frame_sums": frame_sums(degrade_all(ref))}
    (REFERENCE_DIR / "camera-fusion.json").write_text(json.dumps(payload, indent=1) + "\n")
