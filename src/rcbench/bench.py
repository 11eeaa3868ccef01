"""Synthetic-scene robustness harness.

Generates seeded scenes shaped like real radar frames (dense target
clusters plus sparse isolated clutter), applies corruption sweeps,
optionally runs the Gaussian-expansion pipeline, and measures noise
suppression and peak preservation into CSV reports and PGM heatmaps.
"""

from __future__ import annotations

import atexit
import functools
import json
import math
import os
from collections import deque
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field, fields
from enum import Enum
from pathlib import Path

import numpy as np

from .core import (
    BoxAnnotation,
    GridSpec,
    PointCloud,
    Rng,
    Scene,
    bounded_runs,
    default_grid,
    derive64,
    float_bits,
    in_box_footprint,
    is_int,
    read_only,
    write_csv,
)
from .corruption import (
    DEFAULT_BEAM_COUNT,
    DEFAULT_SPURIOUS_RATIO,
    SIGMA_KINDS,
    SIGMA_RANGE,
    CorruptionKind,
    CorruptionSpec,
    SpuriousMode,
    apply_corruption,
    check_count,
    spec_for_level,
)
# voxelize, expand, merge_residual and bev_project stay importable here, where
# perfbench wraps the sweep's layers, though the sweep no longer calls them.
from .expansion import (  # noqa: F401
    DEPOSIT_BATCH_POINTS,
    ISOTROPIC_3D,
    PLANAR_XY,
    ProjectorWeights,
    bev_project,
    column_bevs,
    expand,
    kernel_params_for_cloud,
    load_projector_weights,
    merge_residual,
    residual_columns,
    voxelize,
)

PIPELINES = ("raw", "3dge_planar", "3dge_isotropic")
PIPELINE_MODES = {"3dge_planar": PLANAR_XY, "3dge_isotropic": ISOTROPIC_3D}

# The fixed parts of every synthetic scene: a cluster's disc radius and box
# height, and the ranges that RCS and Doppler values are drawn from.
CLUSTER_RADIUS_M = 2.0
BOX_HEIGHT_M = 2.0
TARGET_RCS_RANGE = (5.0, 10.0)
NOISE_RCS_RANGE = (0.5, 2.0)
DOPPLER_RANGE = (-5.0, 5.0)
# The grid every sweep runs on.
SWEEP_GRID = default_grid()
# The most consecutive tasks in a sweep unit, whose clouds deposit together.
BATCH_TASKS = 3
# Tasks whose heatmaps may wait behind the one being written; then the
# sweep waits, so memory stays bounded by a few tasks however slow the disk.
HEATMAP_BACKLOG = 2
# Raw file calls, not Path.write_bytes: fewer system calls, each of which
# a writer thread must win the interpreter lock back after. O_BINARY keeps
# Windows from translating newlines.
PGM_OPEN_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | getattr(os, "O_BINARY", 0)
# The longest error text a sweep keeps, in a row or sent back by a pool worker.
ERROR_CHARS = 160

# Point pairs, or (query, bucket) lookups, that metric_chamfer takes at once,
# about: 8192 pairs hold 192 KiB of coordinate differences.
CHAMFER_BLOCK = 1 << 13
# Points per nearest-neighbour bucket that metric_chamfer aims for, and its
# cap on buckets per axis. A cloud of fewer than twice that many points is
# one bucket, and so is the default 80-point scene. Where the queries meet
# more than twice that many points in their own buckets, the buckets shrink
# by that load.
CHAMFER_BUCKET_POINTS = 32
CHAMFER_MAX_BUCKETS = 64
# Relative slack on a lower bound (a ring's or a bucket's), on the bound itself
# and on the largest coordinate. Bucket keys, bucket faces, bounds and
# distances each round by a few ulps of those; this is far above that.
CHAMFER_SLACK = 1e-12
# Odd multipliers that fold the three float64 bit patterns of a row into one hash.
_XYZ_HASH = np.array(
    [0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9], dtype=np.uint64
)

# Clean fraction of the noisy-training data recipe.
MANIFEST_CLEAN_RATIO = 0.8

REPORT_COLUMNS = (
    "kind",
    "level",
    "replicate",
    "pipeline",
    "snr_before",
    "snr_after",
    "peak_consistent",
    "peak_l2_cells",
    "chamfer_m",
    "points_in",
    "points_out",
    "wall_ms",
)

# Stable per-kind ids feeding the row-seed hash; never reorder.
KIND_IDS = {
    CorruptionKind.KEY_POINT_MISSING: 1,
    CorruptionKind.SPURIOUS_POINTS: 2,
    CorruptionKind.POINT_SHIFTING: 3,
    CorruptionKind.NON_POSITIONAL_DISTURBANCE: 4,
    CorruptionKind.BEAM_DROP: 5,
}


class ConfigError(ValueError):
    """Raised for malformed or inconsistent sweep configuration."""


@dataclass(frozen=True)
class SceneConfig:
    """Synthetic scene recipe: dense annotated clusters plus sparse clutter."""

    cluster_count: int = 1
    points_per_cluster: int = 30
    noise_points: int = 50

    def __post_init__(self) -> None:
        for name in ("cluster_count", "points_per_cluster", "noise_points"):
            if not is_int(getattr(self, name)) or getattr(self, name) < 0:
                raise ConfigError(f"{name} must be a non-negative integer")


@dataclass(frozen=True)
class SweepEntry:
    """One corruption kind with its severity levels and fixed parameters."""

    kind: CorruptionKind
    levels: tuple[float, ...]
    mode: SpuriousMode = SpuriousMode.POINT_RELATED
    spurious_ratio: float = DEFAULT_SPURIOUS_RATIO
    gamma: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", CorruptionKind(self.kind))
        object.__setattr__(self, "mode", SpuriousMode(self.mode))
        # float() takes strings and bools, and would read "35" as the levels 3 and 5.
        if any(isinstance(lv, (str, bool)) for lv in self.levels):
            raise ConfigError(f"{self.kind.value} levels must be a list of numbers")
        levels = tuple(float(lv) for lv in self.levels)
        if not levels:
            raise ConfigError(f"empty level list for {self.kind.value}")
        object.__setattr__(self, "levels", levels)
        try:
            for level in levels:
                self.spec_for(level, seed=0)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def spec_for(self, level: float, seed: int) -> CorruptionSpec:
        return spec_for_level(
            self.kind, level, seed, self.mode, self.spurious_ratio, self.gamma
        )


@dataclass(frozen=True)
class SweepConfig:
    scene: SceneConfig = field(default_factory=SceneConfig)
    corruptions: tuple[SweepEntry, ...] = ()
    pipelines: tuple[str, ...] = ("raw", "3dge_planar")
    # The learned projector's weights file; None selects the heuristic.
    projector_weights: str | None = None
    replicates: int = 10
    master_seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "corruptions", tuple(self.corruptions))
        object.__setattr__(self, "pipelines", tuple(self.pipelines))
        if self.scene.cluster_count == 0:
            raise ConfigError("scene.cluster_count must be at least 1: rows score the cluster boxes")
        if not self.corruptions:
            raise ConfigError("at least one corruption entry is required")
        if not self.pipelines:
            raise ConfigError("at least one pipeline is required")
        for pipeline in self.pipelines:
            if pipeline not in PIPELINES:
                raise ConfigError(f"unknown pipeline {pipeline!r}")
        if len(set(self.pipelines)) != len(self.pipelines):
            raise ConfigError(f"duplicate pipeline in {list(self.pipelines)}")
        if self.projector_weights is not None and not (
            isinstance(self.projector_weights, str) and self.projector_weights
        ):
            raise ConfigError("projector_weights must be a non-empty path or null")
        if not is_int(self.replicates) or self.replicates < 1:
            raise ConfigError("replicates must be a positive integer")
        if not is_int(self.master_seed) or not 0 <= self.master_seed < 1 << 64:
            raise ConfigError("master_seed must be an integer in [0, 2**64)")
        # Count bounds that hold whatever the scene; n // 2 is checked per row.
        try:
            for entry in self.corruptions:
                if entry.kind not in SIGMA_KINDS:
                    for level in entry.levels:
                        check_count(entry.kind, int(level), entry.gamma)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        # Heatmap names carry the level as {level:g}, so two levels that
        # print alike there are one pair too.
        seen = set()
        for entry in self.corruptions:
            for level in entry.levels:
                pair = (entry.kind.value, f"{level:g}")
                if pair in seen:
                    raise ConfigError(f"duplicate (kind, level) pair {pair}")
                seen.add(pair)


def default_sweep_config() -> SweepConfig:
    """The default sweep: four corruption kinds at two levels each."""
    return SweepConfig(
        corruptions=(
            SweepEntry(kind=CorruptionKind.SPURIOUS_POINTS, levels=(3.0, 5.0)),
            SweepEntry(kind=CorruptionKind.NON_POSITIONAL_DISTURBANCE, levels=(3.0, 5.0)),
            SweepEntry(kind=CorruptionKind.BEAM_DROP, levels=(10, 14)),
            SweepEntry(kind=CorruptionKind.POINT_SHIFTING, levels=(3.0, 5.0)),
        )
    )


def _tupled(value):
    if isinstance(value, list):
        return tuple(_tupled(v) for v in value)
    return value


def _from_json(cls, payload, context: str, **built):
    """``cls(**payload)`` with JSON arrays as tuples; ``built`` holds nested objects."""
    if not isinstance(payload, dict):
        raise ConfigError(f"{context} must be a JSON object")
    unknown = set(payload) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {context} fields: {sorted(unknown)}")
    return cls(**{**{k: _tupled(v) for k, v in payload.items()}, **built})


def sweep_config_from_json_dict(payload: dict) -> SweepConfig:
    """Parse a sweep config; its keys are the fields of the config dataclasses."""
    try:
        if not isinstance(payload, dict):
            raise ConfigError("config root must be a JSON object")
        built = {}
        if "scene" in payload:
            built["scene"] = _from_json(SceneConfig, payload["scene"], "scene")
        entries = tuple(
            _from_json(SweepEntry, entry, "corruption entry")
            for entry in payload.get("corruptions", ())
        )
        built["corruptions"] = entries or default_sweep_config().corruptions
        return _from_json(SweepConfig, payload, "config", **built)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid sweep config: {exc}") from exc


def _jsonable(value):
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def sweep_config_to_json_dict(cfg: SweepConfig) -> dict:
    return _jsonable(asdict(cfg))


def load_sweep_config(path) -> SweepConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return sweep_config_from_json_dict(payload)


def gen_scene(cfg: SceneConfig, grid: GridSpec, rng: Rng, centers=None) -> Scene:
    """Deterministic synthetic scene: annotated clusters plus clutter.

    Cluster points are uniform over a planar disc at the cluster center;
    each cluster gets a box annotation twice the cluster radius in planar
    extent. Clutter points are uniform over the whole grid volume. Cluster
    centers are drawn a cluster radius inside the grid, unless ``centers``
    gives one ``(x, y, z)`` per cluster.
    """
    gen = rng.generator()
    rows = []
    boxes = []
    (x_lo, x_hi), (y_lo, y_hi), (z_lo, z_hi) = grid.ranges
    side = 2.0 * CLUSTER_RADIUS_M
    for ci in range(cfg.cluster_count):
        if centers is not None:
            cx, cy, cz = centers[ci]
        else:
            margin = CLUSTER_RADIUS_M
            cx = float(gen.uniform(x_lo + margin, x_hi - margin))
            cy = float(gen.uniform(y_lo + margin, y_hi - margin))
            cz = 0.0
        n = cfg.points_per_cluster
        radius = CLUSTER_RADIUS_M * np.sqrt(gen.uniform(0.0, 1.0, size=n))
        theta = gen.uniform(0.0, 2.0 * math.pi, size=n)
        cluster = np.column_stack(
            [
                cx + radius * np.cos(theta),
                cy + radius * np.sin(theta),
                np.full(n, cz),
                gen.uniform(*TARGET_RCS_RANGE, size=n),
                gen.uniform(*DOPPLER_RANGE, size=n),
            ]
        )
        rows.append(cluster)
        boxes.append(BoxAnnotation(center=(cx, cy, cz), size=(side, side, BOX_HEIGHT_M), yaw=0.0))
    m = cfg.noise_points
    if m:
        rows.append(
            np.column_stack(
                [
                    gen.uniform(x_lo, x_hi, size=m),
                    gen.uniform(y_lo, y_hi, size=m),
                    gen.uniform(z_lo, z_hi, size=m),
                    gen.uniform(*NOISE_RCS_RANGE, size=m),
                    gen.uniform(*DOPPLER_RANGE, size=m),
                ]
            )
        )
    data = np.vstack(rows) if rows else np.empty((0, 5))
    cloud = PointCloud(data=data, frame_id=f"{rng.seed:016x}")
    return Scene(cloud=cloud, boxes=tuple(boxes), seed=rng.seed)


def scripted_scene(seed: int) -> Scene:
    """The canonical single-cluster benchmark scene on the default grid."""
    return gen_scene(SceneConfig(), default_grid(), Rng(seed), centers=((10.0, 5.0, 0.0),))


def pipeline_bev(
    cloud: PointCloud,
    grid: GridSpec,
    pipeline: str,
    weights: ProjectorWeights | None = None,
) -> np.ndarray:
    """BEV heatmap of a cloud under one of the named pipelines."""
    if pipeline not in PIPELINES:
        raise ValueError(f"unknown pipeline {pipeline!r}")
    modes = [PIPELINE_MODES[pipeline]] if pipeline in PIPELINE_MODES else []
    params = kernel_params_for_cloud(cloud, weights) if modes else None
    ((cols, amps),) = residual_columns([cloud], grid, [params], modes)
    return column_bevs(grid, cols, amps)[-1]


@functools.lru_cache(maxsize=1)
def _planar_box_mask(bev_shape: tuple, boxes: tuple, spec: GridSpec) -> np.ndarray:
    """Cells whose centers fall in some box footprint, read-only; raises if none can. Each box
    is tested only within a cell of its half-diagonal. The last mask is kept for the next ask."""
    if not boxes:
        raise ValueError("metric_snr requires at least one box")
    nx, ny = bev_shape
    csx, csy, _ = spec.cell_sizes
    centers_x = spec.x_range[0] + (np.arange(nx) + 0.5) * csx
    centers_y = spec.y_range[0] + (np.arange(ny) + 0.5) * csy
    mask = np.zeros((nx, ny), dtype=bool)
    for box in boxes:
        r = math.hypot(*box.size[:2]) / 2.0
        x0, x1 = np.searchsorted(centers_x, (box.center[0] - r - csx, box.center[0] + r + csx))
        y0, y1 = np.searchsorted(centers_y, (box.center[1] - r - csy, box.center[1] + r + csy))
        mask[x0:x1, y0:y1] |= in_box_footprint(centers_x[x0:x1, None], centers_y[None, y0:y1], box)
    if not mask.any():
        raise ValueError("no grid cells fall inside the boxes")
    return read_only(mask)


def metric_snr(bev: np.ndarray, boxes, spec: GridSpec) -> float:
    """In-box vs out-of-box mean amplitude ratio of a BEV heatmap.

    The numerator averages |heatmap| over every cell whose center falls
    in some box footprint; the denominator averages over occupied cells
    outside all boxes. With no occupied outside cells the ratio is +inf.
    """
    in_mask = _planar_box_mask(np.shape(bev), tuple(boxes), spec)
    amplitude = np.abs(np.asarray(bev, dtype=np.float64))
    outside_occupied = ~in_mask & (amplitude > 0.0)
    if not outside_occupied.any():
        return math.inf
    return float(amplitude[in_mask].mean() / amplitude[outside_occupied].mean())


def metric_peak(clean_bev: np.ndarray, processed_bev: np.ndarray) -> tuple[bool, float]:
    """Compare argmax cells (row-major first-occurrence tie-break)."""
    clean_bev = np.asarray(clean_bev)
    processed_bev = np.asarray(processed_bev)
    if clean_bev.shape != processed_bev.shape:
        raise ValueError("heatmaps must share a shape")
    a = np.unravel_index(int(np.argmax(clean_bev)), clean_bev.shape)
    b = np.unravel_index(int(np.argmax(processed_bev)), processed_bev.shape)
    l2 = math.dist(a, b)
    return a == b, l2


def _unmatched(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Indices of the xyz rows of q whose bytes occur in no xyz row of p.

    One hash per row, one sort of p's hashes, then a byte compare with the
    row of p that q's hash finds. A row that differs only in the sign of a
    zero, or whose hash collides with another row's, counts as unmatched;
    the exact search then handles it.
    """
    qu, pu = q.view(np.uint64), p.view(np.uint64)
    hashes = pu.dot(_XYZ_HASH)
    order = np.argsort(hashes)
    at = np.searchsorted(hashes, qu.dot(_XYZ_HASH), sorter=order)
    twin = order[np.minimum(at, len(order) - 1)]
    return np.flatnonzero((qu != pu[twin]).any(axis=1))


def _bucket_cells(extent: list[float], buckets: float) -> list[int]:
    """Buckets per axis for about ``buckets`` near-cubic buckets spanning ``extent``.

    An axis too thin for one bucket side is not split, no axis gets more
    than CHAMFER_MAX_BUCKETS, and fewer than two buckets make one.
    """
    cells = [1, 1, 1]
    top = max(extent)
    if not (math.isfinite(top) and top > 0 and buckets >= 2):
        return cells
    axes = sorted(range(3), key=lambda k: -extent[k])
    for dims in (3, 2, 1):
        side = (math.prod(extent[k] / top for k in axes[:dims]) / buckets) ** (1 / dims)
        if side > 0 and extent[axes[dims - 1]] / top >= side:
            break
    for k in axes[:dims]:
        cells[k] = min(CHAMFER_MAX_BUCKETS, max(1, int(extent[k] / top / side)))
    return cells


def _distances(q: np.ndarray, who: np.ndarray, p: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Distance from column ``who[i]`` of q to column ``pts[i]`` of p, for every i."""
    diff = q.take(who, axis=1) - p.take(pts, axis=1)
    return np.sqrt((diff * diff).sum(axis=0))


def _norm(parts: np.ndarray, scale: float) -> np.ndarray:
    """Euclidean norm over the first axis of ``parts``, taken on parts divided
    by ``scale``, a power of two near the largest, so no square overflows."""
    parts = parts / scale
    return np.sqrt((parts * parts).sum(axis=0)) * scale


def _shell(r: int, last: np.ndarray) -> np.ndarray:
    """(3, k) bucket offsets at Chebyshev distance r, none past ``last`` on
    any axis: the faces at -r and r of each axis that reaches r."""
    if r == 0:
        return np.zeros((3, 1), dtype=np.int64)
    faces = [np.zeros((3, 0), dtype=np.int64)]
    for a in np.flatnonzero(last[:, 0] >= r):
        # Axes before a stop short of r, so no offset lies on two faces.
        reach = np.minimum(last[:, 0], [r - 1 if b < a else r for b in range(3)])
        spans = [np.arange(-k, k + 1) for k in reach]
        spans[a] = np.array([-r, r])
        faces.append(np.stack(np.meshgrid(*spans, indexing="ij")).reshape(3, -1))
    return np.concatenate(faces, axis=1)


class _Buckets:
    """The columns of p sorted into a uniform grid of ``cells`` buckets over
    p's box (low corner ``lo``): a dense table of each bucket's count and
    first point, and one more, empty bucket that keys off the grid read."""

    def __init__(self, p: np.ndarray, lo: np.ndarray, extent: np.ndarray, cells: np.ndarray):
        self.cells, self.lo = [int(c) for c in cells], lo
        self.split = np.flatnonzero(cells > 1)
        self.size = np.zeros((3, 1))
        self.size[self.split, 0] = extent[self.split] / cells[self.split]
        self.last = (cells - 1)[:, None]
        self.stride = np.array([cells[1] * cells[2], cells[2], 1])
        flat = self.stride @ self.keys(p)
        self.count = np.bincount(flat, minlength=cells.prod() + 1)
        self.first = np.cumsum(self.count) - self.count
        self.p = p.take(np.argsort(flat, kind="stable"), axis=1)

    def keys(self, x: np.ndarray) -> np.ndarray:
        """Bucket keys of the columns of x, clipped to the grid."""
        k = np.zeros(x.shape, dtype=np.int64)
        s = self.split
        k[s] = np.clip(np.floor((x[s] - self.lo[s]) / self.size[s]), 0, self.last[s])
        return k

    def looked_up(self, near: np.ndarray, shell: np.ndarray):
        """``(rows, buckets, offsets)``: each occupied bucket at an offset of
        ``shell`` from a key column of ``near``, found in the table."""
        nb = (self.stride @ near)[:, None] + (self.stride @ shell)
        for k in self.split:
            # A negative key reads as a huge unsigned one, so one compare bounds the axis.
            nb[(near[k, :, None] + shell[k]).view(np.uint64) >= self.cells[k]] = -1
        rows, cols = np.nonzero(self.count[nb])
        return rows, nb[rows, cols], shell[:, cols]


def _search(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Distance from each column of q to its nearest column of p.

    Both are (3, k) coordinate-major arrays. p goes into ``_Buckets``, and
    each query visits Chebyshev rings of buckets around its own, ring by
    ring for all pending queries at once. A ring's buckets come from its
    shell of offsets, enumerated once and looked up in the table for every
    pending query. A bucket whose box is no nearer than the query's best so
    far is skipped. A query is done when its best distance is 0.0, when its
    best is below the distance to the ring's outer faces less a slack, or
    when its rings cover every occupied bucket. Lookups and candidate point
    pairs go in runs of about CHAMFER_BLOCK.
    """
    n = p.shape[1]
    lo, hi = p.min(axis=1), p.max(axis=1)
    extent = hi - lo
    target = n / CHAMFER_BUCKET_POINTS
    cells = np.array(_bucket_cells(extent.tolist(), target))
    if (cells == 1).all():
        # One bucket: ring 0 holds all of p for every query.
        out = np.empty(q.shape[1])
        step = max(1, CHAMFER_BLOCK // n)
        for start in range(0, q.shape[1], step):
            diff = q[:, start : start + step, None] - p[:, None, :]
            out[start : start + step] = np.sqrt((diff * diff).sum(axis=0)).min(axis=1)
        return out
    slack = CHAMFER_SLACK * max(np.abs(lo).max(), np.abs(hi).max())
    lo = lo[:, None]
    grid = _Buckets(p, lo, extent, cells)
    # Queries in dense clusters of p meet far more points in their own bucket
    # than p's mean suggests; then the buckets shrink by that load.
    load = grid.count[grid.stride @ grid.keys(q)].mean()
    if load > 2 * CHAMFER_BUCKET_POINTS:
        del grid
        cells = np.array(_bucket_cells(extent.tolist(), target * load / CHAMFER_BUCKET_POINTS))
        grid = _Buckets(p, lo, extent, cells)
    size, last = grid.size, grid.last
    qk = grid.keys(q)
    face = lo + qk * size
    # Per query and axis: the distance to the low face of its own bucket, how
    # far it lies outside p's box (no point of p is nearer), and the distance to
    # the high face. Entry 9 * query + 3 * axis + sign(offset) + 1 is the
    # nearest face of a bucket at that offset, with no ring added.
    faces = np.empty((q.shape[1], 3, 3))
    faces[:, :, 0] = (q - face).T
    faces[:, :, 1] = np.maximum(0.0, np.maximum(lo - q, q - hi[:, None])).T
    faces[:, :, 2] = (face + size - q).T
    faces = faces.ravel()
    del face
    scale = np.ldexp(1.0, np.frexp(max(np.abs(q).max(), np.abs(p).max()))[1] - 1)
    # Rings past this one hold no occupied bucket, on any axis.
    far = np.maximum(qk, last - qk).max(axis=0)
    best = np.full(q.shape[1], np.inf)
    pending = np.arange(q.shape[1])
    ring = 0
    while pending.size:
        shell = _shell(ring, last)
        step = max(1, CHAMFER_BLOCK // shell.shape[1])
        stay = []
        for a in range(0, pending.size, step):
            block = pending[a : a + step]
            near = qk.take(block, axis=1)
            rows, buckets, off = grid.looked_up(near, shell)
            if ring:
                # Skip a bucket whose box is no nearer than the query's best so
                # far, less the slack of the stop test; ring 0 has no best yet.
                who = block[rows]
                nearest = faces.take(9 * who + np.sign(off) + [[1], [4], [7]])
                bound = _norm(nearest + np.maximum(np.abs(off) - 1, 0) * size, scale)
                keep = np.flatnonzero(best[who] > bound * (1 - CHAMFER_SLACK) - slack)
                rows, buckets = rows[keep], buckets[keep]
            sizes = grid.count[buckets]
            # Expand each (query, bucket) pair to the bucket's points, in bounded runs.
            for c, d in bounded_runs(sizes, CHAMFER_BLOCK):
                got, many = rows[c:d], sizes[c:d]
                start = np.cumsum(many) - many
                who = np.repeat(block[got], many)
                pts = np.arange(who.size) + np.repeat(grid.first[buckets[c:d]] - start, many)
                dist = _distances(q, who, grid.p, pts)
                new = np.flatnonzero(np.diff(got, prepend=-1))
                hit = block[got[new]]
                best[hit] = np.minimum(best[hit], np.minimum.reduceat(dist, start[new]))
            # The block's queries are done with this ring: the stop test.
            block = block[far[block] > ring]
            kb = qk.take(block, axis=1)
            below, beyond, above = (faces.take(9 * block + [[k], [k + 3], [k + 6]]) for k in range(3))
            gap = np.minimum(
                np.where(kb > ring, below + ring * size, np.inf),
                np.where(kb + ring < last, above + ring * size, np.inf),
            )
            # Past the ring on one axis, and no nearer than p's box on the other two.
            gap = _norm(np.stack([gap, beyond[[1, 0, 0]], beyond[[2, 2, 1]]]), scale).min(axis=0)
            left = best[block]
            stay.append(block[(left > 0) & (left > gap * (1 - CHAMFER_SLACK) - slack)])
        pending = np.concatenate(stay)
        ring += 1
    return best


def _nearest(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Distance from each xyz row of q to its nearest xyz row of p."""
    out = np.zeros(len(q))
    rest = _unmatched(q, p)
    if rest.size:
        out[rest] = _search(q[rest].T.copy(), p.T.copy())
    return out


def metric_chamfer(a: PointCloud, b: PointCloud) -> float:
    """Symmetric Chamfer distance between the positions of two clouds.

    It is half the sum of the two directions' mean nearest-neighbour
    distances, and it equals a brute-force O(|a| |b|) scan bit for bit.

    Exact matches go first: a row whose xyz bytes also occur in the other
    cloud is at distance +0.0, found with one hash-and-sort pass. Most
    corruptions keep rows bit for bit (they remove or append rows, or
    leave xyz alone), so this settles most rows. A -0.0 against a +0.0
    does not match. Every other row goes to an exact bucketed
    nearest-neighbour search over the other cloud: a uniform grid of
    buckets, visited in Chebyshev rings until no unvisited bucket can hold
    a nearer point, skipping any bucket that cannot. Each candidate
    distance is ``np.sqrt((diff * diff).sum(...))`` over the three
    coordinates, as in the scan, and is folded with ``np.minimum``, so every
    row minimum is the scan's. The candidate pairs, and the bucket lookups
    that find them, go in runs of about CHAMFER_BLOCK, so the working set is
    a few per-row arrays and one run, however the points fall into buckets.
    A cloud kept in one bucket is scanned in blocks of
    ``CHAMFER_BLOCK // len(other)`` rows.
    """
    if len(a) == 0 or len(b) == 0:
        raise ValueError("chamfer distance requires non-empty clouds")
    return float(0.5 * (_nearest(a.xyz, b.xyz).mean() + _nearest(b.xyz, a.xyz).mean()))


@dataclass(frozen=True)
class BenchRow:
    kind: str
    level: float
    replicate: int
    pipeline: str
    snr_before: float | None = None
    snr_after: float | None = None
    peak_consistent: bool | None = None
    peak_l2_cells: float | None = None
    chamfer_m: float | None = None
    points_in: int | None = None
    points_out: int | None = None
    error: str | None = None


def _deposited(tasks) -> list:
    """Per task ``(cfg, entry, level, replicate, weights)`` of a sweep, its scene, its
    corrupted cloud or the exception that stopped it, and one call's ``residual_columns``
    of both clouds."""
    modes = [PIPELINE_MODES[p] for p in tasks[0][0].pipelines if p != "raw"]
    done, clouds, params = [], [], []
    for cfg, entry, level, replicate, weights in tasks:
        row_seed = derive64(cfg.master_seed, KIND_IDS[entry.kind], float_bits(level), replicate)
        scene = gen_scene(cfg.scene, SWEEP_GRID, Rng(row_seed))
        spec = entry.spec_for(level, seed=derive64(row_seed, 1))
        try:
            pair = [apply_corruption(scene.cloud, spec, boxes=scene.boxes, bounds=SWEEP_GRID),
                    scene.cloud]
            params += [kernel_params_for_cloud(c, weights) if modes else None for c in pair]
            clouds += pair
            done.append((scene, pair[0]))
        except Exception as exc:
            done.append((scene, exc.with_traceback(None)))
    columns = residual_columns(clouds, SWEEP_GRID, params, modes)
    return [(s, c, None if isinstance(c, Exception) else (next(columns), next(columns)))
            for s, c in done]


def _heatmap_names(cfg: SweepConfig, entry: SweepEntry, level: float, replicate: int, *_):
    """A task's heatmap names: per pipeline, the processed map's, then the clean one's."""
    return [
        f"bev_{clean}{entry.kind.value}_l{level:g}_r{replicate}_{pipeline}"
        for pipeline in cfg.pipelines
        for clean in ("", "clean_")
    ]


def _run_task(
    cfg: SweepConfig,
    entry: SweepEntry,
    level: float,
    replicate: int,
    weights: ProjectorWeights | None,
    want_heatmaps: bool,
    prepared,
):
    """One task's rows and heatmaps' PGM bytes by name, from its ``_deposited`` entry."""
    scene, corrupted, columns = prepared
    grid = SWEEP_GRID
    error: str | None = None
    try:
        if isinstance(corrupted, Exception):
            raise corrupted
        names = ["raw", *(p for p in cfg.pipelines if p != "raw")]
        processed, clean = (dict(zip(names, column_bevs(grid, *c))) for c in columns)
        snr_before = metric_snr(processed["raw"], scene.boxes, grid)
        snr_after = {
            p: snr_before if p == "raw" else metric_snr(processed[p], scene.boxes, grid)
            for p in cfg.pipelines
        }
        peaks = {p: metric_peak(clean[p], processed[p]) for p in cfg.pipelines}
        chamfer = metric_chamfer(scene.cloud, corrupted)
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"[:ERROR_CHARS]

    base = dict(kind=entry.kind.value, level=level, replicate=replicate)
    if error is not None:
        return [BenchRow(**base, pipeline=p, error=error) for p in cfg.pipelines], {}
    counts = dict(chamfer_m=chamfer, points_in=len(scene.cloud), points_out=len(corrupted))
    rows = [
        BenchRow(**base, pipeline=p, snr_before=snr_before, snr_after=snr_after[p],
                 peak_consistent=peaks[p][0], peak_l2_cells=peaks[p][1], **counts)
        for p in cfg.pipelines
    ]
    if not want_heatmaps:
        return rows, {}
    bevs = (bev[p] for p in cfg.pipelines for bev in (processed, clean))
    heatmaps = zip(_heatmap_names(cfg, entry, level, replicate), bevs)
    return rows, {name: pgm_bytes(bev) for name, bev in heatmaps}


def _run_unit(unit, write=None):
    """Each task's rows of ``unit``, a run of consecutive tasks whose clouds one
    ``_deposited`` call deposits, as they are asked for. ``write``, if given,
    takes each task's heatmaps before its rows are yielded."""
    for task, prepared in zip(unit, _deposited(unit)):
        rows, heatmaps = _run_task(*task, write is not None, prepared)
        if heatmaps:
            write(heatmaps)
        yield rows


def _write_heatmaps(heatmap_dir: Path, heatmaps: dict[str, bytes]) -> None:
    for name, pgm in heatmaps.items():
        fd = os.open(heatmap_dir / f"{name}.pgm", PGM_OPEN_FLAGS, 0o666)
        try:
            view = memoryview(pgm)
            while view:
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)


def _inline(units, heatmap_dir):
    """Each task's rows, unit by unit. One thread writes each task's heatmaps, in
    task order, while the next tasks run; at most HEATMAP_BACKLOG tasks' wait
    behind the one being written. A write's error stops the writes, and is raised
    at the sweep's next task or at its end."""
    if heatmap_dir is None:
        for unit in units:
            yield from _run_unit(unit)
        return
    import queue
    import threading

    backlog, errors = queue.Queue(HEATMAP_BACKLOG), []

    def drain():
        while (heatmaps := backlog.get()) is not None:
            if not errors:  # after a failure, only drain, so put never blocks
                try:
                    _write_heatmaps(heatmap_dir, heatmaps)
                except BaseException as exc:
                    errors.append(exc)

    def put(heatmaps):
        if errors:
            raise errors[0]
        backlog.put(heatmaps)

    thread = threading.Thread(target=drain, daemon=True)
    thread.start()
    try:
        for unit in units:
            yield from _run_unit(unit, put)
    finally:
        backlog.put(None)
        thread.join()
    if errors:
        raise errors[0]


def run_sweep(
    cfg: SweepConfig, jobs: int = 1, heatmap_dir: Path | None = None
) -> Iterator[list[BenchRow]]:
    """Run every (kind x level x replicate x pipeline) combination.

    Yields each (kind, level, replicate) task's rows, in config-declaration
    order whatever the job count. A failing combination yields error-marked
    rows; a weights file that cannot be loaded raises ``ConfigError`` from
    this call, before any task runs. With a
    ``heatmap_dir``, each yielded task's ``pgm_bytes`` heatmaps are there, as
    ``<name>.pgm`` files, once the stream ends.

    Tasks run in units of up to BATCH_TASKS consecutive tasks, fewer where the
    configured clouds would overfill a deposit pass. A serial sweep runs them
    as their tasks are asked for. With 2 or more workers, they run on a process
    pool whose workers write their own heatmaps; later pooled sweeps in this
    process reuse it while they ask for the same worker count. Its workers fork
    on its first unit, so a change to a module made after that does not reach
    them.
    """
    weights = None
    if cfg.projector_weights is not None:
        try:
            weights = load_projector_weights(cfg.projector_weights)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load projector weights: {exc}") from exc
    tasks = [
        (cfg, entry, level, replicate, weights)
        for entry in cfg.corruptions
        for level in entry.levels
        for replicate in range(cfg.replicates)
    ]
    # A pool starts its workers up front, so never ask for more than can run.
    workers = max(1, min(jobs, len(tasks), _usable_cpus()))
    # Two clouds a task, each of the configured scene's points; a pool gets a unit per worker.
    scene = cfg.scene
    points = max(1, 2 * (scene.cluster_count * scene.points_per_cluster + scene.noise_points))
    size = max(1, min(BATCH_TASKS, DEPOSIT_BATCH_POINTS // points, -(-len(tasks) // workers)))
    units = [tasks[lo : lo + size] for lo in range(0, len(tasks), size)]
    if workers == 1:
        return _inline(units, heatmap_dir)
    return _pooled(units, workers, heatmap_dir)


def _usable_cpus() -> int:
    """The CPUs this process may run on, where the platform can say; else all."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# The pool that pooled sweeps in this process share, as (worker count,
# executor), so that a sweep after the first forks no workers. Each sweep
# holds its executor until it ends, so a replaced executor lives as long as
# some sweep still runs on it; concurrent.futures joins its workers once it
# is collected, and every pool's workers when the interpreter exits.
_pool = None


@atexit.register
def _drop_pool() -> None:
    # Collected later, at module teardown, the executor's weakref callback
    # would find concurrent.futures.process already torn down.
    global _pool
    _pool = None


def _shared_pool(workers: int, broken=None):
    """The shared executor and True if it has ``workers`` workers and is not
    ``broken``; otherwise a new one, now shared, and False."""
    global _pool
    if _pool is not None and _pool[0] == workers and _pool[1] is not broken:
        return _pool[1], True
    from concurrent.futures import ProcessPoolExecutor

    _pool = workers, ProcessPoolExecutor(max_workers=workers)
    return _pool[1], False


def _unit_result(unit, heatmap_dir):
    """A pool worker's result for ``unit``: its tasks' rows, each task's heatmaps
    written before the next task runs, and the exception that stopped it, or None.
    With error texts cut to ERROR_CHARS, it pickles to less than PIPE_BUF bytes:
    one pipe write, which a worker killed while it sends cannot leave half done."""
    done = []
    write = None if heatmap_dir is None else functools.partial(_write_heatmaps, heatmap_dir)
    try:
        for rows in _run_unit(unit, write):
            done.append(rows)
    except Exception as exc:
        text = f"{type(exc).__name__}: {exc}"
        return done, exc if len(text) <= ERROR_CHARS else RuntimeError(text[:ERROR_CHARS])
    return done, None


def _pooled(units, workers: int, heatmap_dir):
    from concurrent.futures import wait
    from concurrent.futures.process import BrokenProcessPool

    # A worker of a reused pool can die (killed, out of memory) before or
    # during this sweep, and the pool may notice only after the sweep has
    # submitted, or yielded. Such a sweep runs its units not yet yielded
    # again, once, on a new pool.
    pool, retry = _shared_pool(workers)
    # Executor.map submits every unit at once, so finished results could pile
    # up behind a slow one; a window of 2 x workers futures bounds them. It
    # holds the futures of units[done : done + len(window)].
    window, done, yielded = deque(), 0, 0
    try:
        while done < len(units):
            try:
                while done + len(window) < len(units) and len(window) < 2 * workers:
                    unit = units[done + len(window)]
                    window.append(pool.submit(_unit_result, unit, heatmap_dir))
                rows, error = window.popleft().result()
            except BrokenProcessPool:
                if not retry:
                    raise
                pool, _ = _shared_pool(workers, pool)
                window.clear()
                retry = False
                continue
            done += 1
            for task_rows in rows:
                yielded += 1
                yield task_rows
            if error is not None:
                raise error
    finally:
        # After an early close or a failed unit, cancel the units not started
        # and wait for the running ones, so that none runs on the shared
        # workers behind the next sweep's, nor writes a heatmap after this.
        for future in window:
            future.cancel()
        wait(window)
        if heatmap_dir is not None:
            for task in [task for unit in units for task in unit][yielded:]:
                for name in _heatmap_names(*task):
                    (heatmap_dir / f"{name}.pgm").unlink(missing_ok=True)


def _format_cell(value) -> str:
    if value is None:
        return "ERROR"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_report_csv(rows, path) -> None:
    """Serialize rows, any iterable of them, in the order given.

    The ``wall_ms`` column is always blank, so repeated runs of the same
    config produce byte-identical reports; it stays so the header does not
    change.

    Rows go to ``<path>.tmp``, renamed over ``path`` after the last one, so
    ``path`` never holds a partial report; on failure the temporary is removed.
    """

    def record(row):
        metrics = [_format_cell(getattr(row, name)) for name in REPORT_COLUMNS[4:-1]]
        # The metric columns in the header's order, then the blank wall_ms.
        return [row.kind, repr(float(row.level)), str(row.replicate), row.pipeline, *metrics, ""]

    tmp = Path(f"{path}.tmp")
    try:
        write_csv(tmp, REPORT_COLUMNS, map(record, rows))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def pgm_bytes(bev: np.ndarray) -> bytes:
    """A BEV heatmap as 8-bit PGM file bytes, min-max scaled to [0, 255].

    Pixel rows follow the heatmap's first axis. An all-constant map
    gives all-zero pixels rather than dividing by zero.
    """
    a = np.asarray(bev, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"heatmap must be 2-D, got shape {a.shape}")
    vmin, vmax = float(a.min()), float(a.max())
    if vmax > vmin:
        q = np.floor((a - vmin) * 255.0 / (vmax - vmin))
    else:
        q = np.zeros_like(a)
    header = b"P5\n%d %d\n255\n" % (a.shape[1], a.shape[0])
    return header + np.clip(q, 0.0, 255.0).astype(np.uint8).tobytes()


def emit_heatmap(bev: np.ndarray, path) -> None:
    """Write a BEV heatmap as an 8-bit PGM file (see ``pgm_bytes``)."""
    Path(path).write_bytes(pgm_bytes(bev))


@dataclass(frozen=True)
class ManifestRow:
    scene_id: int
    group: str
    kind: str | None
    level: float | None
    seed: int


def gen_manifest(
    count: int,
    clean_ratio: float = MANIFEST_CLEAN_RATIO,
    master_seed: int = 0,
) -> list[ManifestRow]:
    """Dataset manifest following the clean/noisy mix recipe.

    A ``1 - clean_ratio`` fraction of scenes gets a uniformly chosen
    corruption kind at a random level: a sigma drawn uniformly from
    SIGMA_RANGE for the sigma-parameterized kinds, and for KeyPointMissing a
    uniform count of points to remove in [1, DEFAULT_BEAM_COUNT / 2].
    """
    if count < 1:
        raise ValueError("manifest needs at least one scene")
    if not 0.0 <= clean_ratio <= 1.0:
        raise ValueError(f"clean_ratio must lie in [0, 1], got {clean_ratio}")
    gen = Rng(master_seed).generator()
    noisy_count = count - int(round(count * clean_ratio))
    noisy_ids = set(int(i) for i in gen.permutation(count)[:noisy_count])
    kinds = (
        CorruptionKind.SPURIOUS_POINTS,
        CorruptionKind.NON_POSITIONAL_DISTURBANCE,
        CorruptionKind.KEY_POINT_MISSING,
        CorruptionKind.POINT_SHIFTING,
    )
    rows = []
    for scene_id in range(count):
        seed = derive64(master_seed, scene_id)
        if scene_id not in noisy_ids:
            rows.append(ManifestRow(scene_id, "clean", None, None, seed))
            continue
        kind = kinds[int(gen.integers(0, len(kinds)))]
        if kind in SIGMA_KINDS:
            level = float(gen.uniform(*SIGMA_RANGE))
        else:
            level = float(gen.integers(1, DEFAULT_BEAM_COUNT // 2 + 1))
        rows.append(ManifestRow(scene_id, "noisy", kind.value, level, seed))
    return rows


def write_manifest_csv(rows, path) -> None:
    records = (
        (
            str(row.scene_id),
            row.group,
            row.kind if row.kind is not None else "",
            repr(float(row.level)) if row.level is not None else "",
            str(row.seed),
        )
        for row in rows
    )
    write_csv(path, ("scene_id", "group", "kind", "level", "seed"), records)
