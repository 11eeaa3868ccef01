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
import time
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
    is_real,
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
    ISOTROPIC_3D,
    PLANAR_XY,
    ProjectorWeights,
    bev_project,
    expand,
    kernel_params_for_cloud,
    load_projector_weights,
    merge_residual,
    residual_bevs,
    voxelize,
)

PIPELINES = ("raw", "3dge_planar", "3dge_isotropic")

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


def _reals(values, n: int, name: str) -> tuple[float, ...]:
    if len(values) != n or not all(is_real(v) for v in values):
        raise ConfigError(f"{name} must be {n} finite numbers, got {values!r}")
    return tuple(float(v) for v in values)


@dataclass(frozen=True)
class SceneConfig:
    """Synthetic scene recipe: dense annotated clusters plus sparse clutter."""

    cluster_count: int = 1
    points_per_cluster: int = 30
    cluster_radius_m: float = 2.0
    noise_points: int = 50
    target_rcs_range: tuple[float, float] = (5.0, 10.0)
    noise_rcs_range: tuple[float, float] = (0.5, 2.0)
    doppler_range: tuple[float, float] = (-5.0, 5.0)
    box_height_m: float = 2.0
    cluster_centers: tuple[tuple[float, float, float], ...] | None = None

    def __post_init__(self) -> None:
        for name in ("cluster_count", "points_per_cluster", "noise_points"):
            if not is_int(getattr(self, name)) or getattr(self, name) < 0:
                raise ConfigError(f"{name} must be a non-negative integer")
        for name in ("cluster_radius_m", "box_height_m"):
            if not is_real(getattr(self, name)) or getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive and finite")
        for name in ("target_rcs_range", "noise_rcs_range", "doppler_range"):
            lo, hi = _reals(getattr(self, name), 2, name)
            if not hi >= lo:
                raise ConfigError(f"{name} must be ordered, got ({lo}, {hi})")
            object.__setattr__(self, name, (lo, hi))
        if self.cluster_centers is not None:
            centers = tuple(_reals(c, 3, "a cluster center") for c in self.cluster_centers)
            if len(centers) != self.cluster_count:
                raise ConfigError("cluster_centers length must equal cluster_count")
            object.__setattr__(self, "cluster_centers", centers)


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
    grid: GridSpec = field(default_factory=default_grid)
    corruptions: tuple[SweepEntry, ...] = ()
    pipelines: tuple[str, ...] = ("raw", "3dge_planar")
    # The learned projector's weights file; None selects the heuristic.
    projector_weights: str | None = None
    replicates: int = 10
    master_seed: int = 0
    total_beams: int = DEFAULT_BEAM_COUNT

    def __post_init__(self) -> None:
        object.__setattr__(self, "corruptions", tuple(self.corruptions))
        object.__setattr__(self, "pipelines", tuple(self.pipelines))
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
        if not is_int(self.total_beams) or self.total_beams < 1:
            raise ConfigError("total_beams must be a positive integer")
        if not is_int(self.master_seed) or not 0 <= self.master_seed < 1 << 64:
            raise ConfigError("master_seed must be an integer in [0, 2**64)")
        # Count bounds that hold whatever the scene; n // 2 is checked per row.
        try:
            for entry in self.corruptions:
                if entry.kind not in SIGMA_KINDS:
                    for level in entry.levels:
                        check_count(entry.kind, int(level), entry.gamma, self.total_beams)
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
        built = {
            name: _from_json(cls, payload[name], name)
            for name, cls in (("scene", SceneConfig), ("grid", GridSpec))
            if name in payload
        }
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


def gen_scene(cfg: SceneConfig, grid: GridSpec, rng: Rng) -> Scene:
    """Deterministic synthetic scene: annotated clusters plus clutter.

    Cluster points are uniform over a planar disc at the cluster center;
    each cluster gets a box annotation twice the cluster radius in planar
    extent. Clutter points are uniform over the whole grid volume.
    """
    gen = rng.generator()
    rows = []
    boxes = []
    (x_lo, x_hi), (y_lo, y_hi), (z_lo, z_hi) = grid.ranges
    for ci in range(cfg.cluster_count):
        if cfg.cluster_centers is not None:
            cx, cy, cz = cfg.cluster_centers[ci]
        else:
            margin = cfg.cluster_radius_m
            cx = float(gen.uniform(x_lo + margin, x_hi - margin))
            cy = float(gen.uniform(y_lo + margin, y_hi - margin))
            cz = 0.0
        n = cfg.points_per_cluster
        radius = cfg.cluster_radius_m * np.sqrt(gen.uniform(0.0, 1.0, size=n))
        theta = gen.uniform(0.0, 2.0 * math.pi, size=n)
        cluster = np.column_stack(
            [
                cx + radius * np.cos(theta),
                cy + radius * np.sin(theta),
                np.full(n, cz),
                gen.uniform(*cfg.target_rcs_range, size=n),
                gen.uniform(*cfg.doppler_range, size=n),
            ]
        )
        rows.append(cluster)
        boxes.append(
            BoxAnnotation(
                center=(cx, cy, cz),
                size=(
                    2.0 * cfg.cluster_radius_m,
                    2.0 * cfg.cluster_radius_m,
                    cfg.box_height_m,
                ),
                yaw=0.0,
            )
        )
    m = cfg.noise_points
    if m:
        rows.append(
            np.column_stack(
                [
                    gen.uniform(x_lo, x_hi, size=m),
                    gen.uniform(y_lo, y_hi, size=m),
                    gen.uniform(z_lo, z_hi, size=m),
                    gen.uniform(*cfg.noise_rcs_range, size=m),
                    gen.uniform(*cfg.doppler_range, size=m),
                ]
            )
        )
    data = np.vstack(rows) if rows else np.empty((0, 5))
    cloud = PointCloud(data=data, frame_id=f"{rng.seed:016x}")
    return Scene(cloud=cloud, boxes=tuple(boxes), seed=rng.seed)


def scripted_scene(seed: int) -> Scene:
    """The canonical single-cluster benchmark scene on the default grid."""
    cfg = SceneConfig(cluster_centers=((10.0, 5.0, 0.0),))
    return gen_scene(cfg, default_grid(), Rng(seed))


def _pipeline_bevs(
    cloud: PointCloud, grid: GridSpec, pipelines, weights: ProjectorWeights | None
) -> dict[str, np.ndarray]:
    """BEV heatmaps of a cloud under "raw" and each named pipeline.

    The cloud is binned once, its kernel params are grouped once and one
    entry pass serves every pipeline that expands it; no dense grid is
    merged or projected (see ``residual_bevs``).
    """
    for pipeline in pipelines:
        if pipeline not in PIPELINES:
            raise ValueError(f"unknown pipeline {pipeline!r}")
    expanding = [p for p in pipelines if p != "raw"]
    params = kernel_params_for_cloud(cloud, weights) if expanding else None
    modes = [PLANAR_XY if p == "3dge_planar" else ISOTROPIC_3D for p in expanding]
    raw, *merged = residual_bevs(cloud, grid, params, modes)
    return {"raw": raw, **dict(zip(expanding, merged))}


def pipeline_bev(
    cloud: PointCloud,
    grid: GridSpec,
    pipeline: str,
    weights: ProjectorWeights | None = None,
) -> np.ndarray:
    """BEV heatmap of a cloud under one of the named pipelines."""
    return _pipeline_bevs(cloud, grid, (pipeline,), weights)[pipeline]


@functools.lru_cache(maxsize=1)
def _planar_box_mask(bev_shape: tuple, boxes: tuple, spec: GridSpec) -> np.ndarray:
    """Cells whose centers fall in some box footprint, read-only; raises if
    none can. A sweep task asks three times, so the last mask is kept."""
    if not boxes:
        raise ValueError("metric_snr requires at least one box")
    nx, ny = bev_shape
    csx, csy, _ = spec.cell_sizes
    centers_x = spec.x_range[0] + (np.arange(nx) + 0.5) * csx
    centers_y = spec.y_range[0] + (np.arange(ny) + 0.5) * csy
    mask = np.zeros((nx, ny), dtype=bool)
    for box in boxes:
        mask |= in_box_footprint(centers_x[:, None], centers_y[None, :], box)
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
        self.occupied = np.flatnonzero(self.count)
        self.occupied_keys = np.stack(np.unravel_index(self.occupied, cells))
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

    def scanned(self, near: np.ndarray, ring: int):
        """``looked_up`` for ring ``ring``'s shell, from a scan of the occupied buckets."""
        ring_of = np.abs(near[:, :, None] - self.occupied_keys[:, None, :]).max(axis=0)
        rows, cols = np.nonzero(ring_of == ring)
        return rows, self.occupied[cols], self.occupied_keys[:, cols] - near[:, rows]


def _search(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Distance from each column of q to its nearest column of p.

    Both are (3, k) coordinate-major arrays. p goes into ``_Buckets``, and
    each query visits Chebyshev rings of buckets around its own, ring by
    ring for all pending queries at once. A ring's buckets come from its
    shell of offsets, enumerated once and looked up in the table for every
    pending query, or from a scan of the occupied buckets where that list is
    the shorter. A bucket whose box is no nearer than the query's best so
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
        step = max(1, CHAMFER_BLOCK // min(shell.shape[1], len(grid.occupied)))
        stay = []
        for a in range(0, pending.size, step):
            block = pending[a : a + step]
            near = qk.take(block, axis=1)
            if shell.shape[1] <= len(grid.occupied):
                rows, buckets, off = grid.looked_up(near, shell)
            else:
                rows, buckets, off = grid.scanned(near, ring)
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
    wall_ms: float | None = None
    error: str | None = None


def _run_task(
    cfg: SweepConfig,
    entry: SweepEntry,
    level: float,
    replicate: int,
    weights: ProjectorWeights | None,
    want_heatmaps: bool,
):
    row_seed = derive64(
        cfg.master_seed, KIND_IDS[entry.kind], float_bits(level), replicate
    )
    scene = gen_scene(cfg.scene, cfg.grid, Rng(row_seed))
    spec = entry.spec_for(level, seed=derive64(row_seed, 1))
    error: str | None = None
    try:
        corrupted = apply_corruption(
            scene.cloud, spec, boxes=scene.boxes, bounds=cfg.grid, total_beams=cfg.total_beams
        )
        start = time.perf_counter()
        # metric_snr's box checks depend only on the boxes and the grid, so a
        # scene they reject fails before any pipeline runs.
        _planar_box_mask(cfg.grid.cells[:2], scene.boxes, cfg.grid)
        # One cloud at a time: only its BEVs outlive the call, not its grids.
        processed = _pipeline_bevs(corrupted, cfg.grid, cfg.pipelines, weights)
        snr_before = metric_snr(processed["raw"], scene.boxes, cfg.grid)
        snr_after = {
            p: snr_before if p == "raw" else metric_snr(processed[p], scene.boxes, cfg.grid)
            for p in cfg.pipelines
        }
        clean = _pipeline_bevs(scene.cloud, cfg.grid, cfg.pipelines, weights)
        peaks = {p: metric_peak(clean[p], processed[p]) for p in cfg.pipelines}
        chamfer = metric_chamfer(scene.cloud, corrupted)
        wall_ms = (time.perf_counter() - start) * 1000.0
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"

    rows = []
    heatmaps: dict[str, bytes] = {}
    for pipeline in cfg.pipelines:
        base = dict(kind=entry.kind.value, level=level, replicate=replicate, pipeline=pipeline)
        if error is not None:
            rows.append(BenchRow(**base, error=error))
            continue
        consistent, l2 = peaks[pipeline]
        rows.append(
            BenchRow(
                **base,
                snr_before=snr_before,
                snr_after=snr_after[pipeline],
                peak_consistent=consistent,
                peak_l2_cells=l2,
                chamfer_m=chamfer,
                points_in=len(scene.cloud),
                points_out=len(corrupted),
                wall_ms=wall_ms,
            )
        )
        if want_heatmaps:
            tag = f"{entry.kind.value}_l{level:g}_r{replicate}_{pipeline}"
            heatmaps[f"bev_{tag}"] = pgm_bytes(processed[pipeline])
            heatmaps[f"bev_clean_{tag}"] = pgm_bytes(clean[pipeline])
    return rows, heatmaps


def run_sweep(
    cfg: SweepConfig, jobs: int = 1, want_heatmaps: bool = False
) -> Iterator[tuple[list[BenchRow], dict[str, bytes]]]:
    """Run every (kind x level x replicate x pipeline) combination.

    Yields each (kind, level, replicate) task's ``(rows, heatmaps)``, in
    config-declaration order whatever the job count, with ``pgm_bytes``
    heatmaps if asked. A failing combination yields error-marked rows; a bad
    weights file raises ``ConfigError`` from this call, before any task runs.

    With 2 or more workers, tasks run on a process pool that later pooled
    sweeps in this process reuse while they ask for the same worker count.
    Its workers fork on its first task, so a change to a module made after
    that does not reach them.
    """
    weights = None
    if cfg.projector_weights is not None:
        try:
            weights = load_projector_weights(cfg.projector_weights)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load projector weights: {exc}") from exc
    tasks = [
        (cfg, entry, level, replicate, weights, want_heatmaps)
        for entry in cfg.corruptions
        for level in entry.levels
        for replicate in range(cfg.replicates)
    ]
    # A pool starts its workers up front, so never ask for more than can run.
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        return (_run_task(*task) for task in tasks)
    return _pooled(tasks, workers)


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


def _pooled(tasks, workers: int):
    from concurrent.futures import wait
    from concurrent.futures.process import BrokenProcessPool

    # Forked workers inherit the caller's modules. Import here, once, the two
    # that numpy loads lazily on a task's first use, so that no worker of any
    # sweep imports them again: numpy.random for core.Rng.generator, and
    # numpy.ma for np.unique's np.ma.is_masked, which np.percentile in
    # expansion.heuristic_kernel_params and expansion._kernel_groups reach.
    import numpy.ma  # noqa: F401
    import numpy.random  # noqa: F401

    # A worker of a reused pool can die (killed, out of memory) before or
    # during this sweep, and the pool may notice only after the sweep has
    # submitted, or yielded. Such a sweep runs its tasks not yet yielded
    # again, once, on a new pool.
    pool, retry = _shared_pool(workers)
    # Executor.map submits every task at once, so finished results could pile
    # up behind a slow one; a window of 2 x workers futures bounds them. It
    # holds the futures of tasks[done : done + len(window)].
    window, done = deque(), 0
    try:
        while done < len(tasks):
            try:
                while done + len(window) < len(tasks) and len(window) < 2 * workers:
                    window.append(pool.submit(_run_task, *tasks[done + len(window)]))
                result = window.popleft().result()
            except BrokenProcessPool:
                if not retry:
                    raise
                pool, _ = _shared_pool(workers, pool)
                window.clear()
                retry = False
                continue
            done += 1
            yield result
    finally:
        # After an early close or a failed task, cancel the tasks not started
        # and wait for the running ones, so that none runs on the shared
        # workers behind the next sweep's.
        for future in window:
            future.cancel()
        wait(window)


def _format_cell(value) -> str:
    if value is None:
        return "ERROR"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_report_csv(rows, path, include_timing: bool = False) -> None:
    """Serialize rows, any iterable of them, in the order given.

    Timing is omitted by default so repeated runs of the same config
    produce byte-identical reports. With include_timing=True, ``wall_ms``
    is the wall time of the row's task, the pipelines and metrics of one
    (kind, level, replicate) after its scene is corrupted; rows share it.

    Rows go to ``<path>.tmp``, renamed over ``path`` after the last one, so
    ``path`` never holds a partial report; on failure the temporary is removed.
    """

    def record(row):
        cells = [row.kind, repr(float(row.level)), str(row.replicate), row.pipeline]
        # The metric columns, in the header's order.
        cells.extend(_format_cell(getattr(row, name)) for name in REPORT_COLUMNS[4:-1])
        if not include_timing:
            cells.append("")
        elif row.wall_ms is None:
            cells.append("ERROR")
        else:
            cells.append(f"{row.wall_ms:.3f}")
        return cells

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
