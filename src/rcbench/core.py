"""Shared geometry, point-cloud, grid, and randomness primitives.

Everything here is an immutable value; the operations are pure functions,
so all of it is safe to use from concurrent workers.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

_MASK64 = (1 << 64) - 1

# Default planar detection range and BEV resolution (0.8 m cells).
DEFAULT_PLANAR_RANGE = (-51.2, 51.2)
DEFAULT_PLANAR_CELLS = 128
# The vertical extent is a package default, not a published constant:
# [-5, 3] m at 1 m cells covers road-level radar returns.
DEFAULT_Z_RANGE = (-5.0, 3.0)
DEFAULT_Z_CELLS = 8

POINT_CLOUD_CSV_HEADER = ("frame_id", "x", "y", "z", "rcs", "v")
BOX_CSV_HEADER = ("frame_id", "cx", "cy", "cz", "l", "w", "h", "yaw")


def splitmix64(value: int) -> int:
    """One SplitMix64 scrambling step on a 64-bit integer."""
    z = (value + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive64(*parts: int) -> int:
    """Stable, order-sensitive 64-bit hash of integer parts.

    Used to derive per-task seeds so that adding tasks to a sweep never
    perturbs the seeds of existing ones.
    """
    h = 0
    for part in parts:
        h = splitmix64(h ^ (int(part) & _MASK64))
    return h


def is_int(value) -> bool:
    """True for an integer that is not a bool (JSON ``true`` is not a count)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """True for a finite real number that is not a bool."""
    return (
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def float_bits(value: float) -> int:
    """IEEE-754 bit pattern of a float, for hashing levels exactly."""
    return int(np.float64(value).view(np.uint64))


def freeze_arrays(obj) -> None:
    """Replace every field of a frozen dataclass by a read-only float64 copy.

    The copy leaves the caller's arrays writeable and unshared. Raises
    ``ValueError`` when a field holds a non-finite value.
    """
    for field in fields(obj):
        arr = np.array(getattr(obj, field.name), dtype=np.float64, copy=True)
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{type(obj).__name__}.{field.name} must be finite")
        arr.setflags(write=False)
        object.__setattr__(obj, field.name, arr)


def read_only(arr: np.ndarray) -> np.ndarray:
    """Lock a freshly built array in place and return it, so that
    ``VoxelGrid``, which copies writeable arrays, keeps it as it is."""
    arr.setflags(write=False)
    return arr


def bounded_runs(sizes: np.ndarray, limit: int):
    """Yield ``(lo, hi)`` cuts of ``sizes`` into consecutive runs, in order,
    each summing to at most ``limit``, or holding one item larger than that."""
    ends = np.cumsum(sizes)
    lo = 0
    while lo < len(ends):
        cap = (ends[lo - 1] if lo else 0) + limit
        hi = max(lo + 1, int(np.searchsorted(ends, cap, side="right")))
        yield lo, hi
        lo = hi


@dataclass(frozen=True)
class Rng:
    """Counter-based random stream identified by (seed, stream).

    Two instances built from the same pair replay bit-identical draw
    sequences on any platform, and distinct streams are independent.
    """

    seed: int
    stream: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.seed <= _MASK64:
            raise ValueError(f"seed out of 64-bit range: {self.seed}")
        if not 0 <= self.stream <= _MASK64:
            raise ValueError(f"stream out of 64-bit range: {self.stream}")

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        key = (self.stream << 64) | self.seed
        return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class PointCloud:
    """Ordered radar point set stored as an (n, 5) float64 array.

    Column order is (x, y, z, rcs, v). The backing array is locked
    read-only; derive modified clouds through ``with_data``.
    """

    data: np.ndarray
    frame_id: str = "0"

    def __post_init__(self) -> None:
        arr = np.array(self.data, dtype=np.float64, copy=True)
        if arr.size == 0:
            arr = arr.reshape(0, 5)
        if arr.ndim != 2 or arr.shape[1] != 5:
            raise ValueError(f"point cloud must be (n, 5), got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("point cloud contains non-finite values")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    def __len__(self) -> int:
        return self.data.shape[0]

    @property
    def xyz(self) -> np.ndarray:
        return self.data[:, 0:3]

    @property
    def rcs(self) -> np.ndarray:
        return self.data[:, 3]

    @property
    def v(self) -> np.ndarray:
        return self.data[:, 4]

    def with_data(self, data: np.ndarray) -> "PointCloud":
        return PointCloud(data=data, frame_id=self.frame_id)


@dataclass(frozen=True)
class BoxAnnotation:
    """Axis-extent box with planar yaw, marking a target region."""

    center: tuple[float, float, float]
    size: tuple[float, float, float]
    yaw: float

    def __post_init__(self) -> None:
        center = tuple(float(c) for c in self.center)
        size = tuple(float(s) for s in self.size)
        if len(center) != 3 or len(size) != 3:
            raise ValueError("center and size must have three components")
        if not all(math.isfinite(c) for c in center) or not math.isfinite(self.yaw):
            raise ValueError("non-finite box parameters")
        if any(s <= 0 or not math.isfinite(s) for s in size):
            raise ValueError(f"box size components must be positive, got {size}")
        if not -math.pi <= self.yaw <= math.pi:
            raise ValueError(f"yaw must lie in [-pi, pi], got {self.yaw}")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "size", size)


@dataclass(frozen=True)
class Scene:
    """A point cloud plus target annotations; ``seed`` fully determines
    any stochastic derivation made from the scene."""

    cloud: PointCloud
    boxes: tuple[BoxAnnotation, ...]
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "boxes", tuple(self.boxes))


@dataclass(frozen=True)
class GridSpec:
    """Regular 3D voxel grid geometry: per-axis ranges and cell counts."""

    x_range: tuple[float, float]
    y_range: tuple[float, float]
    z_range: tuple[float, float]
    cells: tuple[int, int, int]

    def __post_init__(self) -> None:
        for name in ("x_range", "y_range", "z_range"):
            lo, hi = getattr(self, name)
            if not (is_real(lo) and is_real(hi) and hi > lo):
                raise ValueError(f"{name} must satisfy max > min, got ({lo}, {hi})")
            object.__setattr__(self, name, (float(lo), float(hi)))
        if len(self.cells) != 3 or not all(is_int(c) and c > 0 for c in self.cells):
            raise ValueError(f"cell counts must be three positive integers, got {self.cells}")
        object.__setattr__(self, "cells", tuple(int(c) for c in self.cells))

    @property
    def ranges(self) -> tuple[tuple[float, float], ...]:
        return (self.x_range, self.y_range, self.z_range)

    @property
    def cell_sizes(self) -> tuple[float, float, float]:
        return tuple(
            (hi - lo) / n for (lo, hi), n in zip(self.ranges, self.cells)
        )


def default_grid() -> GridSpec:
    """The package-default grid: +/-51.2 m planar at 128x128, 8 z-cells."""
    return GridSpec(
        x_range=DEFAULT_PLANAR_RANGE,
        y_range=DEFAULT_PLANAR_RANGE,
        z_range=DEFAULT_Z_RANGE,
        cells=(DEFAULT_PLANAR_CELLS, DEFAULT_PLANAR_CELLS, DEFAULT_Z_CELLS),
    )


@dataclass(frozen=True)
class VoxelGrid:
    """Discretized radar field with RCS / velocity / count channels.

    ``out_of_range`` reports how many points were skipped because they
    fell outside the grid during voxelization or expansion. The fields are
    read-only: a writeable array is copied, so the caller's stays its own.
    """

    spec: GridSpec
    rcs: np.ndarray
    vel: np.ndarray
    count: np.ndarray
    out_of_range: int = 0

    def __post_init__(self) -> None:
        shape = self.spec.cells
        for name, dtype in (("rcs", np.float64), ("vel", np.float64), ("count", np.int64)):
            arr = np.asarray(getattr(self, name), dtype=dtype)
            if arr.shape != shape:
                raise ValueError(f"{name} field shape {arr.shape} != grid {shape}")
            if arr.flags.writeable:
                arr = read_only(arr.copy())
            object.__setattr__(self, name, arr)
        if np.any(self.count < 0):
            raise ValueError("count field must be non-negative")


def in_box_footprint(x, y, box: BoxAnnotation) -> np.ndarray:
    """Whether planar positions fall in the box's yaw-rotated length and
    width, boundaries inclusive; ``x`` and ``y`` broadcast together."""
    dx = x - box.center[0]
    dy = y - box.center[1]
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    # Rotate the offset into the box frame (inverse planar rotation).
    local_x = c * dx + s * dy
    local_y = -s * dx + c * dy
    return (np.abs(local_x) <= box.size[0] / 2.0) & (np.abs(local_y) <= box.size[1] / 2.0)


def points_in_box_mask(xyz: np.ndarray, box: BoxAnnotation) -> np.ndarray:
    """Membership test for an (n, 3) position array: the box footprint plus
    its height; boundaries are inclusive on every axis."""
    dz = xyz[:, 2] - box.center[2]
    return in_box_footprint(xyz[:, 0], xyz[:, 1], box) & (np.abs(dz) <= box.size[2] / 2.0)


def points_in_any_box_mask(xyz: np.ndarray, boxes) -> np.ndarray:
    mask = np.zeros(xyz.shape[0], dtype=bool)
    for box in boxes:
        mask |= points_in_box_mask(xyz, box)
    return mask


def voxel_indices(
    spec: GridSpec, xyz: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Floor-based cell indices: (in-range mask, ix, iy, iz).

    Both range ends are closed; a coordinate exactly at max bins to the
    last cell so boundary points are never silently dropped. Index arrays
    are only meaningful where the mask is True.
    """
    n_pts = xyz.shape[0]
    mask = np.ones(n_pts, dtype=bool)
    indices = []
    for axis, ((lo, hi), n) in enumerate(zip(spec.ranges, spec.cells)):
        coord = xyz[:, axis]
        inside = (coord >= lo) & (coord <= hi)
        mask &= inside
        # Scale only in-range coordinates, so no finite input overflows.
        coord = np.where(inside, coord, lo)
        i = np.floor((coord - lo) * n / (hi - lo)).astype(np.int64)
        indices.append(np.clip(i, 0, n - 1))
    return mask, indices[0], indices[1], indices[2]


def _format_float(value: float) -> str:
    # repr round-trips float64 exactly and is byte-stable across runs.
    return repr(float(value))


def write_csv(path, header, records) -> None:
    """Write ``header``, then each record, as CSV lines ending in a bare newline."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(records)


def write_point_cloud_csv(cloud: PointCloud, path) -> None:
    """Write the mandatory-header `frame_id,x,y,z,rcs,v` format."""
    rows = ([cloud.frame_id] + [_format_float(v) for v in row] for row in cloud.data)
    write_csv(path, POINT_CLOUD_CSV_HEADER, rows)


def read_point_cloud_csv(path) -> PointCloud:
    """Read a single-frame point cloud; row order is preserved and blank
    rows are skipped."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        found = next(reader, None)
        if found is None or tuple(found) != POINT_CLOUD_CSV_HEADER:
            raise ValueError(f"bad point-cloud CSV header in {path}: {found}")
        records = [record for record in reader if record]
    frame_id = records[0][0] if records else "0"
    for record in records:
        if len(record) != len(POINT_CLOUD_CSV_HEADER):
            raise ValueError(f"bad point-cloud CSV row: {record}")
        if record[0] != frame_id:
            raise ValueError(f"multiple frame ids in {path}: {frame_id!r} vs {record[0]!r}")
    rows = [[float(v) for v in record[1:]] for record in records]
    return PointCloud(data=rows, frame_id=frame_id)


def write_boxes_csv(boxes, path, frame_id: str = "0") -> None:
    """Write the `frame_id,cx,cy,cz,l,w,h,yaw` annotation format."""
    rows = ([frame_id] + [_format_float(v) for v in (*b.center, *b.size, b.yaw)] for b in boxes)
    write_csv(path, BOX_CSV_HEADER, rows)
