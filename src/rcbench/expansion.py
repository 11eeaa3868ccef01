"""Voxelization and adaptive 3D Gaussian expansion of radar clouds.

Each point's RCS/velocity mass is spread over a lambda^3 voxel
neighborhood with normalized Gaussian weights whose size and spread come
from an RCS/velocity-driven parameter projector, then residually merged
with the raw grid. Dense target regions reinforce each other while
isolated false positives are diluted.
"""

from __future__ import annotations

import functools
import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from .core import GridSpec, PointCloud, VoxelGrid, empty_grid, freeze_arrays, voxel_indices

# Admissible kernel side lengths, in voxels.
LAMBDA_CHOICES = (1, 3, 5)

# Exponent modes: the planar form spreads by in-plane distance only,
# the isotropic form decays in all three axes.
PLANAR_XY = "planar_xy"
ISOTROPIC_3D = "isotropic_3d"
EXPONENT_MODES = (PLANAR_XY, ISOTROPIC_3D)

PROJECTOR_HIDDEN = 8
SIGMA_FLOOR = 0.1

# In-range points per np.add.at pass of _deposit: at most 125 (a 5^3
# footprint) times this many entries are held at once.
DEPOSIT_BLOCK_POINTS = 4096

VOXEL_GRID_MAGIC = b"RCVG"
VOXEL_GRID_VERSION = 1


@dataclass(frozen=True)
class KernelParams:
    """Per-point expansion parameters: kernel side and Gaussian spread.

    ``sigma`` is measured in voxel units so kernels are grid-resolution
    independent in cell space.
    """

    lambda_p: int
    sigma: float

    def __post_init__(self) -> None:
        if self.lambda_p not in LAMBDA_CHOICES:
            raise ValueError(f"lambda_p must be one of {LAMBDA_CHOICES}")
        if not self.sigma > 0 or not math.isfinite(self.sigma):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")


@dataclass(frozen=True)
class ProjectorWeights:
    """Two affine layers mapping (rcs, v) -> hidden(8) -> 3 size logits + raw sigma."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def __post_init__(self) -> None:
        freeze_arrays(self)
        if self.w1.shape != (PROJECTOR_HIDDEN, 2) or self.b1.shape != (PROJECTOR_HIDDEN,):
            raise ValueError("first projector layer must map 2 -> 8")
        if self.w2.shape != (4, PROJECTOR_HIDDEN) or self.b2.shape != (4,):
            raise ValueError("second projector layer must map 8 -> 4")


def save_projector_weights(weights: ProjectorWeights, path) -> None:
    payload = {
        "w1": weights.w1.tolist(),
        "b1": weights.b1.tolist(),
        "w2": weights.w2.tolist(),
        "b2": weights.b2.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def load_projector_weights(path) -> ProjectorWeights:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    try:
        return ProjectorWeights(
            w1=payload["w1"], b1=payload["b1"], w2=payload["w2"], b2=payload["b2"]
        )
    except KeyError as exc:
        raise ValueError(f"projector weights file missing block {exc}") from exc


def _softplus(x: float) -> float:
    return float(np.logaddexp(0.0, x))


def project_params(rcs: float, v: float, weights: ProjectorWeights) -> KernelParams:
    """Kernel parameters for one point from the learned projector.

    The kernel side is the argmax of three size logits mapped onto
    LAMBDA_CHOICES (ties break toward the smallest side), and sigma is
    softplus(raw) + 0.1 so the spread never collapses to zero.
    """
    if not (math.isfinite(rcs) and math.isfinite(v)):
        raise ValueError("projector inputs must be finite")
    hidden = np.maximum(weights.w1 @ np.array([rcs, v]) + weights.b1, 0.0)
    out = weights.w2 @ hidden + weights.b2
    lambda_p = LAMBDA_CHOICES[int(np.argmax(out[:3]))]
    return KernelParams(lambda_p=lambda_p, sigma=_softplus(out[3]) + SIGMA_FLOOR)


# The heuristic's three classes, weakest RCS quartile first.
_HEURISTIC_CLASSES = tuple(KernelParams(lambda_p=lam, sigma=lam / 3.0) for lam in (5, 3, 1))


def heuristic_kernel_params(cloud: PointCloud) -> list[KernelParams]:
    """Training-free parameters from the cloud's RCS quartiles.

    Weak returns (likely clutter) get wide kernels that dilute their
    mass; strong returns keep a unit kernel and stay concentrated.
    sigma is tied to the side as lambda/3.
    """
    if len(cloud) == 0:
        return []
    q25, q75 = np.percentile(cloud.rcs, [25.0, 75.0])
    picks = np.select([cloud.rcs < q25, cloud.rcs < q75], [0, 1], default=2)
    return [_HEURISTIC_CLASSES[i] for i in picks]


def kernel_params_for_cloud(
    cloud: PointCloud, weights: ProjectorWeights | None = None
) -> list[KernelParams]:
    """Per-point parameters: learned when weights are given, else heuristic."""
    if weights is None:
        return heuristic_kernel_params(cloud)
    return [project_params(rcs, v, weights) for rcs, v in zip(cloud.rcs, cloud.v)]


@functools.lru_cache(maxsize=None)
def _footprint(side: int) -> np.ndarray:
    """Shared, read-only (side^3, 3) offsets of a side^3 kernel's cells, in C order."""
    offsets = np.indices((side, side, side)).reshape(3, -1).T - (side - 1) // 2
    offsets.setflags(write=False)
    return offsets


def build_kernel(params: KernelParams, exponent_mode: str = PLANAR_XY) -> np.ndarray:
    """Normalized lambda^3 Gaussian weight cube.

    The unnormalized weight at integer offset (dx, dy, dz) is
    exp(-(dx^2 + dy^2) / (2 sigma^2)) in planar mode, with dz^2 added in
    isotropic mode; the cube is then divided by its total so it sums to
    exactly 1.
    """
    if exponent_mode not in EXPONENT_MODES:
        raise ValueError(f"unknown exponent mode: {exponent_mode!r}")
    axes = 3 if exponent_mode == ISOTROPIC_3D else 2
    sq = (_footprint(params.lambda_p)[:, :axes].astype(np.float64) ** 2).sum(axis=1)
    cube = np.exp(-sq / (2.0 * params.sigma**2)).reshape((params.lambda_p,) * 3)
    return cube / cube.sum()


def _deposit(spec: GridSpec, cloud: PointCloud, kernels, which: np.ndarray) -> VoxelGrid:
    """Deposit point i's RCS/velocity through ``kernels[which[i]]``.

    Each kernel is centered on its point's cell, and footprint cells
    outside the grid are dropped. The (point, offset) entries go to
    ``np.add.at`` in point order, so every cell sums its contributions
    in point order whatever the block size.
    """
    mask, ix, iy, iz = voxel_indices(spec, cloud.xyz)
    # One row per kernel cell, kernel after kernel: its offset and weight.
    offsets = np.concatenate([_footprint(k.shape[0]) for k in kernels])
    weights = np.concatenate([k.ravel() for k in kernels])
    sizes = np.array([k.size for k in kernels])
    starts = np.cumsum(sizes) - sizes
    centers = np.column_stack([ix, iy, iz])[mask]
    picks, rcs_in, vel_in = which[mask], cloud.rcs[mask], cloud.v[mask]
    shape = spec.cells
    rcs = np.zeros(shape)
    vel = np.zeros(shape)
    for lo in range(0, len(centers), DEPOSIT_BLOCK_POINTS):
        block = slice(lo, lo + DEPOSIT_BLOCK_POINTS)
        n = sizes[picks[block]]
        # Entry j of a point reads row starts[its kernel] + j of the table.
        point = np.repeat(np.arange(len(n)), n)
        row = np.arange(len(point)) + np.repeat(starts[picks[block]] - np.cumsum(n) + n, n)
        cells = centers[block][point] + offsets[row]
        inside = np.all((cells >= 0) & (cells < shape), axis=1)
        flat = np.ravel_multi_index(cells[inside].T, shape)
        point, w = point[inside], weights[row[inside]]
        np.add.at(rcs.reshape(-1), flat, w * rcs_in[block][point])
        np.add.at(vel.reshape(-1), flat, w * vel_in[block][point])
    count = np.zeros(shape, dtype=np.int64)
    np.add.at(count, (ix[mask], iy[mask], iz[mask]), 1)
    return VoxelGrid(spec, rcs, vel, count, out_of_range=int(np.count_nonzero(~mask)))


def voxelize(cloud: PointCloud, spec: GridSpec) -> VoxelGrid:
    """Bin points into the grid, accumulating RCS/velocity sums and counts.

    Out-of-range points are skipped; their number is reported on the
    returned grid's ``out_of_range`` field.
    """
    return _deposit(spec, cloud, [np.ones((1, 1, 1))], np.zeros(len(cloud), dtype=np.intp))


def expand(
    cloud: PointCloud,
    spec: GridSpec,
    params_per_point,
    exponent_mode: str = PLANAR_XY,
) -> VoxelGrid:
    """Deposit each point's RCS/velocity over its kernel footprint.

    Footprint cells falling outside the grid are clipped and their weight
    is lost (zero-padding semantics; no border re-normalization), which
    keeps the operation linear in the input cloud.
    """
    params_per_point = list(params_per_point)
    if len(params_per_point) != len(cloud):
        raise ValueError(f"{len(params_per_point)} kernel params for {len(cloud)} points")
    if len(cloud) == 0:
        return empty_grid(spec)
    index: dict[KernelParams, int] = {}
    which = np.array([index.setdefault(p, len(index)) for p in params_per_point])
    kernels = [build_kernel(p, exponent_mode) for p in index]
    return _deposit(spec, cloud, kernels, which)


def merge_residual(original: VoxelGrid, expanded: VoxelGrid) -> VoxelGrid:
    """Res-block combination: summed RCS/velocity, the original's read-only counts."""
    if original.spec != expanded.spec:
        raise ValueError("cannot merge grids with different specs")
    return VoxelGrid(
        spec=original.spec,
        rcs=original.rcs + expanded.rcs,
        vel=original.vel + expanded.vel,
        count=original.count,
        out_of_range=original.out_of_range,
    )


def bev_project(grid: VoxelGrid) -> np.ndarray:
    """Planar amplitude heatmap: sum of |rcs| over the vertical axis."""
    return np.abs(grid.rcs).sum(axis=2)


def write_voxel_grid(grid: VoxelGrid, path) -> None:
    """Flat binary export: RCVG header then rcs/vel/count in x-major order."""
    nx, ny, nz = grid.spec.cells
    bounds = (
        grid.spec.x_range + grid.spec.y_range + grid.spec.z_range
    )
    header = struct.pack(
        "<4sIIII6d", VOXEL_GRID_MAGIC, VOXEL_GRID_VERSION, nx, ny, nz, *bounds
    )
    if grid.count.max(initial=0) > np.iinfo(np.uint32).max:
        raise ValueError("count field does not fit in uint32")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(grid.rcs, dtype=np.float64).tobytes())
        fh.write(np.ascontiguousarray(grid.vel, dtype=np.float64).tobytes())
        fh.write(np.ascontiguousarray(grid.count, dtype=np.uint32).tobytes())


def read_voxel_grid(path) -> VoxelGrid:
    header_size = struct.calcsize("<4sIIII6d")
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < header_size:
        raise ValueError(f"truncated voxel grid file: {path}")
    magic, version, nx, ny, nz, *bounds = struct.unpack(
        "<4sIIII6d", raw[:header_size]
    )
    if magic != VOXEL_GRID_MAGIC:
        raise ValueError(f"bad voxel grid magic {magic!r}")
    if version != VOXEL_GRID_VERSION:
        raise ValueError(f"unsupported voxel grid version {version}")
    spec = GridSpec(
        x_range=(bounds[0], bounds[1]),
        y_range=(bounds[2], bounds[3]),
        z_range=(bounds[4], bounds[5]),
        cells=(nx, ny, nz),
    )
    n = nx * ny * nz
    sizes = (8 * n, 8 * n, 4 * n)
    if len(raw) != header_size + sum(sizes):
        raise ValueError(f"voxel grid payload size mismatch in {path}")
    offset = header_size
    rcs = np.frombuffer(raw, dtype="<f8", count=n, offset=offset).reshape(nx, ny, nz)
    offset += sizes[0]
    vel = np.frombuffer(raw, dtype="<f8", count=n, offset=offset).reshape(nx, ny, nz)
    offset += sizes[1]
    count = np.frombuffer(raw, dtype="<u4", count=n, offset=offset).reshape(nx, ny, nz)
    return VoxelGrid(spec=spec, rcs=rcs, vel=vel, count=count.astype(np.int64))
