"""Voxelization and adaptive 3D Gaussian expansion of radar clouds.

Each point's RCS/velocity mass is spread over a lambda^3 voxel
neighborhood with normalized Gaussian weights whose size and spread come
from an RCS/velocity-driven parameter projector, then residually merged
with the raw grid. Dense target regions reinforce each other while
isolated false positives are diluted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core import (
    GridSpec,
    PointCloud,
    VoxelGrid,
    bounded_runs,
    freeze_arrays,
    read_only,
    voxel_indices,
)

# Admissible kernel side lengths, in voxels.
LAMBDA_CHOICES = (1, 3, 5)
_SIDES = np.array(LAMBDA_CHOICES)

# Exponent modes: the planar form spreads by in-plane distance only,
# the isotropic form decays in all three axes.
PLANAR_XY = "planar_xy"
ISOTROPIC_3D = "isotropic_3d"
EXPONENT_MODES = (PLANAR_XY, ISOTROPIC_3D)

PROJECTOR_HIDDEN = 8
SIGMA_FLOOR = 0.1

# Kernel cells per block of _entries: a block holds whole kernels, at least
# one, so at most max(this, 125) entries, each a few int64s, are held at once.
DEPOSIT_BLOCK_ENTRIES = 1 << 13
# Points that residual_columns deposits in one pass, across consecutive clouds.
DEPOSIT_BATCH_POINTS = 1 << 10


def _checked_sigma(sigma) -> np.ndarray:
    sigma = np.asarray(sigma, dtype=np.float64)
    if not ((sigma > 0) & np.isfinite(sigma)).all():
        raise ValueError("sigma must be positive and finite")
    return sigma


def kernel_params(lambda_p, sigma) -> np.recarray:
    """Per-point expansion parameters as one record array: an int64 kernel
    side ``lambda_p`` from LAMBDA_CHOICES and a positive, finite float64
    Gaussian spread ``sigma`` in voxel units, so kernels do not depend on
    the grid's resolution. The inputs broadcast, scalars give one record,
    and any other side or sigma raises ``ValueError``.
    """
    sig = np.atleast_1d(_checked_sigma(sigma))
    lam, sig = np.broadcast_arrays(np.atleast_1d(lambda_p), sig)
    if lam.ndim != 1:
        raise ValueError(f"kernel params must be 1-D, got shape {lam.shape}")
    if not (lam == _SIDES[:, None]).any(axis=0).all():
        raise ValueError(f"lambda_p must be one of {LAMBDA_CHOICES}")
    params = np.empty(len(lam), dtype=[("lambda_p", np.int64), ("sigma", np.float64)])
    params["lambda_p"], params["sigma"] = lam, sig
    return params.view(np.recarray)


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


def load_projector_weights(path) -> ProjectorWeights:
    """Read a weights file; any malformed payload raises ``ValueError``."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"projector weights must be a JSON object, got {type(payload).__name__}")
    try:
        return ProjectorWeights(**{name: payload[name] for name in ("w1", "b1", "w2", "b2")})
    except KeyError as exc:
        raise ValueError(f"projector weights file missing block {exc}") from exc
    except (TypeError, OverflowError) as exc:
        # A block that is no array of numbers: an object, or an integer beyond float64.
        raise ValueError(f"malformed projector weights: {exc}") from exc


def project_params(rcs, v, weights: ProjectorWeights) -> np.recarray:
    """Kernel parameters of each (rcs, v) pair from the learned projector.

    The kernel side is the argmax of three size logits mapped onto
    LAMBDA_CHOICES (ties break toward the smallest side), and sigma is
    softplus(raw) + 0.1 so the spread never collapses to zero. Each layer
    is one matrix-vector product per point, stacked, so every point gets
    the bits it would get on its own.
    """
    x = np.column_stack([rcs, v]).astype(np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("projector inputs must be finite")
    hidden = np.maximum((weights.w1 @ x[:, :, None])[:, :, 0] + weights.b1, 0.0)
    out = (weights.w2 @ hidden[:, :, None])[:, :, 0] + weights.b2
    lambda_p = _SIDES[np.argmax(out[:, :3], axis=1)]
    return kernel_params(lambda_p, np.logaddexp(0.0, out[:, 3]) + SIGMA_FLOOR)


# The heuristic's three classes, weakest RCS quartile first.
_HEURISTIC_CLASSES = kernel_params([5, 3, 1], np.array([5, 3, 1]) / 3.0)


def heuristic_kernel_params(cloud: PointCloud) -> np.recarray:
    """Training-free parameters from the cloud's RCS quartiles.

    Weak returns (likely clutter) get wide kernels that dilute their
    mass; strong returns keep a unit kernel and stay concentrated.
    sigma is tied to the side as lambda/3.
    """
    if len(cloud) == 0:
        return _HEURISTIC_CLASSES[:0]
    q25, q75 = np.percentile(cloud.rcs, [25.0, 75.0])
    return _HEURISTIC_CLASSES[np.select([cloud.rcs < q25, cloud.rcs < q75], [0, 1], default=2)]


def kernel_params_for_cloud(
    cloud: PointCloud, weights: ProjectorWeights | None = None
) -> np.recarray:
    """Per-point parameters: learned when weights are given, else heuristic."""
    if weights is None:
        return heuristic_kernel_params(cloud)
    return project_params(cloud.rcs, cloud.v, weights)


# Shared, read-only (3, side^3) int8 per-axis offsets of a side^3 kernel's cells, in C order.
_FOOTPRINTS = {
    s: read_only(np.indices((s, s, s), np.int8).reshape(3, -1) - (s - 1) // 2)
    for s in LAMBDA_CHOICES
}


def build_kernel(side: int, sigma, exponent_mode: str = PLANAR_XY) -> np.ndarray:
    """Normalized side^3 Gaussian weight cubes, one per sigma.

    The unnormalized weight at integer offset (dx, dy, dz) is
    exp(-(dx^2 + dy^2) / (2 sigma^2)) in planar mode, with dz^2 added in
    isotropic mode; each cube is then divided by its total so it sums to
    exactly 1. ``sigma`` is a scalar or a 1-D array, and the result has
    shape ``np.shape(sigma) + (side, side, side)``.
    """
    if exponent_mode not in EXPONENT_MODES:
        raise ValueError(f"unknown exponent mode: {exponent_mode!r}")
    if side not in LAMBDA_CHOICES:
        raise ValueError(f"side must be one of {LAMBDA_CHOICES}, got {side}")
    sigma = _checked_sigma(sigma)
    axes = 3 if exponent_mode == ISOTROPIC_3D else 2
    sq = (_FOOTPRINTS[side][:axes].astype(np.float64) ** 2).sum(axis=0)
    # float_power squares with libm pow, as Python's float ** does; sigma * sigma
    # differs from it in the last bit for about 1 sigma in 1000.
    cubes = np.exp(-sq / (2.0 * np.float_power(sigma[..., None], 2.0)))
    cubes /= cubes.sum(axis=-1, keepdims=True)
    return cubes.reshape(sigma.shape + (side,) * 3)


def _kernel_groups(params, sizes: list[int], mask: np.ndarray, exponent_modes):
    """Check one record per point of clouds of ``sizes`` points with in-range
    points ``mask``, and number one kernel per distinct (side, sigma):
    ``(groups, which, sides, tables)``, with ``[(side, sigmas), ...]`` side
    after side, each in-range point's kernel and side (1 with no modes), and
    per mode every raveled cube of those same kernels."""
    if not exponent_modes:
        return [], None, np.ones(np.count_nonzero(mask), np.int64), []
    if [len(p) for p in params] != sizes:
        raise ValueError(f"{[len(p) for p in params]} kernel params for {sizes} points")
    records = np.concatenate(params)
    checked = kernel_params(records["lambda_p"], records["sigma"])
    # Complex numbers sort by real part first, so kernels go side after side.
    kinds, which = np.unique(checked["lambda_p"] + 1j * checked["sigma"], return_inverse=True)
    groups = [(side, kinds.imag[kinds.real == side]) for side in LAMBDA_CHOICES]
    cubes = [[build_kernel(s, sig, mode).ravel() for s, sig in groups] for mode in exponent_modes]
    return groups, which[mask], checked["lambda_p"][mask], [np.concatenate(c) for c in cubes]


def _entries(key: np.ndarray, z: np.ndarray, groups, which: np.ndarray, rank, nz: int):
    """Yield ``(flat cell, kernel cell, point)`` blocks of whole kernels, at
    most DEPOSIT_BLOCK_ENTRIES kernel cells each unless one kernel is larger,
    for point i's kernel ``which[i]`` (numbered as ``_kernel_groups`` does)
    centered on height ``z[i]`` of flat (x, y) column ``key[i]`` of ``rank``:
    height z of column k is flat cell ``rank[k] * nz + z`` of a table, and a
    cell past the grid's heights is dropped. Kernel cell c indexes every
    mode's weights alike, so one block serves them all, in point order."""
    # One column per kernel cell, kernel after kernel: its per-axis offsets.
    offsets = np.concatenate([np.tile(_FOOTPRINTS[s], len(sig)) for s, sig in groups], axis=1)
    sizes = np.concatenate([np.full(len(sigmas), side**3) for side, sigmas in groups])
    starts = np.cumsum(sizes) - sizes
    step, rise = offsets[0].astype(np.int64) * rank.shape[-1] + offsets[1], offsets[2]
    for lo, hi in bounded_runs(sizes[which], DEPOSIT_BLOCK_ENTRIES):
        picks = which[lo:hi]
        n = sizes[picks]
        first = np.cumsum(n) - n
        point = np.repeat(np.arange(lo, hi), n)
        # Cell j of a point's kernel is column starts[kernel] + j of the table.
        row = np.arange(first[-1] + n[-1]) + np.repeat(starts[picks] - first, n)
        col, at = rank.take(key[point] + step[row]), z[point] + rise[row]
        # A negative height reads as a huge unsigned one, so one compare bounds it.
        inside = at.view(np.uint64) < nz
        block = col[inside] * nz + at[inside], row[inside], point[inside]
        # Only the block stays alive while the caller works on it.
        del point, row, col, at, inside
        yield block


def _summed(clouds, spec: GridSpec, params, exponent_modes, *fields):
    """``(mask, cells, cols, sums)`` of the clouds' points laid end to end,
    ``cells`` holding each in-range point's cloud b, x, y and z: each data
    column in ``fields`` summed into ``(len(cols), nz)`` tables of the columns
    ``cols`` the kernels reach, cloud b's (x, y) being ``(b * nx + x) * ny +
    y``. The first table bins each point's value at its own cell, as a unit
    kernel's ``1.0 * v`` did bit for bit; one per mode follows, adding ``w[kernel
    cell] * v[point]`` from one ``_entries`` pass. ``np.add.at`` adds in point
    order, so a cell sums its cloud's points in that order whatever the block."""
    sizes = [len(c) for c in clouds]
    data = np.concatenate([c.data for c in clouds])
    mask, *cells = voxel_indices(spec, data[:, :3])
    nx, ny, nz = spec.cells
    cloud = np.repeat(np.arange(len(clouds)), sizes)
    cells, values = np.stack([cloud, *cells])[:, mask], [data[mask, f] for f in fields]
    groups, which, sides, tables = _kernel_groups(params, sizes, mask, exponent_modes)
    # Each cloud's columns, bordered by the widest reach so no kernel leaves them. A
    # deposit touches each point's column, widened by its kernel's reach, widest first.
    reach = (sides - 1) // 2
    pad = reach.max(initial=0)
    near = np.zeros((len(clouds), nx + 2 * pad, ny + 2 * pad), bool)
    inner = near[:, pad : pad + nx, pad : pad + ny]
    for r in range(pad, -1, -1):
        inner[tuple(cells[:3, reach == r])] = True
        if r:
            inner[:, 1:] |= inner[:, :-1]
            inner[:, :-1] |= inner[:, 1:]
            inner[:, :, 1:] |= inner[:, :, :-1]
            inner[:, :, :-1] |= inner[:, :, 1:]
    cols = np.flatnonzero(near)
    # The border ranks past the tables, in one column that takes what falls off the grid.
    rank = np.full(near.shape, len(cols), np.min_scalar_type((len(cols) + 1) * nz))
    del near, inner
    rank.put(cols, np.arange(len(cols)))
    key = np.ravel_multi_index((cells[0], cells[1] + pad, cells[2] + pad), rank.shape)
    sums = np.zeros((1 + len(tables), len(values), len(cols) + 1, nz))
    for total, v in zip(sums[0].reshape(len(values), -1), values):
        np.add.at(total, rank.take(key) * nz + cells[3], v)
    for flat, cell, point in _entries(key, cells[3], groups, which, rank, nz) if tables else ():
        for table, w in zip(sums[1:], tables):
            w = w[cell]
            for total, v in zip(table.reshape(len(values), -1), values):
                np.add.at(total, flat, w * v[point])
        del flat, cell, point, w
    b, x, y = np.unravel_index(cols, rank.shape)
    return mask, cells, (b * nx + x - pad) * ny + y - pad, sums[:, :, :-1]


def _grid(cloud: PointCloud, spec: GridSpec, params, exponent_modes) -> VoxelGrid:
    """``voxelize``'s grid with no modes, else the one mode's ``expand``."""
    mask, cells, cols, sums = _summed([cloud], spec, [params], exponent_modes, 3, 4)
    nx, ny, nz = spec.cells
    dense = np.zeros((2, nx * ny, nz))
    dense[:, cols] = sums[-1]
    rcs, vel = read_only(dense.reshape(2, *spec.cells))
    count = np.zeros(spec.cells, dtype=np.int64)
    np.add.at(count, tuple(cells[1:]), 1)
    return VoxelGrid(spec, rcs, vel, read_only(count), out_of_range=int(np.count_nonzero(~mask)))


def voxelize(cloud: PointCloud, spec: GridSpec) -> VoxelGrid:
    """Bin points into the grid, accumulating RCS/velocity sums and counts at
    each point's own cell, in point order; no kernel is built. Out-of-range
    points are skipped, and the grid's ``out_of_range`` field counts them."""
    return _grid(cloud, spec, None, ())


def expand(cloud: PointCloud, spec: GridSpec, params, exponent_mode: str = PLANAR_XY) -> VoxelGrid:
    """Deposit each point's RCS/velocity over its kernel footprint.

    ``params`` holds one record per point, as ``kernel_params`` builds
    them. Footprint cells falling outside the grid are clipped and their
    weight is lost (zero-padding semantics; no border re-normalization),
    which keeps the operation linear in the input cloud.
    """
    return _grid(cloud, spec, params, (exponent_mode,))


def residual_columns(clouds, spec: GridSpec, params, exponent_modes):
    """Yield per cloud ``(cols, amps)``: ``amps[0]`` is ``bev_project`` of
    ``voxelize``, and ``amps[k]`` of ``merge_residual`` with mode k's ``expand``,
    bit for bit, at the flat (x, y) columns ``cols`` (0.0 elsewhere), so no dense
    grid is built; a cloud's ``params`` entry is unused with no modes.
    Consecutive clouds of at most DEPOSIT_BATCH_POINTS points in all share one
    pass; a larger one is alone."""
    nx, ny, _ = spec.cells
    # A cloud counts as at least 1/16 of the bound: a pass holds at most 16 (nx, ny) rank slabs.
    sizes = [max(len(c), DEPOSIT_BATCH_POINTS // 16) for c in clouds]
    for lo, hi in bounded_runs(sizes, DEPOSIT_BATCH_POINTS):
        _, _, cols, amps = _summed(clouds[lo:hi], spec, params[lo:hi], exponent_modes, 3)
        # In place, the bits of raw + e (IEEE addition commutes); tables go before the next pass.
        amps[1:] += amps[0]
        amps = np.abs(amps, out=amps).sum(axis=3)[:, 0]
        cuts = np.searchsorted(cols, np.arange(1, hi - lo) * (nx * ny))
        yield from zip(np.split(cols % (nx * ny), cuts), np.split(amps, cuts, axis=1))


def column_bevs(spec: GridSpec, cols: np.ndarray, amps: np.ndarray) -> list[np.ndarray]:
    """The (nx, ny) maps that are ``amps[k]`` at the flat columns ``cols``, else 0.0."""
    bevs = np.zeros((len(amps), spec.cells[0] * spec.cells[1]))
    for bev, amp in zip(bevs, amps):
        bev[cols] = amp
    return list(bevs.reshape(-1, *spec.cells[:2]))


def merge_residual(original: VoxelGrid, expanded: VoxelGrid) -> VoxelGrid:
    """Res-block combination: summed RCS/velocity, the original's read-only counts."""
    if original.spec != expanded.spec:
        raise ValueError("cannot merge grids with different specs")
    return VoxelGrid(
        spec=original.spec,
        rcs=read_only(original.rcs + expanded.rcs),
        vel=read_only(original.vel + expanded.vel),
        count=original.count,
        out_of_range=original.out_of_range,
    )


def bev_project(grid: VoxelGrid) -> np.ndarray:
    """Planar amplitude heatmap: sum of |rcs| over the vertical axis."""
    return np.abs(grid.rcs).sum(axis=2)
