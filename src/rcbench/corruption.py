"""Seeded radar point-cloud corruption models.

Five corruption families over 5-D radar points: key-point removal,
spurious-point injection, positional shifting, RCS/velocity disturbance,
and azimuth beam dropping. Every operation is a pure function of its
inputs and the supplied random stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import GridSpec, PointCloud, Rng, is_int, is_real, points_in_any_box_mask

# The range gen_manifest draws a sigma kind's level from; spec_for_level
# rejects a sigma above its top.
SIGMA_RANGE = (1.0, 50.0)
# Azimuth sectors used to emulate radar beams; points carry no beam index,
# so beams are synthesized as equal sectors around the sensor origin.
DEFAULT_BEAM_COUNT = 32
# Injected points as a fraction of the input cloud size.
DEFAULT_SPURIOUS_RATIO = 0.2

# Cap on removable points when deleting inside target regions.
TARGETED_REMOVAL_CAP = 8


class CorruptionKind(str, Enum):
    KEY_POINT_MISSING = "KeyPointMissing"
    SPURIOUS_POINTS = "SpuriousPoints"
    POINT_SHIFTING = "PointShifting"
    NON_POSITIONAL_DISTURBANCE = "NonPositionalDisturbance"
    BEAM_DROP = "BeamDrop"


class SpuriousMode(str, Enum):
    POINT_RELATED = "PointRelated"
    RANDOM = "Random"


# Kinds whose severity level is a noise sigma; the others take an integer
# count (beams for BeamDrop, points for KeyPointMissing).
SIGMA_KINDS = frozenset(
    {
        CorruptionKind.SPURIOUS_POINTS,
        CorruptionKind.POINT_SHIFTING,
        CorruptionKind.NON_POSITIONAL_DISTURBANCE,
    }
)


def check_count(
    kind: CorruptionKind,
    count: int,
    gamma: int = 0,
    total_beams: int = DEFAULT_BEAM_COUNT,
    n: int | None = None,
) -> None:
    """Raise ValueError when a count kind's count is out of range.

    BeamDrop drops 1 to total_beams beams. KeyPointMissing removes at
    least one point, and at most TARGETED_REMOVAL_CAP with gamma=1 or half
    of the cloud's n points with gamma=0. Only that last cap depends on the
    scene; with n None it is not checked. Sigma kinds have no count.
    """
    if kind is CorruptionKind.BEAM_DROP:
        if not 1 <= count <= total_beams:
            raise ValueError(f"drop_count={count} outside [1, total_beams={total_beams}]")
    elif kind is CorruptionKind.KEY_POINT_MISSING:
        cap = TARGETED_REMOVAL_CAP if gamma == 1 else None if n is None else n // 2
        if count < 1 or (cap is not None and count > cap):
            raise ValueError(
                f"k={count} outside [1, {'n // 2' if cap is None else cap}] for gamma={gamma}"
            )


def _sample_without_replacement(
    gen: np.random.Generator, pool: np.ndarray, k: int
) -> np.ndarray:
    """Uniform k-subset of pool via a partial Fisher-Yates shuffle."""
    pool = pool.copy()
    n = pool.shape[0]
    for i in range(k):
        j = i + int(gen.integers(0, n - i))
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k]


def key_point_missing(
    cloud: PointCloud, boxes, gamma: int, k: int, rng: Rng
) -> PointCloud:
    """Remove k points, either cloud-wide (gamma=0) or from target regions.

    gamma=0 deletes k points uniformly without replacement from the whole
    cloud, with k capped at half the cloud size. gamma=1 deletes
    min(k, points inside any box) from the in-box subset, k capped at
    TARGETED_REMOVAL_CAP. Survivors keep their values and relative order.
    """
    n = len(cloud)
    if n == 0:
        raise ValueError("cannot remove points from an empty cloud")
    if gamma not in (0, 1):
        raise ValueError(f"gamma must be 0 or 1, got {gamma}")
    check_count(CorruptionKind.KEY_POINT_MISSING, k, gamma, n=n)

    if gamma == 0:
        eligible = np.arange(n)
    else:
        eligible = np.flatnonzero(points_in_any_box_mask(cloud.xyz, boxes))
    removable = min(k, eligible.shape[0])
    if removable == 0:
        return cloud
    removed = _sample_without_replacement(rng.generator(), eligible, removable)
    keep = np.ones(n, dtype=bool)
    keep[removed] = False
    return cloud.with_data(cloud.data[keep])


def spurious_points(
    cloud: PointCloud,
    mode: SpuriousMode,
    spurious_ratio: float,
    sigma: float,
    bounds: GridSpec,
    rng: Rng,
) -> PointCloud:
    """Append false-positive points drawn around a base location.

    The base of each injected point is either a uniformly chosen existing
    point (PointRelated) or a uniform draw over the grid bounds for
    position and the cloud's empirical range for RCS/velocity (Random).
    Each base is then perturbed by i.i.d. per-dimension N(0, sigma^2)
    noise. In Random mode the perturbed positions are clipped back into
    the bounds so injected points never leave the scene volume.
    """
    n = len(cloud)
    if n == 0:
        raise ValueError("spurious_points requires a non-empty cloud")
    if not 0.0 < spurious_ratio <= 1.0:
        raise ValueError(f"spurious_ratio must lie in (0, 1], got {spurious_ratio}")
    if not sigma > 0 or not math.isfinite(sigma):
        raise ValueError(f"sigma must be a positive real, got {sigma}")

    gen = rng.generator()
    m = max(1, int(round(spurious_ratio * n)))
    mode = SpuriousMode(mode)
    if mode is SpuriousMode.POINT_RELATED:
        base_idx = gen.integers(0, n, size=m)
        base = cloud.data[base_idx]
    else:
        cols = [gen.uniform(lo, hi, size=m) for lo, hi in bounds.ranges]
        cols.append(gen.uniform(cloud.rcs.min(), cloud.rcs.max(), size=m))
        cols.append(gen.uniform(cloud.v.min(), cloud.v.max(), size=m))
        base = np.column_stack(cols)
    added = base + gen.normal(0.0, sigma, size=(m, 5))
    if mode is SpuriousMode.RANDOM:
        for axis, (lo, hi) in enumerate(bounds.ranges):
            added[:, axis] = np.clip(added[:, axis], lo, hi)
    return cloud.with_data(np.vstack([cloud.data, added]))


def point_shift(cloud: PointCloud, sigma: float, rng: Rng) -> PointCloud:
    """Displace each point's position by i.i.d. N(0, sigma^2) per axis.

    RCS and velocity are untouched; this corruption is positional only.
    """
    if not sigma > 0 or not math.isfinite(sigma):
        raise ValueError(f"sigma must be a positive real, got {sigma}")
    data = cloud.data.copy()
    data[:, 0:3] += rng.generator().normal(0.0, sigma, size=(len(cloud), 3))
    return cloud.with_data(data)


def non_positional_disturbance(cloud: PointCloud, sigma: float, rng: Rng) -> PointCloud:
    """Add N(0, sigma^2) noise to RCS and velocity, keeping positions."""
    if not sigma > 0 or not math.isfinite(sigma):
        raise ValueError(f"sigma must be a positive real, got {sigma}")
    data = cloud.data.copy()
    data[:, 3:5] += rng.generator().normal(0.0, sigma, size=(len(cloud), 2))
    return cloud.with_data(data)


def beam_azimuth_sector(x, y, total_beams: int):
    """Sector index of the azimuth atan2(y, x) in [-pi, pi), vectorized."""
    angle = np.arctan2(y, x)
    sector = np.floor((angle + math.pi) * total_beams / (2.0 * math.pi))
    return sector.astype(np.int64) % total_beams


def beam_drop(
    cloud: PointCloud, total_beams: int, drop_count: int, rng: Rng
) -> PointCloud:
    """Remove all points whose azimuth falls in dropped beam sectors.

    The azimuth circle is split into total_beams equal sectors and
    drop_count of them are chosen uniformly without replacement.
    """
    if total_beams < 1:
        raise ValueError(f"total_beams must be positive, got {total_beams}")
    check_count(CorruptionKind.BEAM_DROP, drop_count, total_beams=total_beams)
    if len(cloud) == 0:
        return cloud
    dropped = _sample_without_replacement(
        rng.generator(), np.arange(total_beams), drop_count
    )
    sectors = beam_azimuth_sector(cloud.data[:, 0], cloud.data[:, 1], total_beams)
    keep = ~np.isin(sectors, dropped)
    return cloud.with_data(cloud.data[keep])


@dataclass(frozen=True)
class CorruptionSpec:
    """Declarative corruption configuration.

    Only the fields relevant to ``kind`` are interpreted; the rest keep
    their defaults and are ignored. A SIGMA_KINDS kind needs a sigma.
    """

    kind: CorruptionKind
    seed: int = 0
    gamma: int = 0
    mode: SpuriousMode = SpuriousMode.POINT_RELATED
    sigma: float | None = None
    drop_count: int = 0
    spurious_ratio: float = DEFAULT_SPURIOUS_RATIO

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", CorruptionKind(self.kind))
        object.__setattr__(self, "mode", SpuriousMode(self.mode))
        if not is_int(self.seed) or not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed must be an integer in [0, 2**64), got {self.seed}")
        if not is_int(self.gamma) or self.gamma not in (0, 1):
            raise ValueError(f"gamma must be 0 or 1, got {self.gamma}")
        if not is_real(self.spurious_ratio) or not 0.0 < self.spurious_ratio <= 1.0:
            raise ValueError(f"spurious_ratio must lie in (0, 1], got {self.spurious_ratio}")
        if self.sigma is not None and not (is_real(self.sigma) and self.sigma > 0):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        if not is_int(self.drop_count) or self.drop_count < 0:
            raise ValueError(f"drop_count must be a non-negative integer, got {self.drop_count}")
        if self.sigma is None and self.kind in SIGMA_KINDS:
            raise ValueError(f"{self.kind.value} needs a sigma")


def spec_for_level(
    kind: CorruptionKind,
    level: float,
    seed: int,
    mode: SpuriousMode = SpuriousMode.POINT_RELATED,
    spurious_ratio: float = DEFAULT_SPURIOUS_RATIO,
    gamma: int = 0,
) -> CorruptionSpec:
    """The spec for one severity level of a kind.

    The level is the sigma of a SIGMA_KINDS kind, which must be positive
    and at most ``SIGMA_RANGE[1]`` metres, and otherwise a count, which
    must be a non-negative integer; anything else raises ValueError. A
    sigma kind's spec takes ``mode`` and ``spurious_ratio``, a count
    kind's takes ``gamma``.
    """
    kind = CorruptionKind(kind)
    if kind in SIGMA_KINDS:
        if level > SIGMA_RANGE[1]:
            raise ValueError(f"{kind.value} sigma must be at most {SIGMA_RANGE[1]:g}, got {level}")
        return CorruptionSpec(
            kind=kind, seed=seed, mode=mode, sigma=level, spurious_ratio=spurious_ratio
        )
    if not (math.isfinite(level) and level >= 0 and level == int(level)):
        raise ValueError(f"{kind.value} levels must be non-negative integers, got {level}")
    return CorruptionSpec(kind=kind, seed=seed, gamma=gamma, drop_count=int(level))


def apply_corruption(
    cloud: PointCloud,
    spec: CorruptionSpec,
    boxes=(),
    bounds: GridSpec | None = None,
    total_beams: int = DEFAULT_BEAM_COUNT,
) -> PointCloud:
    """Run the corruption described by ``spec`` on a cloud."""
    rng = Rng(spec.seed, stream=0)
    if spec.kind is CorruptionKind.KEY_POINT_MISSING:
        return key_point_missing(cloud, boxes, spec.gamma, spec.drop_count, rng)
    if spec.kind is CorruptionKind.SPURIOUS_POINTS:
        if bounds is None:
            raise ValueError("spurious_points requires grid bounds")
        return spurious_points(cloud, spec.mode, spec.spurious_ratio, spec.sigma, bounds, rng)
    if spec.kind is CorruptionKind.POINT_SHIFTING:
        return point_shift(cloud, spec.sigma, rng)
    if spec.kind is CorruptionKind.NON_POSITIONAL_DISTURBANCE:
        return non_positional_disturbance(cloud, spec.sigma, rng)
    if spec.kind is CorruptionKind.BEAM_DROP:
        return beam_drop(cloud, total_beams, spec.drop_count, rng)
    raise ValueError(f"unhandled corruption kind: {spec.kind}")
