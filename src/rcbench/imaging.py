"""Camera frame degradation: gamma low-light and map-based weather blending.

Images are dense [0, 1] float fields. Degradation maps are caller-supplied
(rain/snow/fog intensity fields); this module composites them, it does not
render them.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .core import Rng, read_only

# Gamma bands for the two low-light severities.
GAMMA_MILD_RANGE = (1.0, 2.0)
GAMMA_HEAVY_RANGE = (2.0, 3.0)

# Constant atmosphere value blended in per weather kind.
ATMOSPHERE_DEFAULTS = {"rain": 0.6, "fog": 0.8, "snow": 0.8}

# Map strength per weather level; light conditions attenuate the map.
WEATHER_LEVEL_STRENGTH = {"light": 0.5, "heavy": 1.0}

WEATHER_KINDS = ("rain", "fog", "snow")
# Rain and fog come in two severities; snow has a single level.
WEATHER_LEVELS = {"rain": ("light", "heavy"), "fog": ("light", "heavy"), "snow": ("heavy",)}
LOWLIGHT_LEVELS = ("mild", "heavy")


@dataclass(frozen=True)
class ImagePlane:
    """H x W x 3 image with samples in [0, 1]."""

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.data, dtype=np.float64, copy=True)
        if arr.ndim != 3 or arr.shape[2] != 3:
            raise ValueError(f"image must be (h, w, 3), got {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("image must have positive dimensions")
        if not np.all(np.isfinite(arr)) or arr.min() < 0.0 or arr.max() > 1.0:
            raise ValueError("image samples must lie in [0, 1]")
        object.__setattr__(self, "data", read_only(arr))


@dataclass(frozen=True)
class DegradationMap:
    """Per-pixel weather intensity in [0, 1], single- or three-channel."""

    data: np.ndarray
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in WEATHER_KINDS:
            raise ValueError(f"unknown weather kind: {self.kind!r}")
        arr = np.array(self.data, dtype=np.float64, copy=True)
        if arr.ndim == 3 and arr.shape[2] == 1:
            arr = arr[:, :, 0]
        if arr.ndim != 2 and (arr.ndim != 3 or arr.shape[2] != 3):
            raise ValueError(f"map must be (h, w) or (h, w, 1|3), got {arr.shape}")
        if not np.all(np.isfinite(arr)) or arr.min() < 0.0 or arr.max() > 1.0:
            raise ValueError("map samples must lie in [0, 1]")
        object.__setattr__(self, "data", read_only(arr))


def _bound_plane(arr: np.ndarray) -> ImagePlane:
    """Wrap a fresh array bound to [0, 1] by construction: no copy, no scan."""
    plane = object.__new__(ImagePlane)
    object.__setattr__(plane, "data", read_only(arr))
    return plane


def _fill_frames(fill, frames) -> list[ImagePlane]:
    """Run ``fill(src, out)`` for each frame on at most 2 threads.

    This thread allocates every output: arrays a worker allocates stay in
    its glibc arena after it exits, which inflates the resident set. The
    frames are independent, so the outputs do not depend on scheduling.
    """
    outs = [np.empty_like(frame.data) for frame in frames]
    with ThreadPoolExecutor(max_workers=2) as pool:
        list(pool.map(fill, [frame.data for frame in frames], outs))
    return [_bound_plane(out) for out in outs]


def _lowlight(gamma: float):
    """Per-frame ``gamma_lowlight`` as ``fill(src, out)``."""
    if not gamma > 0 or not math.isfinite(gamma):
        raise ValueError(f"gamma must be positive, got {gamma}")

    def fill(src, out):
        np.power(src, gamma, out=out)

    return fill


def gamma_lowlight(img: ImagePlane, gamma: float) -> ImagePlane:
    """Classic gamma darkening: every sample is raised to ``gamma``."""
    fill = _lowlight(gamma)
    if gamma == 1.0:
        return img
    return _fill_frames(fill, [img])[0]


def _weather_blend(deg_map: DegradationMap, parameter: float, atmosphere: float, frames):
    """Per-frame ``composite_weather`` at map strength ``parameter``, as
    ``fill(src, out)``, once every frame's dims are checked against the map."""
    if not 0.0 <= atmosphere <= 1.0:
        raise ValueError(f"atmosphere must lie in [0, 1], got {atmosphere}")
    dims = deg_map.data.shape[:2]
    for img in frames:
        if dims != img.data.shape[:2]:
            raise ValueError(f"map dims {dims} != image dims {img.data.shape[:2]}")
    # The two operands are built once, full-shape, so each frame's loops are long.
    m = np.broadcast_to(deg_map.data.reshape(*dims, -1) * parameter, (*dims, 3))
    keep, add = 1.0 - m, atmosphere * m

    # With x, m and a in [0, 1], fl(x * fl(1 - m)) + fl(a * m) <= 1 and is
    # never below 0, so the sum needs no clip (tests/test_weather_bound.py).
    def fill(src, out):
        np.multiply(src, keep, out=out)
        out += add

    return fill


def composite_weather(
    img: ImagePlane, deg_map: DegradationMap, atmosphere: float
) -> ImagePlane:
    """Alpha-blend the image toward a constant atmosphere value.

    out = img * (1 - map) + atmosphere * map, which stays in [0, 1].
    Single-channel maps broadcast across the three image channels.
    """
    return _fill_frames(_weather_blend(deg_map, 1.0, atmosphere, [img]), [img])[0]


@dataclass(frozen=True)
class DegradationSpec:
    """Candidate degradations for one timestamp.

    ``kinds`` lists the admissible degradations ("lowlight" plus any
    weather kind that has a map in ``maps``); one (kind, level) pair is
    sampled per application and shared across all frames.
    """

    kinds: tuple[str, ...]
    seed: int
    maps: dict = field(default_factory=dict)
    atmosphere: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        kinds = tuple(self.kinds)
        if not kinds:
            raise ValueError("at least one degradation kind is required")
        for kind in kinds:
            if kind != "lowlight" and kind not in WEATHER_KINDS:
                raise ValueError(f"unknown degradation kind: {kind!r}")
            if kind in WEATHER_KINDS and kind not in self.maps:
                raise ValueError(f"weather kind {kind!r} requires a map")
        object.__setattr__(self, "kinds", kinds)

    def atmosphere_for(self, kind: str) -> float:
        return self.atmosphere.get(kind, ATMOSPHERE_DEFAULTS[kind])


def sample_degradation(spec: DegradationSpec, rng: Rng) -> tuple[str, str, float]:
    """Draw one (kind, level, parameter) triple from the candidates.

    The parameter is the gamma exponent for low light and the map
    strength for weather kinds.
    """
    gen = rng.generator()
    kind = spec.kinds[int(gen.integers(0, len(spec.kinds)))]
    if kind == "lowlight":
        level = LOWLIGHT_LEVELS[int(gen.integers(0, len(LOWLIGHT_LEVELS)))]
        band = GAMMA_MILD_RANGE if level == "mild" else GAMMA_HEAVY_RANGE
        return kind, level, float(gen.uniform(*band))
    levels = WEATHER_LEVELS[kind]
    level = levels[int(gen.integers(0, len(levels)))]
    return kind, level, WEATHER_LEVEL_STRENGTH[level]


def same_timestamp_consistency(frames, spec: DegradationSpec) -> list[ImagePlane]:
    """Degrade all frames of one timestamp with a single sampled setting.

    The (kind, level) draw happens once, so every camera view receives
    identical degradation parameters.
    """
    frames = list(frames)
    if not frames:
        raise ValueError("at least one frame is required")
    kind, _, parameter = sample_degradation(spec, Rng(spec.seed, stream=0))
    if kind == "lowlight":
        fill = _lowlight(parameter)
    else:
        fill = _weather_blend(spec.maps[kind], parameter, spec.atmosphere_for(kind), frames)
    return _fill_frames(fill, frames)

