"""The weather blend stays in [0, 1] without a clip.

For a sample x, map value m and atmosphere a, all in [0, 1], the blend
computes fl(fl(x * fl(1 - m)) + fl(a * m)). Rounding is monotone, so
fl(x * fl(1 - m)) <= fl(1 - m) and fl(a * m) <= m, and the sum rounds to at
most fl(fl(1 - m) + m). For m >= 1/2, 1 - m is exact and that sum is 1. For
m < 1/2, fl(1 - m) is within 2**-54 of 1 - m, so fl(1 - m) + m is within
2**-54 of 1 and rounds to 1. Every term is non-negative, so the result is
never below 0. Near m = 0 and m = 1 the rounding of 1 - m changes
character, so the tests walk every float there; elsewhere they sample.
The result must equal the clipped formula bit for bit, -0.0 included.
"""

import numpy as np
import pytest

from rcbench.imaging import DegradationMap, ImagePlane, composite_weather

WALK = 4096


def float_walk(start: float, toward: float, count: int) -> np.ndarray:
    """``count`` consecutive float64 values from ``start`` toward ``toward``."""
    out = np.empty(count)
    value = np.float64(start)
    for i in range(count):
        out[i] = value
        value = np.nextafter(value, toward)
    return out


def edge_maps() -> np.ndarray:
    """Every float near 0 (subnormals, and both sides of 2**-54 and 2**-53,
    where fl(1 - m) stops being 1) and every float just below 1."""
    return np.concatenate(
        [
            float_walk(0.0, 1.0, WALK),
            float_walk(2.0**-54, 0.0, WALK),
            float_walk(2.0**-54, 1.0, WALK),
            float_walk(2.0**-53, 0.0, WALK),
            float_walk(2.0**-53, 1.0, WALK),
            float_walk(0.5, 0.0, WALK),
            float_walk(0.5, 1.0, WALK),
            float_walk(1.0, 0.0, 4 * WALK),
        ]
    )


def blend(x: np.ndarray, m: np.ndarray, atmosphere: float) -> np.ndarray:
    img = ImagePlane(x.reshape(1, -1, 3))
    deg_map = DegradationMap(m.reshape(1, -1), kind="fog")
    return composite_weather(img, deg_map, atmosphere).data.reshape(-1, 3)


def clipped(x: np.ndarray, m: np.ndarray, atmosphere: float) -> np.ndarray:
    m3 = m[:, None]
    return np.clip(x.reshape(-1, 3) * (1.0 - m3) + atmosphere * m3, 0.0, 1.0)


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("atmosphere", [1.0, 0.8, 0.6, 0.0])
def test_edge_maps_at_full_samples_stay_in_bound(atmosphere):
    # x = 1 maximizes fl(x * fl(1 - m)) and a = 1 maximizes fl(a * m).
    m = edge_maps()
    x = np.ones(3 * m.size)
    out = blend(x, m, atmosphere)
    assert out.max() <= 1.0 and out.min() >= 0.0
    assert_same_bits(out, clipped(x, m, atmosphere))


@pytest.mark.parametrize("seed", range(4))
def test_edge_maps_with_random_samples_and_atmosphere(seed):
    gen = np.random.default_rng(seed)
    m = edge_maps()
    x = gen.uniform(size=3 * m.size)
    atmosphere = float(gen.uniform())
    out = blend(x, m, atmosphere)
    assert out.max() <= 1.0 and out.min() >= 0.0
    assert_same_bits(out, clipped(x, m, atmosphere))


@pytest.mark.parametrize("seed", range(4))
def test_random_maps_samples_and_atmosphere(seed):
    gen = np.random.default_rng(100 + seed)
    m = gen.uniform(size=50_000)
    x = gen.uniform(size=3 * m.size)
    atmosphere = float(gen.uniform())
    out = blend(x, m, atmosphere)
    assert out.max() <= 1.0 and out.min() >= 0.0
    assert_same_bits(out, clipped(x, m, atmosphere))


def test_negative_zero_is_kept():
    m = np.array([-0.0, 0.0, 0.25, 1.0])
    for x_value in (-0.0, 0.0):
        x = np.full(3 * m.size, x_value)
        for atmosphere in (-0.0, 0.0, 0.5):
            assert_same_bits(blend(x, m, atmosphere), clipped(x, m, atmosphere))
    out = blend(np.full(3, -0.0), np.array([0.0]), -0.0)
    assert np.all(np.signbit(out))
