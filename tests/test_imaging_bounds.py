"""Degraded frames are built without a second validation pass.

`gamma_lowlight` and the weather blend wrap their fresh arrays in an
`ImagePlane` with no copy and no finite/min/max scan, because their values
are bound to [0, 1] by construction. These tests hold them to that bound on
extreme inputs, check that the arrays are locked and share no memory with
the caller's frame or map, and pin the errors that the per-frame checks
and the map's shape check still raise.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rcbench.core import Rng
from rcbench.imaging import (
    DegradationMap,
    DegradationSpec,
    ImagePlane,
    composite_weather,
    gamma_lowlight,
    same_timestamp_consistency,
    sample_degradation,
)

SHAPE = (5, 7)
FRAMES = {
    "zeros": np.zeros((*SHAPE, 3)),
    "ones": np.ones((*SHAPE, 3)),
    "random": np.random.default_rng(0).uniform(size=(*SHAPE, 3)),
}
MAPS = {
    "zeros": np.zeros(SHAPE),
    "ones": np.ones(SHAPE),
    "random": np.random.default_rng(1).uniform(size=SHAPE),
}
# Map strength of each rain level: light halves the map, heavy keeps it.
LEVEL_PARAMETER = {"light": 0.5, "heavy": 1.0}


def rain_spec(level: str, deg_map: DegradationMap, atmosphere: dict) -> DegradationSpec:
    """A rain-only spec whose seed draws ``level``."""
    for seed in range(100):
        spec = DegradationSpec(
            kinds=("rain",), seed=seed, maps={"rain": deg_map}, atmosphere=atmosphere
        )
        if sample_degradation(spec, Rng(seed, stream=0))[1] == level:
            return spec
    raise AssertionError(f"no seed below 100 draws rain/{level}")


def assert_bound_and_fresh(out: ImagePlane, *inputs: np.ndarray) -> None:
    assert out.data.shape == inputs[0].shape
    assert np.all(np.isfinite(out.data))
    assert out.data.min() >= 0.0 and out.data.max() <= 1.0
    assert not out.data.flags.writeable
    for arr in inputs:
        assert not np.shares_memory(out.data, arr)


@pytest.mark.parametrize("frame", FRAMES)
@pytest.mark.parametrize("gamma", [1e-6, 3.0, 1e6])
def test_lowlight_frames_are_bound_and_fresh(frame, gamma):
    img = ImagePlane(FRAMES[frame])
    out = gamma_lowlight(img, gamma)
    assert_bound_and_fresh(out, img.data, FRAMES[frame])
    np.testing.assert_array_equal(out.data, np.power(FRAMES[frame], gamma))


@pytest.mark.parametrize("frame", FRAMES)
def test_unit_gamma_returns_the_locked_input_plane(frame):
    img = ImagePlane(FRAMES[frame])
    out = gamma_lowlight(img, 1.0)
    assert out is img
    assert not out.data.flags.writeable
    assert not np.shares_memory(out.data, FRAMES[frame])


@pytest.mark.parametrize("atmosphere", [0.0, 1.0, None])
@pytest.mark.parametrize("level", LEVEL_PARAMETER)
@pytest.mark.parametrize("deg_map", MAPS)
@pytest.mark.parametrize("frame", FRAMES)
def test_weather_frames_are_bound_and_fresh(frame, deg_map, level, atmosphere):
    dmap = DegradationMap(MAPS[deg_map], kind="rain")
    spec = rain_spec(level, dmap, {} if atmosphere is None else {"rain": atmosphere})
    imgs = [ImagePlane(FRAMES[frame]), ImagePlane(FRAMES["random"])]
    outs = same_timestamp_consistency(imgs, spec)
    atm = spec.atmosphere_for("rain")
    m = (MAPS[deg_map] * LEVEL_PARAMETER[level])[:, :, None]
    for img, out in zip(imgs, outs):
        assert_bound_and_fresh(out, img.data, dmap.data, MAPS[deg_map])
        expected = np.clip(img.data * (1.0 - m) + atm * m, 0.0, 1.0)
        np.testing.assert_array_equal(out.data, expected)
    assert not np.shares_memory(outs[0].data, outs[1].data)


unit_samples = st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False)


@given(
    frame=arrays(np.float64, (3, 4, 3), elements=unit_samples),
    deg_map=arrays(np.float64, (3, 4), elements=unit_samples),
    atmosphere=unit_samples,
    gamma=st.floats(1e-6, 1e6),
)
@settings(max_examples=60, deadline=None)
def test_any_unit_inputs_give_bound_frames(frame, deg_map, atmosphere, gamma):
    img = ImagePlane(frame)
    dmap = DegradationMap(deg_map, kind="fog")
    out = composite_weather(img, dmap, atmosphere)
    assert_bound_and_fresh(out, img.data, dmap.data, frame, deg_map)
    if gamma != 1.0:
        assert_bound_and_fresh(gamma_lowlight(img, gamma), img.data, frame)


def test_frame_with_other_dims_than_the_map_is_rejected():
    dmap = DegradationMap(np.zeros((3, 3)), kind="fog")
    spec = DegradationSpec(kinds=("fog",), seed=0, maps={"fog": dmap})
    good, bad = ImagePlane(np.zeros((3, 3, 3))), ImagePlane(np.zeros((12, 16, 3)))
    message = re.escape("map dims (3, 3) != image dims (12, 16)")
    with pytest.raises(ValueError, match=message):
        composite_weather(bad, dmap, 0.8)
    with pytest.raises(ValueError, match=message):
        same_timestamp_consistency([good, bad], spec)


def test_lowlight_accepts_frames_of_different_shapes():
    spec = DegradationSpec(kinds=("lowlight",), seed=0)
    imgs = [ImagePlane(FRAMES["random"]), ImagePlane(np.full((2, 9, 3), 0.5))]
    outs = same_timestamp_consistency(imgs, spec)
    assert [o.data.shape for o in outs] == [(*SHAPE, 3), (2, 9, 3)]
    for img, out in zip(imgs, outs):
        assert_bound_and_fresh(out, img.data)


@pytest.mark.parametrize(
    "shape, stored", [((4, 5), (4, 5)), ((4, 5, 1), (4, 5)), ((4, 5, 3), (4, 5, 3))]
)
def test_map_shapes_accepted(shape, stored):
    dmap = DegradationMap(np.full(shape, 0.5), kind="snow")
    assert dmap.data.shape == stored and not dmap.data.flags.writeable


@pytest.mark.parametrize("shape", [(4,), (4, 5, 2), (4, 5, 4), (2, 4, 5, 1)])
def test_map_shapes_rejected(shape):
    message = re.escape(f"map must be (h, w) or (h, w, 1|3), got {shape}")
    with pytest.raises(ValueError, match=message):
        DegradationMap(np.full(shape, 0.5), kind="snow")
