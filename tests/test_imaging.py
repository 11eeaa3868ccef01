"""Image degradation tests."""

import numpy as np
import pytest

from rcbench.core import Rng
from rcbench.imaging import (
    ATMOSPHERE_DEFAULTS,
    DegradationMap,
    DegradationSpec,
    ImagePlane,
    composite_weather,
    gamma_lowlight,
    same_timestamp_consistency,
    sample_degradation,
)


def random_image(h=12, w=16, seed=0):
    gen = np.random.default_rng(seed)
    return ImagePlane(gen.uniform(0.0, 1.0, size=(h, w, 3)))


class TestGammaLowlight:
    def test_unit_gamma_is_identity(self):
        img = random_image()
        out = gamma_lowlight(img, 1.0)
        assert np.array_equal(out.data, img.data)

    def test_half_squared(self):
        img = ImagePlane(np.full((2, 2, 3), 0.5))
        assert gamma_lowlight(img, 2.0).data == pytest.approx(0.25)

    def test_non_positive_gamma_rejected(self):
        with pytest.raises(ValueError):
            gamma_lowlight(random_image(), 0.0)
        with pytest.raises(ValueError):
            gamma_lowlight(random_image(), -1.0)

    def test_monotone_non_increasing_in_gamma(self):
        img = random_image(seed=3)
        prev = gamma_lowlight(img, 1.0).data
        for gamma in (1.5, 2.0, 2.5, 3.0):
            cur = gamma_lowlight(img, gamma).data
            assert np.all(cur <= prev + 1e-15)
            prev = cur

    def test_output_in_range(self):
        img = random_image(seed=4)
        out = gamma_lowlight(img, 2.7)
        assert out.data.min() >= 0.0 and out.data.max() <= 1.0


class TestCompositeWeather:
    def test_zero_map_is_identity(self):
        img = random_image(seed=5)
        zero = DegradationMap(np.zeros((12, 16)), kind="fog")
        out = composite_weather(img, zero, 0.8)
        assert np.array_equal(out.data, img.data)

    def test_full_map_is_whiteout(self):
        img = random_image(seed=6)
        full = DegradationMap(np.ones((12, 16)), kind="fog")
        out = composite_weather(img, full, 1.0)
        assert np.array_equal(out.data, np.ones_like(img.data))

    def test_matches_scalar_blend_oracle(self):
        gen = np.random.default_rng(7)
        img = ImagePlane(gen.uniform(size=(6, 5, 3)))
        m = gen.uniform(size=(6, 5))
        atmosphere = 0.65
        out = composite_weather(img, DegradationMap(m, kind="rain"), atmosphere)
        expected = np.empty_like(img.data)
        for i in range(6):
            for j in range(5):
                for c in range(3):
                    expected[i, j, c] = (
                        img.data[i, j, c] * (1.0 - m[i, j]) + atmosphere * m[i, j]
                    )
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_affine_in_image(self):
        gen = np.random.default_rng(8)
        img1 = ImagePlane(gen.uniform(size=(4, 4, 3)))
        img2 = ImagePlane(gen.uniform(size=(4, 4, 3)))
        deg = DegradationMap(gen.uniform(size=(4, 4)), kind="snow")
        a = 0.37
        mixed = ImagePlane(a * img1.data + (1 - a) * img2.data)
        lhs = composite_weather(mixed, deg, 0.8).data
        rhs = (
            a * composite_weather(img1, deg, 0.8).data
            + (1 - a) * composite_weather(img2, deg, 0.8).data
        )
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            composite_weather(
                random_image(), DegradationMap(np.zeros((3, 3)), kind="fog"), 0.8
            )

    def test_three_channel_map_supported(self):
        img = random_image(seed=9)
        m = DegradationMap(np.random.default_rng(0).uniform(size=(12, 16, 3)), kind="rain")
        out = composite_weather(img, m, 0.6)
        assert out.data.shape == img.data.shape


class TestSameTimestampConsistency:
    def test_lowlight_shares_one_gamma(self):
        spec = DegradationSpec(kinds=("lowlight",), seed=21)
        base = np.full((4, 4, 3), 0.5)
        frames = [ImagePlane(base), ImagePlane(base)]
        out = same_timestamp_consistency(frames, spec)
        # Identical inputs plus a shared gamma give identical outputs.
        assert np.array_equal(out[0].data, out[1].data)
        assert not np.array_equal(out[0].data, base)

    def test_single_frame_equals_direct_call(self):
        spec = DegradationSpec(kinds=("lowlight",), seed=22)
        img = random_image(seed=10)
        kind, _, gamma = sample_degradation(spec, Rng(22))
        assert kind == "lowlight"
        direct = gamma_lowlight(img, gamma)
        via_spec = same_timestamp_consistency([img], spec)[0]
        assert np.array_equal(direct.data, via_spec.data)

    def test_seeded_draw_is_repeatable(self):
        maps = {"fog": DegradationMap(np.full((4, 4), 0.5), kind="fog")}
        spec = DegradationSpec(kinds=("lowlight", "fog"), seed=23, maps=maps)
        img = random_image(h=4, w=4, seed=11)
        out1 = same_timestamp_consistency([img], spec)
        out2 = same_timestamp_consistency([img], spec)
        assert np.array_equal(out1[0].data, out2[0].data)

    def test_weather_kind_requires_map(self):
        with pytest.raises(ValueError):
            DegradationSpec(kinds=("rain",), seed=0)

    def test_empty_frames_rejected(self):
        spec = DegradationSpec(kinds=("lowlight",), seed=0)
        with pytest.raises(ValueError):
            same_timestamp_consistency([], spec)

    def test_lowlight_levels_sample_their_bands(self):
        spec = DegradationSpec(kinds=("lowlight",), seed=0)
        mild, heavy = [], []
        for stream in range(200):
            _, level, gamma = sample_degradation(spec, Rng(24, stream=stream))
            (mild if level == "mild" else heavy).append(gamma)
        assert mild and heavy
        assert all(1.0 <= g <= 2.0 for g in mild)
        assert all(2.0 <= g <= 3.0 for g in heavy)

    def test_snow_has_single_level(self):
        maps = {"snow": DegradationMap(np.full((2, 2), 0.4), kind="snow")}
        spec = DegradationSpec(kinds=("snow",), seed=0, maps=maps)
        levels = {
            sample_degradation(spec, Rng(25, stream=s))[1] for s in range(50)
        }
        assert levels == {"heavy"}

    def test_atmosphere_defaults(self):
        maps = {k: DegradationMap(np.zeros((2, 2)), kind=k) for k in ("rain", "fog", "snow")}
        spec = DegradationSpec(kinds=("rain",), seed=0, maps=maps)
        assert spec.atmosphere_for("rain") == ATMOSPHERE_DEFAULTS["rain"]
        assert spec.atmosphere_for("fog") == 0.8


class TestRangeInvariants:
    def test_image_plane_validates_range(self):
        with pytest.raises(ValueError):
            ImagePlane(np.full((2, 2, 3), 1.5))

    def test_pipeline_outputs_stay_in_range(self):
        gen = np.random.default_rng(14)
        img = random_image(seed=15)
        for gamma in gen.uniform(0.2, 5.0, size=10):
            out = gamma_lowlight(img, float(gamma))
            assert out.data.min() >= 0.0 and out.data.max() <= 1.0
        deg = DegradationMap(gen.uniform(size=(12, 16)), kind="fog")
        for atm in gen.uniform(0.0, 1.0, size=10):
            out = composite_weather(img, deg, float(atm))
            assert out.data.min() >= 0.0 and out.data.max() <= 1.0
