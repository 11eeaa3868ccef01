"""The flat-shift convolution equals the per-tap slice form bit for bit.

The reference below is the form `conv_merge_jvp` used before: zero-pad the
input, then take each of the 9 taps as a contiguous copy of a shifted
(h, w) window and contract it with one BLAS matmul. The flat-shift form
reads the same windows as strided views, with the same (c, h * w) product
shape and column order, so each product rounds the same way.
"""

import numpy as np
import pytest

from rcbench.fusion import ConvParams, FeatureMap, conv_merge, conv_merge_jvp


def per_tap_reference(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    cout, cin = kernel.shape[:2]
    _, height, width = x.shape
    taps = np.ascontiguousarray(kernel.transpose(2, 3, 0, 1))
    padded = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    out = np.zeros((cout, height, width))
    for ky in range(3):
        for kx in range(3):
            window = padded[:, ky : ky + height, kx : kx + width].reshape(cin, -1)
            out += (taps[ky, kx] @ window).reshape(cout, height, width)
    return out


# (out channels, in channels, height, width). At C >= 16, h * w mod 8 in
# 1..4 is where a product over a wider padded row moved the last pixels.
SHAPES = [
    (4, 4, 1, 1),
    (16, 16, 1, 1),
    (16, 16, 1, 9),
    (16, 16, 9, 1),
    (1, 1, 6, 5),
    (1, 16, 5, 6),
    (16, 16, 11, 17),
    (16, 16, 17, 11),
    (32, 32, 11, 17),
    (8, 3, 7, 9),
    (3, 8, 9, 7),
    (24, 16, 13, 5),
    (64, 64, 20, 33),
]


@pytest.mark.parametrize("cout, cin, height, width", SHAPES)
def test_conv_merge_jvp_equals_per_tap_form(cout, cin, height, width):
    gen = np.random.default_rng(cout * 1000 + cin * 100 + height * 10 + width)
    params = ConvParams(
        kernel=gen.normal(size=(cout, cin, 3, 3)), bias=gen.normal(size=cout)
    )
    x = gen.normal(size=(cin, height, width))
    dx = gen.normal(size=(cin, height, width))
    y, dy = conv_merge_jvp(x, dx, params)
    assert np.array_equal(y, per_tap_reference(x, params.kernel) + params.bias[:, None, None])
    assert np.array_equal(dy, per_tap_reference(dx, params.kernel))
    assert np.array_equal(conv_merge(FeatureMap(x), params).data, y)
