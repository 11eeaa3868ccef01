"""Deformable attention over a value given as channel blocks.

`fuse_bev_jvp` hands its plain branch the image and radar maps as a tuple
instead of their concatenation. The tuple must give the same bits as the
concatenated value, also when a head's channels straddle two blocks or a
block is empty, and its channel count is checked like an array's.
"""

import numpy as np
import pytest

from rcbench import fusion
from rcbench.core import Rng

SHAPE = (7, 9)


def attn_params(value_channels, heads, points, seed):
    gen = np.random.default_rng(seed)
    c = 4
    return fusion.DeformAttnParams(
        offset_w=gen.normal(0.0, 0.3, size=(heads, 2 * points, c)),
        offset_b=gen.uniform(-1.5, 1.5, size=(heads, 2 * points)),
        weight_w=gen.normal(size=(heads, points, c)),
        weight_b=gen.normal(size=(heads, points)),
        out_w=gen.normal(size=(5, value_channels)),
        out_b=gen.normal(size=5),
    )


@pytest.mark.parametrize(
    "sizes, heads, points",
    [
        ((6, 6), 4, 2),  # heads of 3 channels: head 1 straddles the blocks
        ((3, 3), 3, 3),
        ((1, 4, 3), 2, 2),
        ((0, 8), 8, 1),  # an empty block
        ((5,), 5, 2),
        ((2, 2, 2, 2), 1, 4),
    ],
)
def test_tuple_value_matches_concatenated_bit_for_bit(sizes, heads, points):
    cv = sum(sizes)
    params = attn_params(cv, heads, points, seed=cv + heads)
    gen = np.random.default_rng(sum(sizes) * 10 + points)
    q, dq = gen.normal(size=(2, 4, *SHAPE))
    parts = tuple(gen.normal(size=(n, *SHAPE)) for n in sizes)
    dparts = tuple(gen.normal(size=(n, *SHAPE)) for n in sizes)
    v, dv = np.concatenate(parts), np.concatenate(dparts)
    want, dwant = fusion.deform_cross_attention_jvp(q, dq, v, dv, params)
    got, dgot = fusion.deform_cross_attention_jvp(q, dq, parts, dparts, params)
    assert np.array_equal(got, want) and np.array_equal(dgot, dwant)
    fwd, none = fusion.deform_cross_attention_jvp(q, None, parts, None, params)
    assert none is None and np.array_equal(fwd, want)


def test_tuple_value_channel_count_is_checked():
    params = fusion.random_fusion_params(4, Rng(1), heads=2).attn_plain
    q = np.zeros((4, *SHAPE))
    parts = (np.zeros((4, *SHAPE)), np.zeros((3, *SHAPE)))
    with pytest.raises(ValueError, match="value has 7 channels, parameters expect 8"):
        fusion.deform_cross_attention_jvp(q, None, parts, None, params)
