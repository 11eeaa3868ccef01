"""Fusion-core path tests: matmul contractions against einsum and scalar-loop
oracles, and the tangent-free forward pass against the JVP primal.

The oracle tolerance is fixed at 1e-12 absolute before measuring: the
contractions change only the summation order of float64 dot products over a
handful of terms of order one.
"""

import numpy as np

from rcbench.core import Rng
from rcbench.fusion import (
    ConvParams,
    DeformAttnParams,
    FeatureMap,
    aggregate,
    aggregate_jvp,
    concat_mm_jvp,
    confidence_map,
    confidence_map_jvp,
    conv_merge,
    conv_merge_jvp,
    deform_cross_attention,
    deform_cross_attention_jvp,
    fuse_bev,
    fuse_bev_jvp,
    layer_norm,
    layer_norm_jvp,
    random_fusion_params,
    weight_features,
    weight_features_jvp,
)

ORACLE_ATOL = 1e-12


def test_conv_merge_matches_nine_tap_einsum():
    c, h, w = 4, 5, 7
    gen = np.random.default_rng(60)
    params = ConvParams(kernel=gen.normal(size=(c, c, 3, 3)), bias=gen.normal(size=c))
    x = gen.normal(size=(c, h, w))
    dx = gen.normal(size=(c, h, w))

    def reference(arr):
        padded = np.pad(arr, ((0, 0), (1, 1), (1, 1)))
        return sum(
            np.einsum(
                "oi,ihw->ohw",
                params.kernel[:, :, ky, kx],
                padded[:, ky : ky + h, kx : kx + w],
            )
            for ky in range(3)
            for kx in range(3)
        )

    out = conv_merge(FeatureMap(x), params).data
    np.testing.assert_allclose(
        out, reference(x) + params.bias[:, None, None], rtol=0, atol=ORACLE_ATOL
    )
    # The convolution is linear, so its tangent is the bias-free map of dx.
    _, tangent = conv_merge_jvp(x, dx, params)
    np.testing.assert_allclose(tangent, reference(dx), rtol=0, atol=ORACLE_ATOL)


def test_deform_cross_attention_matches_scalar_bilinear_loop():
    c, heads, points, h, w = 4, 2, 2, 5, 7
    gen = np.random.default_rng(61)
    params = DeformAttnParams(
        offset_w=gen.normal(0.0, 1.0, size=(heads, 2 * points, c)),
        offset_b=gen.uniform(-3.0, 3.0, size=(heads, 2 * points)),
        weight_w=gen.normal(size=(heads, points, c)),
        weight_b=gen.normal(size=(heads, points)),
        out_w=gen.normal(size=(c, 2 * c)),
        out_b=gen.normal(size=c),
    )
    q = gen.normal(size=(c, h, w))
    v = gen.normal(size=(2 * c, h, w))
    dv_head = 2 * c // heads

    cat = np.zeros((2 * c, h, w))
    clamped = 0
    for head in range(heads):
        for y in range(h):
            for x in range(w):
                off = params.offset_w[head] @ q[:, y, x] + params.offset_b[head]
                logits = params.weight_w[head] @ q[:, y, x] + params.weight_b[head]
                attn = np.exp(logits - logits.max())
                attn /= attn.sum()
                for p in range(points):
                    sx_raw, sy_raw = x + off[2 * p], y + off[2 * p + 1]
                    clamped += not (0 <= sx_raw <= w - 1 and 0 <= sy_raw <= h - 1)
                    sx = min(max(sx_raw, 0.0), w - 1.0)
                    sy = min(max(sy_raw, 0.0), h - 1.0)
                    x0, y0 = int(np.floor(sx)), int(np.floor(sy))
                    x1, y1 = min(x0 + 1, w - 1), min(y0 + 1, h - 1)
                    fx, fy = sx - x0, sy - y0
                    for ch in range(head * dv_head, (head + 1) * dv_head):
                        top = (1 - fx) * v[ch, y0, x0] + fx * v[ch, y0, x1]
                        bottom = (1 - fx) * v[ch, y1, x0] + fx * v[ch, y1, x1]
                        cat[ch, y, x] += attn[p] * ((1 - fy) * top + fy * bottom)
    expected = np.zeros((c, h, w))
    for o in range(c):
        for y in range(h):
            for x in range(w):
                expected[o, y, x] = params.out_w[o] @ cat[:, y, x] + params.out_b[o]

    assert clamped > 0, "offsets must push some samples past the border"
    out = deform_cross_attention(FeatureMap(q), FeatureMap(v), params).data
    np.testing.assert_allclose(out, expected, rtol=0, atol=ORACLE_ATOL)


def test_forward_ops_equal_jvp_primal_bit_for_bit():
    c, h, w = 8, 6, 5
    params = random_fusion_params(c, Rng(62), heads=2)
    gen = np.random.default_rng(63)
    fi, fp, dfi, dfp = (gen.normal(size=(c, h, w)) for _ in range(4))
    m = confidence_map(FeatureMap(fi), params.conf_mlp)
    dm = gen.normal(size=(h, w))
    value = np.concatenate([fi, fp])
    dvalue = gen.normal(size=value.shape)

    fic, fpc = weight_features(FeatureMap(fi), FeatureMap(fp), m)
    (jvp_fic, jvp_fpc), _ = weight_features_jvp(fi, dfi, fp, dfp, m.data, dm)
    pairs = {
        "layer_norm": (
            layer_norm(FeatureMap(fi), params.ln_image).data,
            layer_norm_jvp(fi, dfi, params.ln_image)[0],
        ),
        "confidence_map": (m.data, confidence_map_jvp(fi, dfi, params.conf_mlp)[0]),
        "weight_features image": (fic.data, jvp_fic),
        "weight_features radar": (fpc.data, jvp_fpc),
        "aggregate": (
            aggregate(FeatureMap(fi), FeatureMap(fp), params).data,
            aggregate_jvp(fi, dfi, fp, dfp, params)[0],
        ),
        "concat_mm": (
            concat_mm_jvp(fi, None, fp, None, params)[0],
            concat_mm_jvp(fi, dfi, fp, dfp, params)[0],
        ),
        "deform_cross_attention": (
            deform_cross_attention(FeatureMap(fi), FeatureMap(value), params.attn_plain).data,
            deform_cross_attention_jvp(fi, dfi, value, dvalue, params.attn_plain)[0],
        ),
        "fuse_bev": (
            fuse_bev(FeatureMap(fi), FeatureMap(fp), params).data,
            fuse_bev_jvp(fi, dfi, fp, dfp, params)[0],
        ),
        "conv_merge": (
            conv_merge(FeatureMap(fi), params.out_conv).data,
            conv_merge_jvp(fi, dfi, params.out_conv)[0],
        ),
    }
    for name, (forward, primal) in pairs.items():
        assert np.array_equal(forward, primal), name


def test_fuse_bev_equals_composed_public_ops_bit_for_bit():
    c, h, w = 8, 6, 5
    params = random_fusion_params(c, Rng(64), heads=2)
    gen = np.random.default_rng(65)
    fi = FeatureMap(gen.normal(size=(c, h, w)))
    fp = FeatureMap(gen.normal(size=(c, h, w)))

    query = aggregate(fi, fp, params)
    m = confidence_map(fi, params.conf_mlp)
    fic, fpc = weight_features(fi, fp, m)
    mm = FeatureMap(concat_mm_jvp(fic.data, None, fpc.data, None, params)[0])
    value = FeatureMap(np.concatenate([fi.data, fp.data]))
    plain = deform_cross_attention(query, value, params.attn_plain)
    weighted = deform_cross_attention(query, mm, params.attn_weighted)
    composed = conv_merge(FeatureMap(plain.data + weighted.data), params.out_conv)

    assert np.array_equal(composed.data, fuse_bev(fi, fp, params).data)
