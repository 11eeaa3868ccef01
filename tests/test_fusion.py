"""Fusion-core tests: algebraic identities, oracles, and gradient checks.

Gradient soundness is verified by comparing each operation's analytic
Jacobian-vector product against central finite differences along random
probe directions. Attention parameters used in those checks are built so
sample coordinates sit away from integer-lattice kinks of the bilinear
interpolation.
"""

import dataclasses
import re

import numpy as np
import pytest

from rcbench.core import Rng
from rcbench.fusion import (
    _block_shapes,
    AffineParams,
    ConfidenceMap,
    ConfidenceMlpParams,
    ConvParams,
    DeformAttnParams,
    FeatureMap,
    FusionParams,
    LayerNormParams,
    aggregate,
    aggregate_jvp,
    concat_mm_jvp,
    confidence_map,
    confidence_map_jvp,
    deform_cross_attention,
    deform_cross_attention_jvp,
    fuse_bev,
    fuse_bev_jvp,
    layer_norm,
    layer_norm_jvp,
    random_fusion_params,
    weight_features,
    weight_features_jvp,
    CONFIDENCE_HIDDEN,
    DEFAULT_POINTS,
    LN_EPSILON,
)


def rel_error(a, b):
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return np.linalg.norm(a - b) / denom


def fd_jvp(func, x, dx, h=1e-5):
    return (func(x + h * dx) - func(x - h * dx)) / (2.0 * h)


def kink_safe_attn_params(c, gen, heads=4, points=2):
    """Attention parameters whose sample coordinates stay mid-cell.

    Small offset projections plus biases in [0.25, 0.45] keep every
    sampled coordinate at least ~0.1 cells from the bilinear kinks for
    order-one queries.
    """
    return DeformAttnParams(
        offset_w=gen.normal(0.0, 0.02 / np.sqrt(c), size=(heads, 2 * points, c)),
        offset_b=gen.uniform(0.25, 0.45, size=(heads, 2 * points)),
        weight_w=gen.normal(0.0, 1.0 / np.sqrt(c), size=(heads, points, c)),
        weight_b=0.1 * gen.normal(size=(heads, points)),
        out_w=gen.normal(0.0, 1.0 / np.sqrt(2 * c), size=(c, 2 * c)),
        out_b=0.01 * gen.normal(size=c),
    )


def kink_safe_fusion_params(c, seed, heads=4, points=2):
    base = random_fusion_params(c, Rng(seed), heads=heads, points=points)
    gen = np.random.default_rng(seed + 1)
    return FusionParams(
        ln_image=base.ln_image,
        ln_radar=base.ln_radar,
        ln_weighted_image=base.ln_weighted_image,
        ln_weighted_radar=base.ln_weighted_radar,
        conf_mlp=base.conf_mlp,
        agg_w=base.agg_w,
        attn_plain=kink_safe_attn_params(c, gen, heads, points),
        attn_weighted=kink_safe_attn_params(c, gen, heads, points),
        out_conv=base.out_conv,
    )


def assert_kink_margin(query, params: DeformAttnParams, margin=0.05):
    """Every raw sample coordinate stays away from lattice kinks."""
    heads, points = params.heads, params.points
    _, h, w = query.shape
    off = np.einsum("hkc,cyx->hkyx", params.offset_w, query)
    off += params.offset_b[:, :, None, None]
    off = off.reshape(heads, points, 2, h, w)
    for raw, n in (
        (np.arange(w)[None, None, None, :] + off[:, :, 0], w),
        (np.arange(h)[None, None, :, None] + off[:, :, 1], h),
    ):
        inside = (raw > -margin) & (raw < n - 1 + margin)
        near_kink = inside & (np.abs(raw - np.round(raw)) < margin)
        assert not near_kink.any()


def feature(c, h, w, seed, scale=1.0):
    gen = np.random.default_rng(seed)
    return FeatureMap(scale * gen.normal(size=(c, h, w)))


class TestLayerNorm:
    def test_two_channel_standardization(self):
        """Channels (1, 3) standardize to -/+ 1/sqrt(1 + eps)."""
        params = LayerNormParams(scale=np.ones(2), shift=np.zeros(2))
        f = FeatureMap(np.array([[[1.0]], [[3.0]]]))
        out = layer_norm(f, params).data[:, 0, 0]
        expected = 1.0 / np.sqrt(1.0 + LN_EPSILON)
        np.testing.assert_allclose(out, [-expected, expected], atol=1e-12)
        # The epsilon term bounds how close to exactly (-1, 1) this gets.
        np.testing.assert_allclose(out, [-1.0, 1.0], atol=6e-6)

    def test_scale_invariance(self):
        """A global positive scale is absorbed, provided the per-cell
        channel variance dominates the epsilon regularizer."""
        params = LayerNormParams(scale=np.ones(6), shift=np.zeros(6))
        f = feature(6, 4, 5, seed=1, scale=1e5)
        base = layer_norm(f, params).data
        for a in (0.5, 2.0, 10.0):
            scaled = layer_norm(FeatureMap(a * f.data), params).data
            assert np.max(np.abs(scaled - base)) < 1e-9

    def test_scale_and_shift_applied(self):
        gen = np.random.default_rng(2)
        params = LayerNormParams(scale=gen.normal(size=3), shift=gen.normal(size=3))
        f = feature(3, 2, 2, seed=3)
        out = layer_norm(f, params).data
        x = f.data
        mu = x.mean(axis=0)
        sd = np.sqrt(x.var(axis=0) + LN_EPSILON)
        expected = params.scale[:, None, None] * (x - mu) / sd + params.shift[:, None, None]
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_gradient_against_finite_differences(self):
        gen = np.random.default_rng(4)
        params = LayerNormParams(scale=gen.normal(size=4), shift=gen.normal(size=4))
        x = gen.normal(size=(4, 3, 3))
        for _ in range(10):
            dx = gen.normal(size=x.shape)
            _, analytic = layer_norm_jvp(x, dx, params)
            numeric = fd_jvp(lambda t: layer_norm_jvp(t, np.zeros_like(t), params)[0], x, dx)
            assert rel_error(analytic, numeric) < 1e-4


class TestConfidenceMap:
    def test_zero_weights_give_half(self):
        params = ConfidenceMlpParams(
            w1=np.zeros((CONFIDENCE_HIDDEN, 5)),
            b1=np.zeros(CONFIDENCE_HIDDEN),
            w2=np.zeros((2, CONFIDENCE_HIDDEN)),
            b2=np.zeros(2),
        )
        m = confidence_map(feature(5, 3, 4, seed=5), params).data
        assert np.all(m == 0.5)

    def test_complement_is_exact_softmax_channel(self):
        gen = np.random.default_rng(6)
        params = ConfidenceMlpParams(
            w1=gen.normal(size=(CONFIDENCE_HIDDEN, 4)),
            b1=gen.normal(size=CONFIDENCE_HIDDEN),
            w2=gen.normal(size=(2, CONFIDENCE_HIDDEN)),
            b2=gen.normal(size=2),
        )
        f = feature(4, 5, 5, seed=7)
        m = confidence_map(f, params).data
        # Independent straight-line softmax over the two logits.
        hidden = np.maximum(
            np.einsum("kc,chw->khw", params.w1, f.data) + params.b1[:, None, None], 0.0
        )
        logits = np.einsum("lk,khw->lhw", params.w2, hidden) + params.b2[:, None, None]
        exps = np.exp(logits - logits.max(axis=0))
        soft = exps / exps.sum(axis=0)
        np.testing.assert_allclose(m, soft[0], atol=1e-12)
        np.testing.assert_allclose(m + soft[1], 1.0, atol=1e-12)
        assert np.all(m > 0.0) and np.all(m < 1.0)

    def test_gradient_against_finite_differences(self):
        gen = np.random.default_rng(8)
        params = ConfidenceMlpParams(
            w1=gen.normal(size=(CONFIDENCE_HIDDEN, 4)),
            b1=gen.normal(size=CONFIDENCE_HIDDEN),
            w2=gen.normal(size=(2, CONFIDENCE_HIDDEN)),
            b2=gen.normal(size=2),
        )
        x = gen.normal(size=(4, 3, 3))
        for _ in range(10):
            dx = gen.normal(size=x.shape)
            _, analytic = confidence_map_jvp(x, dx, params)
            numeric = fd_jvp(
                lambda t: confidence_map_jvp(t, np.zeros_like(t), params)[0], x, dx
            )
            assert rel_error(analytic, numeric) < 1e-4


class TestWeightFeatures:
    def test_full_camera_confidence_zeroes_radar_branch(self):
        fi = feature(3, 4, 4, seed=9)
        fp = feature(3, 4, 4, seed=10)
        m = ConfidenceMap(np.full((4, 4), 1.0 - 1e-15))
        _, fpc = weight_features(fi, fp, m)
        assert np.max(np.abs(fpc.data)) <= 1e-14 * np.max(np.abs(fp.data))

    def test_half_confidence_halves_both(self):
        fi = feature(3, 4, 4, seed=11)
        fp = feature(3, 4, 4, seed=12)
        m = ConfidenceMap(np.full((4, 4), 0.5))
        fic, fpc = weight_features(fi, fp, m)
        np.testing.assert_array_equal(fic.data, 0.5 * fi.data)
        np.testing.assert_array_equal(fpc.data, 0.5 * fp.data)

    def test_matches_scalar_loop_oracle(self):
        gen = np.random.default_rng(13)
        fi = feature(2, 3, 3, seed=14)
        fp = feature(2, 3, 3, seed=15)
        m_arr = gen.uniform(0.1, 0.9, size=(3, 3))
        fic, fpc = weight_features(fi, fp, ConfidenceMap(m_arr))
        for c in range(2):
            for i in range(3):
                for j in range(3):
                    assert abs(fic.data[c, i, j] - m_arr[i, j] * fi.data[c, i, j]) < 1e-12
                    assert (
                        abs(fpc.data[c, i, j] - (1 - m_arr[i, j]) * fp.data[c, i, j])
                        < 1e-12
                    )

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            weight_features(
                feature(2, 3, 3, seed=0),
                feature(2, 4, 3, seed=0),
                ConfidenceMap(np.full((3, 3), 0.5)),
            )

    def test_gradient_against_finite_differences(self):
        gen = np.random.default_rng(16)
        fi = gen.normal(size=(3, 4, 4))
        fp = gen.normal(size=(3, 4, 4))
        m = gen.uniform(0.3, 0.7, size=(4, 4))
        for _ in range(10):
            dfi = gen.normal(size=fi.shape)
            dfp = gen.normal(size=fp.shape)
            dm = 0.1 * gen.normal(size=m.shape)
            (_, _), (dfic, dfpc) = weight_features_jvp(fi, dfi, fp, dfp, m, dm)

            def stacked(t):
                (a, b), _ = weight_features_jvp(
                    fi + t * dfi, np.zeros_like(fi),
                    fp + t * dfp, np.zeros_like(fp),
                    m + t * dm, np.zeros_like(m),
                )
                return np.concatenate([a.ravel(), b.ravel()])

            h = 1e-6
            numeric = (stacked(h) - stacked(-h)) / (2 * h)
            analytic = np.concatenate([dfic.ravel(), dfpc.ravel()])
            assert rel_error(analytic, numeric) < 1e-6


class TestAggregate:
    def test_selector_projection_recovers_image_branch(self):
        c = 4
        params = kink_safe_fusion_params(c, seed=17)
        selector = AffineParams(
            w=np.hstack([np.eye(c), np.zeros((c, c))]), b=np.zeros(c)
        )
        params = FusionParams(
            ln_image=params.ln_image,
            ln_radar=params.ln_radar,
            ln_weighted_image=params.ln_weighted_image,
            ln_weighted_radar=params.ln_weighted_radar,
            conf_mlp=params.conf_mlp,
            agg_w=selector,
            attn_plain=params.attn_plain,
            attn_weighted=params.attn_weighted,
            out_conv=params.out_conv,
        )
        fi = feature(c, 5, 5, seed=18)
        fp = feature(c, 5, 5, seed=19)
        out = aggregate(fi, fp, params).data
        np.testing.assert_allclose(out, layer_norm(fi, params.ln_image).data, atol=1e-12)

    def test_gradient_against_finite_differences(self):
        c = 4
        params = kink_safe_fusion_params(c, seed=20)
        gen = np.random.default_rng(21)
        fi = gen.normal(size=(c, 3, 3))
        fp = gen.normal(size=(c, 3, 3))
        for _ in range(10):
            dfi = gen.normal(size=fi.shape)
            dfp = gen.normal(size=fp.shape)
            _, analytic = aggregate_jvp(fi, dfi, fp, dfp, params)

            def fwd(t):
                y, _ = aggregate_jvp(
                    fi + t * dfi, np.zeros_like(fi), fp + t * dfp, np.zeros_like(fp), params
                )
                return y

            h = 1e-5
            numeric = (fwd(h) - fwd(-h)) / (2 * h)
            assert rel_error(analytic, numeric) < 1e-4


def concat_mm_forward(fic, fpc, params):
    """The weighted branch's layer norms and concatenation, with no tangent."""
    return concat_mm_jvp(fic.data, None, fpc.data, None, params)[0]


class TestConcatMm:
    def test_constant_confidence_is_neutral(self):
        """A spatially constant confidence disappears inside the LNs
        (high-variance features keep the epsilon term negligible)."""
        c = 6
        params = kink_safe_fusion_params(c, seed=22)
        fi = feature(c, 4, 4, seed=23, scale=1e5)
        fp = feature(c, 4, 4, seed=24, scale=1e5)
        unweighted = np.concatenate(
            [
                layer_norm(fi, params.ln_weighted_image).data,
                layer_norm(fp, params.ln_weighted_radar).data,
            ],
            axis=0,
        )
        for const in (0.25, 0.5, 0.9):
            m = ConfidenceMap(np.full((4, 4), const))
            fic, fpc = weight_features(fi, fp, m)
            out = concat_mm_forward(fic, fpc, params)
            assert np.max(np.abs(out - unweighted)) < 1e-9

    def test_identical_halves_with_shared_parameters(self):
        c = 3
        params = kink_safe_fusion_params(c, seed=25, heads=2)
        shared_ln = params.ln_weighted_image
        params = FusionParams(
            ln_image=params.ln_image,
            ln_radar=params.ln_radar,
            ln_weighted_image=shared_ln,
            ln_weighted_radar=shared_ln,
            conf_mlp=params.conf_mlp,
            agg_w=params.agg_w,
            attn_plain=params.attn_plain,
            attn_weighted=params.attn_weighted,
            out_conv=params.out_conv,
        )
        f = feature(c, 4, 4, seed=26)
        m = ConfidenceMap(np.full((4, 4), 0.5))
        fic, fpc = weight_features(f, f, m)
        out = concat_mm_forward(fic, fpc, params)
        np.testing.assert_array_equal(out[:c], out[c:])

    def test_output_channel_count(self):
        c = 4
        params = kink_safe_fusion_params(c, seed=27)
        out = concat_mm_forward(feature(c, 3, 3, seed=28), feature(c, 3, 3, seed=29), params)
        assert out.shape == (2 * c, 3, 3)

    def test_gradient_against_finite_differences(self):
        c = 4
        params = kink_safe_fusion_params(c, seed=30)
        gen = np.random.default_rng(31)
        fic = gen.normal(size=(c, 3, 3))
        fpc = gen.normal(size=(c, 3, 3))
        for _ in range(10):
            d1 = gen.normal(size=fic.shape)
            d2 = gen.normal(size=fpc.shape)
            _, analytic = concat_mm_jvp(fic, d1, fpc, d2, params)

            def fwd(t):
                y, _ = concat_mm_jvp(
                    fic + t * d1, np.zeros_like(fic), fpc + t * d2, np.zeros_like(fpc), params
                )
                return y

            h = 1e-5
            numeric = (fwd(h) - fwd(-h)) / (2 * h)
            assert rel_error(analytic, numeric) < 1e-4


class TestDeformCrossAttention:
    def test_zero_offsets_attend_to_own_cell(self):
        c, heads, points = 4, 2, 2
        gen = np.random.default_rng(32)
        out_w = gen.normal(size=(c, 2 * c))
        params = DeformAttnParams(
            offset_w=np.zeros((heads, 2 * points, c)),
            offset_b=np.zeros((heads, 2 * points)),
            weight_w=np.zeros((heads, points, c)),
            weight_b=np.zeros((heads, points)),
            out_w=out_w,
            out_b=np.zeros(c),
        )
        query = feature(c, 5, 6, seed=33)
        value = feature(2 * c, 5, 6, seed=34)
        out = deform_cross_attention(query, value, params).data
        expected = np.einsum("oc,chw->ohw", out_w, value.data)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_integer_offset_samples_exact_lattice_values(self):
        c, heads, points = 2, 1, 1
        offset_b = np.array([[1.0, 0.0]])  # one cell to the right
        params = DeformAttnParams(
            offset_w=np.zeros((heads, 2 * points, c)),
            offset_b=offset_b,
            weight_w=np.zeros((heads, points, c)),
            weight_b=np.zeros((heads, points)),
            out_w=np.eye(c),
            out_b=np.zeros(c),
        )
        query = feature(c, 3, 4, seed=35)
        value = feature(c, 3, 4, seed=36)
        out = deform_cross_attention(query, value, params).data
        shifted = value.data[:, :, [1, 2, 3, 3]]  # clamped at the right border
        np.testing.assert_allclose(out, shifted, atol=1e-12)

    def test_channel_divisibility_enforced(self):
        c = 3
        gen = np.random.default_rng(37)
        with pytest.raises(ValueError):
            DeformAttnParams(
                offset_w=np.zeros((2, 4, c)),
                offset_b=np.zeros((2, 4)),
                weight_w=np.zeros((2, 2, c)),
                weight_b=np.zeros((2, 2)),
                out_w=gen.normal(size=(c, 7)),  # 7 not divisible by 2 heads
                out_b=np.zeros(c),
            )

    def test_gradient_against_finite_differences(self):
        c = 8
        gen = np.random.default_rng(38)
        params = kink_safe_attn_params(c, gen, heads=4, points=2)
        q = gen.normal(size=(c, 5, 5))
        v = gen.normal(size=(2 * c, 5, 5))
        assert_kink_margin(q, params)
        for _ in range(10):
            dq = gen.normal(size=q.shape)
            dv = gen.normal(size=v.shape)
            _, analytic = deform_cross_attention_jvp(q, dq, v, dv, params)

            def fwd(t):
                y, _ = deform_cross_attention_jvp(
                    q + t * dq, np.zeros_like(q), v + t * dv, np.zeros_like(v), params
                )
                return y

            h = 1e-5
            numeric = (fwd(h) - fwd(-h)) / (2 * h)
            assert rel_error(analytic, numeric) < 1e-3


def identity_conv(c):
    kernel = np.zeros((c, c, 3, 3))
    for i in range(c):
        kernel[i, i, 1, 1] = 1.0
    return ConvParams(kernel=kernel, bias=np.zeros(c))


class TestFuseBev:
    def test_selector_paths_match_straight_line_oracle(self):
        """With selector projections and an identity convolution the whole
        fusion collapses to f_I + LN(M_c * f_I), recomputed independently."""
        c = 3
        gen = np.random.default_rng(39)
        base = kink_safe_fusion_params(c, seed=40, heads=2)
        selector = np.hstack([np.eye(c), np.zeros((c, c))])
        zero_attn = DeformAttnParams(
            offset_w=np.zeros((2, 4, c)),
            offset_b=np.zeros((2, 4)),
            weight_w=np.zeros((2, 2, c)),
            weight_b=np.zeros((2, 2)),
            out_w=selector,
            out_b=np.zeros(c),
        )
        params = FusionParams(
            ln_image=base.ln_image,
            ln_radar=base.ln_radar,
            ln_weighted_image=base.ln_weighted_image,
            ln_weighted_radar=base.ln_weighted_radar,
            conf_mlp=base.conf_mlp,
            agg_w=AffineParams(w=selector, b=np.zeros(c)),
            attn_plain=zero_attn,
            attn_weighted=zero_attn,
            out_conv=identity_conv(c),
        )
        fi = feature(c, 4, 5, seed=41)
        fp = feature(c, 4, 5, seed=42)
        out = fuse_bev(fi, fp, params).data

        # Straight-line oracle.
        x = fi.data
        hidden = np.maximum(
            np.einsum("kc,chw->khw", params.conf_mlp.w1, x)
            + params.conf_mlp.b1[:, None, None],
            0.0,
        )
        logits = (
            np.einsum("lk,khw->lhw", params.conf_mlp.w2, hidden)
            + params.conf_mlp.b2[:, None, None]
        )
        exps = np.exp(logits - logits.max(axis=0))
        m = (exps / exps.sum(axis=0))[0]
        weighted = m[None] * x
        mu = weighted.mean(axis=0)
        sd = np.sqrt(weighted.var(axis=0) + LN_EPSILON)
        ln_w = (
            params.ln_weighted_image.scale[:, None, None] * (weighted - mu) / sd
            + params.ln_weighted_image.shift[:, None, None]
        )
        np.testing.assert_allclose(out, x + ln_w, atol=1e-12)

    def test_shared_rescale_leaves_query_unchanged(self):
        c = 4
        params = kink_safe_fusion_params(c, seed=43)
        fi = feature(c, 4, 4, seed=44, scale=1e5)
        fp = feature(c, 4, 4, seed=45, scale=1e5)
        q1 = aggregate(fi, fp, params).data
        q2 = aggregate(
            FeatureMap(2.0 * fi.data), FeatureMap(2.0 * fp.data), params
        ).data
        assert np.max(np.abs(q1 - q2)) < 1e-9

    def test_shape_contract(self):
        c = 4
        params = kink_safe_fusion_params(c, seed=46)
        out = fuse_bev(feature(c, 6, 7, seed=47), feature(c, 6, 7, seed=48), params)
        assert out.data.shape == (c, 6, 7)

    def test_end_to_end_gradient(self):
        c = 8
        params = kink_safe_fusion_params(c, seed=49, heads=4, points=2)
        gen = np.random.default_rng(50)
        fi = gen.normal(size=(c, 5, 5))
        fp = gen.normal(size=(c, 5, 5))
        q, _ = aggregate_jvp(fi, np.zeros_like(fi), fp, np.zeros_like(fp), params)
        assert_kink_margin(q, params.attn_plain)
        assert_kink_margin(q, params.attn_weighted)
        for _ in range(10):
            dfi = gen.normal(size=fi.shape)
            dfp = gen.normal(size=fp.shape)
            _, analytic = fuse_bev_jvp(fi, dfi, fp, dfp, params)

            def fwd(t):
                y, _ = fuse_bev_jvp(
                    fi + t * dfi, np.zeros_like(fi), fp + t * dfp, np.zeros_like(fp), params
                )
                return y

            h = 1e-5
            numeric = (fwd(h) - fwd(-h)) / (2 * h)
            assert rel_error(analytic, numeric) < 1e-3


class TestParamsIo:
    def test_random_params_are_seed_deterministic(self):
        a = random_fusion_params(4, Rng(56))
        b = random_fusion_params(4, Rng(56))
        assert np.array_equal(a.conf_mlp.w1, b.conf_mlp.w1)
        assert np.array_equal(a.attn_plain.offset_b, b.attn_plain.offset_b)


class TestValidation:
    def test_confidence_map_must_be_open_interval(self):
        with pytest.raises(ValueError):
            ConfidenceMap(np.array([[0.0, 0.5]]))
        with pytest.raises(ValueError):
            ConfidenceMap(np.array([[1.0, 0.5]]))

    def test_feature_map_rejects_non_finite(self):
        with pytest.raises(ValueError):
            FeatureMap(np.full((1, 2, 2), np.inf))

    def test_fusion_params_channel_consistency(self):
        base = random_fusion_params(4, Rng(57))
        with pytest.raises(ValueError):
            FusionParams(
                ln_image=LayerNormParams(scale=np.ones(5), shift=np.zeros(5)),
                ln_radar=base.ln_radar,
                ln_weighted_image=base.ln_weighted_image,
                ln_weighted_radar=base.ln_weighted_radar,
                conf_mlp=base.conf_mlp,
                agg_w=base.agg_w,
                attn_plain=base.attn_plain,
                attn_weighted=base.attn_weighted,
                out_conv=base.out_conv,
            )

    def test_every_block_its_part_lets_through_is_checked_by_name(self):
        # Double one axis of one block: where the part's own checks accept the
        # new shape, FusionParams must reject it and name that block.
        base = random_fusion_params(8, Rng(58), heads=2)
        named = []
        for name, shape in _block_shapes(8, 2, DEFAULT_POINTS):
            part_name, field = name.split(".")
            part = getattr(base, part_name)
            for axis in range(len(shape)):
                wrong = np.zeros([2 * n if k == axis else n for k, n in enumerate(shape)])
                try:
                    part_wrong = dataclasses.replace(part, **{field: wrong})
                except ValueError:
                    continue
                with pytest.raises(ValueError, match=re.escape(f"block {name} has shape")):
                    dataclasses.replace(base, **{part_name: part_wrong})
                named.append(name)
        assert named == [
            "conf_mlp.w1",
            "agg_w.w",
            "attn_plain.out_w",
            "attn_weighted.out_w",
            "out_conv.kernel",
        ]

    @pytest.mark.parametrize(
        "part, size, n",
        [(f.name, "channels", 9) for f in dataclasses.fields(FusionParams)[1:]]
        + [("attn_weighted", "heads", 4), ("attn_weighted", "points", 3)],
    )
    def test_a_part_of_other_sizes_is_named(self, part, size, n):
        # C comes from ln_image and heads and points from attn_plain, so any
        # other part built at other sizes fails at its first block.
        base = random_fusion_params(8, Rng(59), heads=2)
        other = random_fusion_params(**{"channels": 8, "heads": 2, size: n}, rng=Rng(60))
        first = next(b for b, _ in _block_shapes(8, 2, DEFAULT_POINTS) if b.startswith(part + "."))
        with pytest.raises(ValueError, match=re.escape(f"block {first} has shape")):
            dataclasses.replace(base, **{part: getattr(other, part)})

    @pytest.mark.parametrize(
        "op",
        [
            lambda fi, fp, params: weight_features(fi, fp, ConfidenceMap(np.full((3, 3), 0.5))),
            aggregate,
            fuse_bev,
        ],
        ids=["weight_features", "aggregate", "fuse_bev"],
    )
    @pytest.mark.parametrize("radar_shape", [(4, 4, 3), (4, 3, 4), (2, 3, 3)])
    def test_forward_ops_reject_maps_of_two_shapes(self, op, radar_shape):
        # Everything else fits f_image, so only the shared shape check can fail.
        params = random_fusion_params(4, Rng(61), heads=2)
        with pytest.raises(ValueError, match="^feature maps must share a shape$"):
            op(feature(4, 3, 3, seed=0), feature(*radar_shape, seed=1), params)
