"""Parameter-schema tests: the parameter bytes are pinned, the block table
lists every field in order, the parameter classes copy rather than lock their
inputs, and each ``*_jvp`` called without a tangent is exactly its forward op.

Each digest is the sha256 of every block's float64 bytes, concatenated in
``_block_shapes`` order. A change to one is a change to ``random_fusion_params``
or to the block table.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from rcbench.core import Rng
from rcbench.expansion import PROJECTOR_HIDDEN, ProjectorWeights
from rcbench.fusion import (
    _block_shapes,
    _block_value,
    FeatureMap,
    FusionParams,
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

PINNED = {
    "c8": (
        lambda: random_fusion_params(8, Rng(51)),
        "d01569bb5a1cf769d8d51bf6a48e508e06e92c9b0d2a3d69569caa580eaeb998",
    ),
    "c64-heads8": (
        lambda: random_fusion_params(64, Rng(7), heads=8),
        "6a82a46e6c8d3db3c98367bb2d0ec4039c94f26f1178c7b5883df5a8f3220450",
    ),
}


def schema_names(params: FusionParams) -> list[str]:
    return [
        f"{part.name}.{field.name}"
        for part in dataclasses.fields(params)
        for field in dataclasses.fields(getattr(params, part.name))
    ]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_block_bytes_are_pinned(name):
    make, digest = PINNED[name]
    params = make()
    h = hashlib.sha256()
    for block, _ in _block_shapes(params.channels, params.heads, params.points):
        value = _block_value(params, block)
        assert value.dtype == "<f8", block
        h.update(value.tobytes())
    assert h.hexdigest() == digest


def test_block_table_lists_every_field_in_field_order():
    params = random_fusion_params(8, Rng(51))
    names = schema_names(params)
    assert len(names) == 28
    assert [block for block, _ in _block_shapes(8, params.heads, params.points)] == names


def parameter_cases():
    fusion = random_fusion_params(8, Rng(70), heads=2)
    cases = [getattr(fusion, part.name) for part in dataclasses.fields(fusion)]
    gen = np.random.default_rng(71)
    cases.append(
        ProjectorWeights(
            w1=gen.normal(size=(PROJECTOR_HIDDEN, 2)),
            b1=gen.normal(size=PROJECTOR_HIDDEN),
            w2=gen.normal(size=(4, PROJECTOR_HIDDEN)),
            b2=gen.normal(size=4),
        )
    )
    # One case per parameter class.
    by_type = {type(case): case for case in cases}
    return [pytest.param(case, id=cls.__name__) for cls, case in by_type.items()]


@pytest.mark.parametrize("template", parameter_cases())
def test_construction_leaves_caller_arrays_writeable(template):
    names = [field.name for field in dataclasses.fields(template)]
    caller = {name: np.array(getattr(template, name)) for name in names}
    built = type(template)(**caller)
    for name in names:
        assert caller[name].flags.writeable, name
        stored = getattr(built, name)
        assert stored is not caller[name] and not np.shares_memory(stored, caller[name])
        assert not stored.flags.writeable, name
        assert np.array_equal(stored, caller[name]), name


def test_jvp_without_tangent_is_the_forward_op():
    c, h, w = 8, 6, 5
    params = random_fusion_params(c, Rng(72), heads=2)
    gen = np.random.default_rng(73)
    fi, fp = gen.normal(size=(c, h, w)), gen.normal(size=(c, h, w))
    value = np.concatenate([fi, fp])
    m = confidence_map(FeatureMap(fi), params.conf_mlp)
    fic, fpc = weight_features(FeatureMap(fi), FeatureMap(fp), m)
    cases = {
        "layer_norm": (
            layer_norm(FeatureMap(fi), params.ln_image).data,
            layer_norm_jvp(fi, None, params.ln_image),
        ),
        "confidence_map": (m.data, confidence_map_jvp(fi, None, params.conf_mlp)),
        "weight_features": (
            (fic.data, fpc.data),
            weight_features_jvp(fi, None, fp, None, m.data, None),
        ),
        "aggregate": (
            aggregate(FeatureMap(fi), FeatureMap(fp), params).data,
            aggregate_jvp(fi, None, fp, None, params),
        ),
        "concat_mm": (
            np.concatenate(
                [
                    layer_norm(FeatureMap(fi), params.ln_weighted_image).data,
                    layer_norm(FeatureMap(fp), params.ln_weighted_radar).data,
                ]
            ),
            concat_mm_jvp(fi, None, fp, None, params),
        ),
        "deform_cross_attention": (
            deform_cross_attention(FeatureMap(fi), FeatureMap(value), params.attn_plain).data,
            deform_cross_attention_jvp(fi, None, value, None, params.attn_plain),
        ),
        "fuse_bev": (
            fuse_bev(FeatureMap(fi), FeatureMap(fp), params).data,
            fuse_bev_jvp(fi, None, fp, None, params),
        ),
        "conv_merge": (
            conv_merge(FeatureMap(fi), params.out_conv).data,
            conv_merge_jvp(fi, None, params.out_conv),
        ),
    }
    for name, (forward, (primal, tangent)) in cases.items():
        assert tangent is None, name
        assert np.array_equal(forward, primal), name
