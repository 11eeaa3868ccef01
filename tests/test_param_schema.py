"""Parameter-schema tests: the CMCA bytes are pinned, every block round-trips,
the parameter classes copy rather than lock their inputs, and each ``*_jvp``
called without a tangent is exactly its forward op.

The digests were recorded with ``save_fusion_params(params, path)`` (height and
width 0) before the loader was rebuilt from the dataclass fields; they pin the
on-disk format, so a change to them is a format change.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from rcbench.core import Rng
from rcbench.expansion import PROJECTOR_HIDDEN, ProjectorWeights
from rcbench.fusion import (
    FeatureMap,
    FusionParams,
    aggregate,
    aggregate_jvp,
    concat_mm,
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
    load_fusion_params,
    random_fusion_params,
    save_fusion_params,
    weight_features,
    weight_features_jvp,
)

PINNED = {
    "c8": (
        lambda: random_fusion_params(8, Rng(51)),
        "d81d7d848647b12eca17e835bf09ff2ab611b2e9db3c2faf72de92485ea26d84",
        "c8eaa0cfed161ef15fd9d47319cd970d6fb5cdb35bb0192a45a787b8dd108b1f",
    ),
    "c64-heads8": (
        lambda: random_fusion_params(64, Rng(7), heads=8),
        "0d3f298fc54d129f55f99c00a9164c436fc26428de00c5207d7d915c2de55290",
        "3d7ff7d98532b5a714113a0246ba81672aa29497901f357a83122abe7ab08366",
    ),
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def schema_names(params: FusionParams) -> list[str]:
    return [
        f"{part.name}.{field.name}"
        for part in dataclasses.fields(params)
        for field in dataclasses.fields(getattr(params, part.name))
    ]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_file_and_manifest_bytes_are_pinned(tmp_path, name):
    make, file_digest, manifest_digest = PINNED[name]
    path = tmp_path / "fusion.cmca"
    save_fusion_params(make(), path)
    assert sha256(path) == file_digest
    assert sha256(tmp_path / "fusion.cmca.manifest") == manifest_digest


def test_every_block_round_trips_in_field_order(tmp_path):
    params = random_fusion_params(8, Rng(51))
    path = tmp_path / "fusion.cmca"
    save_fusion_params(params, path)
    loaded, _ = load_fusion_params(path)
    manifest = (tmp_path / "fusion.cmca.manifest").read_text().splitlines()
    names = schema_names(params)
    assert [line.split()[0] for line in manifest] == names
    assert len(names) == 28
    for name in names:
        part, field = name.split(".")
        want = getattr(getattr(params, part), field)
        got = getattr(getattr(loaded, part), field)
        assert np.array_equal(got, want), name


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
            concat_mm(FeatureMap(fi), FeatureMap(fp), params).data,
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
