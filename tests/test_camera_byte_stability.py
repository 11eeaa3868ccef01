"""Byte stability of the camera side: degraded frames and the fused BEV.

The camera-side twin of `test_byte_stability.py`. The digests below were
recorded before the blend operands were built once per timestamp, the
convolution took the flat-shift form and the attention accumulated in
place (numpy 2.4, x86-64); any change that claims to keep these outputs
byte-identical must keep them. Each digest is the sha256 of the output's
float64 bytes (a timestamp's frames concatenated in view order). A BLAS
or libm that rounds differently may move them too.
"""

import hashlib

import numpy as np
import pytest

from rcbench import fusion, imaging
from rcbench.core import Rng

# Seeds whose (kind, level) draw over all four candidate kinds is the key.
DEGRADATION_SEEDS = {
    ("lowlight", "mild"): 0,
    ("lowlight", "heavy"): 5,
    ("rain", "light"): 1,
    ("rain", "heavy"): 8,
    ("fog", "light"): 24,
    ("fog", "heavy"): 10,
    ("snow", "heavy"): 3,
}
MAP_SHAPES = {"hw": (), "hw1": (1,), "hw3": (3,)}
FRAME_SHAPE = (9, 13)
VIEWS = 3

FRAME_DIGESTS = {
    "lowlight/mild/hw": "c19aad5f02bab5f6d1a946ccc25e99a0ec9c4791239426dd029f2e5666c4f342",
    "lowlight/mild/hw1": "c19aad5f02bab5f6d1a946ccc25e99a0ec9c4791239426dd029f2e5666c4f342",
    "lowlight/mild/hw3": "c19aad5f02bab5f6d1a946ccc25e99a0ec9c4791239426dd029f2e5666c4f342",
    "lowlight/heavy/hw": "ffe4869b7585bec7f3f33a6f0bf4f724224f5059a786661a05a04bed8706901f",
    "lowlight/heavy/hw1": "ffe4869b7585bec7f3f33a6f0bf4f724224f5059a786661a05a04bed8706901f",
    "lowlight/heavy/hw3": "ffe4869b7585bec7f3f33a6f0bf4f724224f5059a786661a05a04bed8706901f",
    "rain/light/hw": "a114cbbc0cd292a9bd4fe2491ad209923c9de3e52a6fcb5eede1a372b1fd9d93",
    "rain/light/hw1": "a114cbbc0cd292a9bd4fe2491ad209923c9de3e52a6fcb5eede1a372b1fd9d93",
    "rain/light/hw3": "b1b12e579cb561e1b4cba66b8ae7cf7c3b71f2270c1af329d2d4b757c5816a99",
    "rain/heavy/hw": "a5b9f2014d61c2fa353dca53bd660138c9f81a73ce39ec7d40283404ce53c483",
    "rain/heavy/hw1": "a5b9f2014d61c2fa353dca53bd660138c9f81a73ce39ec7d40283404ce53c483",
    "rain/heavy/hw3": "045ad9b029c5221215681fdbd110d0d71f97f5fb3e9dc4091dc6a8aebfa7cbd2",
    "fog/light/hw": "5a8981063244a820bc98e20dcf9f33dc659c3b46c6f3781fdd110e63644a3f8c",
    "fog/light/hw1": "5a8981063244a820bc98e20dcf9f33dc659c3b46c6f3781fdd110e63644a3f8c",
    "fog/light/hw3": "30e19b842dfffd7f75a981afc47d59e95b9534ab9ec7dd3c69310992eeca7f34",
    "fog/heavy/hw": "fc5c17bc2ec03152d375bfe6442e10d3dfbcccf0f9689189c0ab4ae120f525cb",
    "fog/heavy/hw1": "fc5c17bc2ec03152d375bfe6442e10d3dfbcccf0f9689189c0ab4ae120f525cb",
    "fog/heavy/hw3": "78d8d3406904b65c19868b585fa328567a84a9a289bd0c458930d06121c2cecc",
    "snow/heavy/hw": "09c0549783c46db6161e0df87d105d1f870b64dff32bda6e4869880499aca408",
    "snow/heavy/hw1": "09c0549783c46db6161e0df87d105d1f870b64dff32bda6e4869880499aca408",
    "snow/heavy/hw3": "77ff53da823e863924877fee0749b62aa2e90f68314265754d6b71393f9bba69",
}

FUSION_SHAPE = (11, 17)
FUSION_CASES = [(8, 2), (8, 8), (16, 2), (16, 8)]

FUSION_DIGESTS = {
    "c8h2/fuse_bev": "9293ba4b13a27336b60e45dbcc29536103dac8d71261f055644f88231d9bdac3",
    "c8h2/primal": "9293ba4b13a27336b60e45dbcc29536103dac8d71261f055644f88231d9bdac3",
    "c8h2/tangent": "2f5ee3bc71d8c695c3e3fffc37294c625e4bcac36ca863b6f61fec38d7ed40c8",
    "c8h8/fuse_bev": "262d3fb0d7417258a2a1fd0919938f5ab8e80ec79a84135ac9b87cdf2058bbfc",
    "c8h8/primal": "262d3fb0d7417258a2a1fd0919938f5ab8e80ec79a84135ac9b87cdf2058bbfc",
    "c8h8/tangent": "37ac8427c490bb2a42e0d944fc7ea95a16df3037d0e081782685f87b90d85845",
    "c16h2/fuse_bev": "d6a0e93388d8f7912d78ef401e836c37a6ed1b2b42e12a64f3eafa45c47beca6",
    "c16h2/primal": "d6a0e93388d8f7912d78ef401e836c37a6ed1b2b42e12a64f3eafa45c47beca6",
    "c16h2/tangent": "0226a3b5f1bcf761b7a5daf01b5767d850549e58fa2691f630e45c0d8d1ee751",
    "c16h8/fuse_bev": "ae80080b76056ac8906a7094622d1651311d1a1299af9d5fa1cf5080280548b2",
    "c16h8/primal": "ae80080b76056ac8906a7094622d1651311d1a1299af9d5fa1cf5080280548b2",
    "c16h8/tangent": "c3bdcb185789706c27d47afb2478be159ee1752c489253956ff59a8e4c3d4c4d",
}


def sha256(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def degradation_outputs(kind: str, level: str, map_shape: str) -> np.ndarray:
    gen = np.random.default_rng(5)
    frames = [imaging.ImagePlane(gen.uniform(size=(*FRAME_SHAPE, 3))) for _ in range(VIEWS)]
    maps = {
        k: imaging.DegradationMap(
            gen.uniform(size=(*FRAME_SHAPE, *MAP_SHAPES[map_shape])), kind=k
        )
        for k in imaging.WEATHER_KINDS
    }
    spec = imaging.DegradationSpec(
        kinds=("lowlight", *imaging.WEATHER_KINDS),
        seed=DEGRADATION_SEEDS[kind, level],
        maps=maps,
        atmosphere={"fog": 0.7},
    )
    drawn = imaging.sample_degradation(spec, Rng(spec.seed, stream=0))[:2]
    assert drawn == (kind, level)
    outs = imaging.same_timestamp_consistency(frames, spec)
    return np.concatenate([f.data for f in outs])


def fusion_outputs(channels: int, heads: int) -> dict[str, np.ndarray]:
    params = fusion.random_fusion_params(channels, Rng(channels * 100 + heads), heads=heads)
    gen = np.random.default_rng(channels + heads)
    shape = (channels, *FUSION_SHAPE)
    fi, fp, dfi, dfp = (gen.normal(size=shape) for _ in range(4))
    fused = fusion.fuse_bev(fusion.FeatureMap(fi), fusion.FeatureMap(fp), params).data
    primal, tangent = fusion.fuse_bev_jvp(fi, dfi, fp, dfp, params)
    return {"fuse_bev": fused, "primal": primal, "tangent": tangent}


@pytest.mark.parametrize("map_shape", MAP_SHAPES)
@pytest.mark.parametrize("kind, level", DEGRADATION_SEEDS)
def test_degraded_frames_are_byte_stable(kind, level, map_shape):
    got = sha256(degradation_outputs(kind, level, map_shape))
    assert got == FRAME_DIGESTS[f"{kind}/{level}/{map_shape}"]


@pytest.mark.parametrize("channels, heads", FUSION_CASES)
def test_fuse_bev_and_jvp_are_byte_stable(channels, heads):
    outs = fusion_outputs(channels, heads)
    for name, arr in outs.items():
        assert sha256(arr) == FUSION_DIGESTS[f"c{channels}h{heads}/{name}"], name
