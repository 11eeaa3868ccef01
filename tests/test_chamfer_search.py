"""Chamfer search: exact matches, then the bucketed nearest-neighbour
search, both equal bit for bit to the brute-force scan kept here as the
oracle, on corrupted scenes and on edge cases; bounded memory on a
pathological cloud.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rcbench.bench as bench
from rcbench.bench import SceneConfig, gen_scene, metric_chamfer
from rcbench.core import PointCloud, Rng, default_grid
from rcbench.corruption import CorruptionKind, apply_corruption, spec_for_level


def oracle(a, b):
    """Brute-force O(|a| |b|) scan in row blocks: the formula metric_chamfer must equal."""
    row_min = np.empty(len(a))
    col_min = np.full(len(b), np.inf)
    step = max(1, bench.CHAMFER_BLOCK // len(b))
    for lo in range(0, len(a), step):
        diff = a.xyz[lo : lo + step, None, :] - b.xyz[None, :, :]
        dist = np.sqrt((diff * diff).sum(axis=2))
        row_min[lo : lo + step] = dist.min(axis=1)
        np.minimum(col_min, dist.min(axis=0), out=col_min)
    return float(0.5 * (row_min.mean() + col_min.mean()))


def cloud(xyz):
    xyz = np.asarray(xyz, dtype=np.float64).reshape(-1, 3)
    return PointCloud(data=np.column_stack([xyz, np.ones((len(xyz), 2))]))


def assert_equals_oracle(a, b):
    # No NaN may arise anywhere; overflow to inf is part of the formula.
    # The oracle is symmetric bit for bit, so one run serves both orders.
    with np.errstate(over="ignore", invalid="raise"):
        expected = oracle(a, b)
        assert metric_chamfer(a, b) == expected
        assert metric_chamfer(b, a) == expected


# The default 80-point scene, and a 3000-point one with ten dense clusters.
SCENES = {
    "80": SceneConfig(),
    "3000": SceneConfig(cluster_count=10, points_per_cluster=200, noise_points=1000),
}
K = CorruptionKind
SCENE_CASES = [
    ("80", K.SPURIOUS_POINTS, 3.0),
    ("80", K.SPURIOUS_POINTS, 40.0),
    ("80", K.BEAM_DROP, 10),
    ("80", K.BEAM_DROP, 31),
    ("80", K.KEY_POINT_MISSING, 20),
    ("80", K.NON_POSITIONAL_DISTURBANCE, 5.0),
    ("80", K.POINT_SHIFTING, 0.2),
    ("80", K.POINT_SHIFTING, 5.0),
    ("3000", K.SPURIOUS_POINTS, 5.0),
    ("3000", K.BEAM_DROP, 10),
    ("3000", K.KEY_POINT_MISSING, 500),
    ("3000", K.NON_POSITIONAL_DISTURBANCE, 5.0),
    ("3000", K.POINT_SHIFTING, 0.2),
    ("3000", K.POINT_SHIFTING, 5.0),
]


@pytest.mark.parametrize(
    "size, kind, level",
    SCENE_CASES,
    ids=[f"{size}-{kind.value}-{level:g}" for size, kind, level in SCENE_CASES],
)
def test_corrupted_scene_equals_oracle(size, kind, level):
    scene = gen_scene(SCENES[size], default_grid(), Rng(11))
    spec = spec_for_level(kind, level, seed=12)
    corrupted = apply_corruption(scene.cloud, spec, boxes=scene.boxes, bounds=default_grid())
    assert_equals_oracle(scene.cloud, corrupted)


def edge_cases():
    crowd = SceneConfig(cluster_count=4, points_per_cluster=150, noise_points=400)
    base = gen_scene(crowd, default_grid(), Rng(21)).cloud
    xyz = base.xyz
    gen = np.random.default_rng(22)
    shifted = xyz + gen.normal(scale=0.5, size=xyz.shape)
    dup = np.vstack([xyz[:400], xyz[:400], shifted[:200], shifted[:200]])
    signed = xyz[:300].copy()
    signed[::3, 0] = 0.0
    flipped = signed.copy()
    flipped[::3, 0] = -0.0
    return {
        "all-rows-match": (base, cloud(xyz[::-1])),
        "no-rows-match": (base, cloud(shifted)),
        "duplicates": (cloud(dup), cloud(np.vstack([xyz[:300], shifted[300:600]]))),
        "signed-zero": (cloud(signed), cloud(flipped)),
        "on-lattice": (
            cloud(np.argwhere(np.ones((9, 9, 4))) * [2.5, 2.5, 1.0]),
            cloud(np.argwhere(np.ones((7, 7, 3))) * [3.0, 3.0, 1.5] + [0.25, 0.0, 0.0]),
        ),
        "gaussian": (
            cloud(gen.normal(scale=20.0, size=(300, 3))),
            cloud(gen.normal(scale=20.0, size=(310, 3))),
        ),
        "far-outside": (base, cloud(shifted[:500] + [5000.0, -3000.0, 7.0])),
        "single-point": (cloud([[1.0, 2.0, 0.5]]), base),
        "single-vs-single": (cloud([[1.0, 2.0, 0.5]]), cloud([[-3.0, 2.0, 0.5]])),
    }


EDGE = edge_cases()


@pytest.mark.parametrize("name", EDGE)
def test_edge_case_equals_oracle(name):
    assert_equals_oracle(*EDGE[name])


def test_signed_zero_is_not_an_exact_match():
    q = np.array([[-0.0, 1.0, 2.0], [0.0, 1.0, 2.0], [3.0, -0.0, 0.0]])
    p = np.array([[0.0, 1.0, 2.0], [3.0, 0.0, 0.0]])
    assert list(bench._unmatched(q, p)) == [0, 2]
    assert list(bench._unmatched(p, q)) == [1]


def test_rows_on_bucket_faces_equal_oracle():
    """Points a few ulps either side of a bucket face.

    A point just below a face can get the key of the bucket above it.
    Without slack the search would stop at ring 0 with a decoy exactly as
    far as the face, and miss that nearer point in the next bucket.
    """
    n = 8 * bench.CHAMFER_BUCKET_POINTS  # eight buckets along x, from 0 to extent
    for extent in np.linspace(0.3, 3.0, 61):
        size = extent / 8
        face = 2 * size + size  # the top face of bucket 2, as the search computes it
        below = [face]
        for _ in range(8):
            below.append(np.nextafter(below[-1], 0.0))
        filler = np.linspace(0.9 * extent, extent, n - 3)
        query = cloud([[below[4], 0.0, 0.0]])
        for k in (1, 2, 3):
            xs = np.concatenate([[0.0, below[k], below[8]], filler])
            assert_equals_oracle(query, cloud(np.column_stack([xs, np.zeros(n), np.zeros(n)])))


huge = st.floats(min_value=1e300, max_value=1.7976931348623157e308)
coordinate = st.one_of(huge, huge.map(lambda v: -v), st.floats(-100.0, 100.0))


@st.composite
def extreme_clouds(draw):
    # One sign only keeps extents finite, so large clouds get a split grid.
    elements = draw(st.sampled_from([coordinate, huge]))
    # Coordinates come from a drawn pool, so large clouds stay quick to draw.
    pool = np.array(draw(st.lists(elements, min_size=1, max_size=64)))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return cloud(pool[gen.integers(0, len(pool), size=(draw(st.integers(1, 400)), 3))])


@given(a=extreme_clouds(), b=extreme_clouds())
@settings(max_examples=80, deadline=None)
def test_extreme_coordinates_equal_oracle(a, b):
    assert_equals_oracle(a, b)


def test_peak_memory_bounded_on_one_crowded_bucket():
    gen = np.random.default_rng(39)

    def crowded():
        xyz = gen.uniform(0.0, 0.01, size=(2000, 3))
        xyz[-1] = [100.0, 0.0, 0.0]
        return cloud(xyz)

    a, b = crowded(), crowded()
    tracemalloc.start()
    try:
        got = metric_chamfer(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert got == oracle(a, b)
