"""Chamfer bucket search: its work follows the candidate pairs, and it equals
the brute-force oracle on clustered clouds with empty regions.
"""

import numpy as np
import pytest

import rcbench.bench as bench
from rcbench.bench import metric_chamfer
from test_chamfer_search import assert_equals_oracle, cloud


@pytest.fixture
def work(monkeypatch):
    """Point pairs whose distance is taken, and (query, bucket) pairs each
    ring's shell lookup examines."""
    counts = {"pairs": 0, "looked_up": 0}
    distances = bench._distances
    looked_up = bench._Buckets.looked_up

    def counted_distances(q, who, p, pts):
        counts["pairs"] += len(who)
        return distances(q, who, p, pts)

    def counted_lookup(grid, near, shell):
        counts["looked_up"] += near.shape[1] * shell.shape[1]
        return looked_up(grid, near, shell)

    monkeypatch.setattr(bench, "_distances", counted_distances)
    monkeypatch.setattr(bench._Buckets, "looked_up", counted_lookup)
    return counts


@pytest.mark.parametrize("depth", [8.0, 100.0])
def test_candidate_pairs_are_linear_at_20k_uniform_points(work, depth):
    # A scan of every occupied bucket per query, as a query block did, examines
    # about n / CHAMFER_BUCKET_POINTS = 625 buckets per query here.
    n = 20_000
    gen = np.random.default_rng(41)
    a, b = (cloud(gen.uniform(0.0, 1.0, (n, 3)) * [100.0, 100.0, depth]) for _ in "ab")
    metric_chamfer(a, b)
    queries = 2 * n
    assert work["pairs"] <= 200 * queries
    assert work["looked_up"] <= 50 * queries


def clustered(seed, n_queries):
    """Four tight clusters at the corners of a 100 m square, and queries
    spread over it and past it, most far from any cluster."""
    gen = np.random.default_rng(seed)
    corners = np.array([[0.0, 0.0, 0.0], [100.0, 0.0, 1.0], [0.0, 100.0, -1.0], [100.0, 100.0, 0.5]])
    points = np.vstack([c + gen.normal(scale=0.4, size=(400, 3)) for c in corners])
    queries = gen.uniform([-20.0, -20.0, -10.0], [120.0, 120.0, 10.0], size=(n_queries, 3))
    return cloud(points), cloud(queries)


@pytest.mark.parametrize("seed", [42, 43, 44])
def test_clustered_clouds_with_empty_regions_equal_oracle(work, seed):
    points, queries = clustered(seed, 600)
    assert_equals_oracle(points, queries)
    assert work["looked_up"] > 0


def test_queries_inside_dense_clusters_equal_oracle(monkeypatch):
    # Queries packed into one dense cluster meet far more points per bucket than
    # the cloud's mean, so the search sizes its buckets again, by that load.
    sizings = []
    bucket_cells = bench._bucket_cells

    def recorded(extent, buckets):
        sizings.append(buckets)
        return bucket_cells(extent, buckets)

    monkeypatch.setattr(bench, "_bucket_cells", recorded)
    gen = np.random.default_rng(45)
    dense = gen.normal(scale=0.5, size=(3000, 3))
    sparse = gen.uniform(-50.0, 50.0, size=(3000, 3))
    near = dense[:1500] + gen.normal(scale=0.05, size=(1500, 3))
    a, b = cloud(np.vstack([dense, sparse])), cloud(near)
    metric_chamfer(a, b)
    assert len(sizings) == 4 and sizings[1] > sizings[0] and sizings[3] > sizings[2]
    assert_equals_oracle(a, b)
