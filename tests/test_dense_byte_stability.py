"""Byte stability of `bench run --jobs 2 --emit-heatmaps` on a dense
three-pipeline sweep, shaped like the benchmark's sweep-dense workload.

`tests/test_byte_stability.py` pins the default sweep, which runs only the
raw and planar pipelines. These digests also cover the isotropic pipeline
and ~3000-point clouds whose kernels reach past the grid's border. They
were recorded before the planar and isotropic deposits shared one entry
pass and the raw sums were binned without a kernel (numpy 2.4, x86-64).
The heatmap digest is the sha256 of the `sha256sum`-style listing
("<sha256>  <name>" lines, sorted by name) of every heatmap. A libm or
SIMD `exp` that rounds differently may move them.
"""

import hashlib
import json

import pytest

from rcbench.cli import main

DENSE_SWEEP = {
    "scene": {"cluster_count": 10, "points_per_cluster": 200, "noise_points": 1000},
    "corruptions": [
        {"kind": "SpuriousPoints", "levels": [5]},
        {"kind": "BeamDrop", "levels": [10]},
    ],
    "pipelines": ["raw", "3dge_planar", "3dge_isotropic"],
    "replicates": 2,
}
DIGESTS = {
    3: (
        "a2cf8f2389a6c79edef3a207772c06039a245b8334f486a7d6913bd6eabf7014",
        "c4dab3f86786250179f15b99b39b4cecfe41b8c9a59f846d8aa808dce0171237",
    ),
    29: (
        "7edc991b902a6c356b40518bc2821a0395d4d44230b311e58c1531f8c3400c6b",
        "8926896b6bde9a9ed1d05af5ed3c43987090797792021115cab775276349db19",
    ),
}
HEATMAPS = 24


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("seed", DIGESTS)
def test_dense_three_pipeline_sweep_is_byte_stable(tmp_path, capsys, seed):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({**DENSE_SWEEP, "master_seed": seed}))
    out = tmp_path / "out"
    argv = ["run", "--config", str(config), "--out-dir", str(out), "--emit-heatmaps"]
    assert main(argv + ["--jobs", "2"]) == 0
    capsys.readouterr()
    maps = sorted((out / "heatmaps").iterdir())
    listing = "".join(f"{sha256(p.read_bytes())}  {p.name}\n" for p in maps)
    assert len(maps) == HEATMAPS
    assert sha256((out / "report.csv").read_bytes()) == DIGESTS[seed][0]
    assert sha256(listing.encode()) == DIGESTS[seed][1]
