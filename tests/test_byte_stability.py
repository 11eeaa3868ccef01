"""Byte stability of `bench run --emit-heatmaps` on the default sweep.

The digests below were recorded before the BEVs were built from the
deposited entries instead of dense grids (numpy 2.4, x86-64), and any
change that claims to keep outputs byte-identical must keep them. The
heatmap digest is the sha256 of the `sha256sum`-style listing
("<sha256>  <name>" lines, sorted by name) of every heatmap, so it moves
when any one heatmap moves; `sha256sum heatmaps/*` at both commits names
it. A libm or SIMD `exp` that rounds differently may move them too.
"""

import hashlib
import json

import pytest

from rcbench.cli import main

DIGESTS = {
    0: (
        "7c472c5441a7513763ac92b15613006bb01c208b6f008e7d7dab94d2f197d5ee",
        "359e76e1eabe88e0f3628b0b5173ba45f76228b08ebebc6fdfb21e73ddaaf0bc",
    ),
    7: (
        "4fe5728b1e418025ec1b7ab3cf69578d43b8cf450da9371bf80926041d77fe54",
        "753f79e62da8d876f1d212bd3b4a862659b116bb6b1a4f9579095ecd68c24061",
    ),
}
HEATMAPS = 320


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("seed", DIGESTS)
def test_default_sweep_report_and_heatmaps_are_byte_stable(tmp_path, capsys, seed):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({"master_seed": seed}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out-dir", str(out), "--emit-heatmaps"]) == 0
    capsys.readouterr()
    maps = sorted((out / "heatmaps").iterdir())
    listing = "".join(f"{sha256(p.read_bytes())}  {p.name}\n" for p in maps)
    assert len(maps) == HEATMAPS
    assert sha256((out / "report.csv").read_bytes()) == DIGESTS[seed][0]
    assert sha256(listing.encode()) == DIGESTS[seed][1]
