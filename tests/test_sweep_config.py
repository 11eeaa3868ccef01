"""Sweep-config schema: load-time checks, distinct rows, JSON round trips."""

import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rcbench.bench import (
    PIPELINES,
    SceneConfig,
    SweepConfig,
    SweepEntry,
    default_sweep_config,
    sweep_config_from_json_dict,
    sweep_config_to_json_dict,
)
from rcbench.cli import main
from rcbench.corruption import (
    DEFAULT_BEAM_COUNT,
    SIGMA_KINDS,
    TARGETED_REMOVAL_CAP,
    CorruptionKind,
    SpuriousMode,
)

README = Path(__file__).resolve().parents[1] / "README.md"

BASE = {
    "corruptions": [{"kind": "PointShifting", "levels": [1]}],
    "pipelines": ["raw"],
    "replicates": 1,
}
GRID = {"x_range": [-51.2, 51.2], "y_range": [-51.2, 51.2], "z_range": [-5, 3]}


def run_config(tmp_path, capsys, overrides):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**BASE, **overrides}))
    code = main(["run", "--config", str(path), "--out-dir", str(tmp_path / "out")])
    return code, capsys.readouterr().err


BAD_VALUES = {
    # Exit 2 at run time before these were checked at load.
    "replicates-float": {"replicates": 2.5},
    "cluster-count-float": {"scene": {"cluster_count": 1.5}},
    "points-per-cluster-float": {"scene": {"points_per_cluster": 2.5}},
    "keypoint-gamma-2": {
        "corruptions": [{"kind": "KeyPointMissing", "levels": [1], "gamma": 2}]
    },
    "master-seed-string": {"master_seed": "x"},
    "rcs-range-string": {"scene": {"target_rcs_range": "ab"}},
    "center-of-two": {"scene": {"cluster_centers": [[1, 2]]}},
    "box-height-nan": {"scene": {"box_height_m": math.nan}},
    "cluster-radius-inf": {"scene": {"cluster_radius_m": math.inf}},
    # Ran silently wrong.
    "levels-string": {"corruptions": [{"kind": "PointShifting", "levels": "35"}]},
    "replicates-true": {"replicates": True},
    "master-seed-negative": {"master_seed": -1},
    "master-seed-float": {"master_seed": 1.5},
    "cells-float": {"grid": {**GRID, "cells": [128.7, 128, 8]}},
    # Gave nothing but error rows.
    "total-beams-float": {
        "corruptions": [{"kind": "BeamDrop", "levels": [1]}],
        "total_beams": 2.5,
    },
    "spurious-ratio-2": {
        "corruptions": [{"kind": "SpuriousPoints", "levels": [1], "spurious_ratio": 2}]
    },
    "spurious-level-inf": {"corruptions": [{"kind": "SpuriousPoints", "levels": [math.inf]}]},
    # Ran, with rows that read chamfer_m inf.
    **{
        f"{kind}-level-1e300": {"corruptions": [{"kind": kind, "levels": [1e300]}]}
        for kind in ("SpuriousPoints", "PointShifting", "NonPositionalDisturbance")
    },
}


@pytest.mark.parametrize("overrides", BAD_VALUES.values(), ids=BAD_VALUES.keys())
def test_bad_value_is_config_error(tmp_path, capsys, overrides):
    code, err = run_config(tmp_path, capsys, overrides)
    assert code == 1
    assert "config error" in err
    assert not (tmp_path / "out").exists()


# Keys the sweep config no longer has, each with a legal value: the scene's
# fixed parts are module constants, every sweep runs on the default grid with
# DEFAULT_BEAM_COUNT beams, and its cluster centers are drawn at random.
REMOVED_KEYS = {
    "grid": ("config", {"grid": {**GRID, "cells": [4, 4, 2]}}),
    "total_beams": ("config", {"total_beams": 32}),
    "cluster_centers": ("scene", {"scene": {"cluster_centers": [[10.0, 5.0, 0.0]]}}),
    "cluster_radius_m": ("scene", {"scene": {"cluster_radius_m": 2.0}}),
    "box_height_m": ("scene", {"scene": {"box_height_m": 2.0}}),
    "target_rcs_range": ("scene", {"scene": {"target_rcs_range": [5, 10]}}),
    "noise_rcs_range": ("scene", {"scene": {"noise_rcs_range": [0.5, 2]}}),
    "doppler_range": ("scene", {"scene": {"doppler_range": [-5, 5]}}),
}


@pytest.mark.parametrize("key", REMOVED_KEYS)
def test_removed_key_is_an_unknown_field(tmp_path, capsys, key):
    context, overrides = REMOVED_KEYS[key]
    code, err = run_config(tmp_path, capsys, overrides)
    assert code == 1
    assert f"config error: unknown {context} fields: [{key!r}]" in err
    assert not (tmp_path / "out").exists()


DUPLICATES = {
    "within-entry": (
        {"corruptions": [{"kind": "BeamDrop", "levels": [10, 10]}]},
        "('BeamDrop', '10')",
    ),
    "across-entries": (
        {
            "corruptions": [
                {"kind": "SpuriousPoints", "levels": [5], "mode": "PointRelated"},
                {"kind": "SpuriousPoints", "levels": [5], "mode": "Random"},
            ]
        },
        "('SpuriousPoints', '5')",
    ),
    "same-heatmap-name": (
        {"corruptions": [{"kind": "PointShifting", "levels": [3, 3.0000001]}]},
        "('PointShifting', '3')",
    ),
    "pipeline": ({"pipelines": ["raw", "3dge_planar", "raw"]}, "duplicate pipeline"),
}


@pytest.mark.parametrize(
    "overrides, named", DUPLICATES.values(), ids=DUPLICATES.keys()
)
def test_duplicate_rows_are_config_errors(tmp_path, capsys, overrides, named):
    code, err = run_config(tmp_path, capsys, overrides)
    assert code == 1
    assert "config error" in err and named in err


@pytest.mark.parametrize(
    "kind, level",
    [
        ("c3", "inf"),
        ("c3", "2.5"),
        ("keypoint", "nan"),
        ("c1", "inf"),
        ("c4", "-1"),
        ("c1", "1e300"),
        ("c2", "1e300"),
        ("c4", "1e300"),
    ],
)
def test_corrupt_bad_level_is_exit_1(tmp_path, capsys, kind, level):
    src = tmp_path / "x.csv"
    assert main(["gen-scene", "--seed", "1", "--out", str(src)]) == 0
    argv = ["corrupt", "--kind", kind, "--level", level, "--seed", "0"]
    code = main(argv + ["--in", str(src), "--out", str(tmp_path / "y.csv")])
    assert code == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "y.csv").exists()


@st.composite
def scene_configs(draw):
    return SceneConfig(
        cluster_count=draw(st.integers(1, 3)),
        points_per_cluster=draw(st.integers(0, 100)),
        noise_points=draw(st.integers(0, 100)),
    )


@st.composite
def sweep_entries(draw):
    """Entries whose (kind, level) pairs are all distinct and whose counts
    lie within the bounds that hold whatever the scene."""
    entries, seen = [], set()
    for kind in draw(st.lists(st.sampled_from(CorruptionKind), min_size=1, max_size=5)):
        gamma = draw(st.sampled_from((0, 1)))
        if kind in SIGMA_KINDS:
            level = st.floats(1e-3, 50.0)
        elif kind is CorruptionKind.BEAM_DROP:
            level = st.integers(1, DEFAULT_BEAM_COUNT).map(float)
        else:
            level = st.integers(1, TARGETED_REMOVAL_CAP if gamma == 1 else 64).map(float)
        levels = []
        for lv in draw(st.lists(level, min_size=1, max_size=3)):
            if (kind, f"{lv:g}") not in seen:
                seen.add((kind, f"{lv:g}"))
                levels.append(lv)
        if not levels:
            continue
        entries.append(
            SweepEntry(
                kind=kind,
                levels=tuple(levels),
                mode=draw(st.sampled_from(SpuriousMode)),
                spurious_ratio=draw(st.floats(1e-3, 1.0)),
                gamma=gamma,
            )
        )
    return tuple(entries)


@st.composite
def sweep_configs(draw):
    return SweepConfig(
        scene=draw(scene_configs()),
        corruptions=draw(sweep_entries()),
        pipelines=tuple(draw(st.lists(st.sampled_from(PIPELINES), min_size=1, unique=True))),
        projector_weights=draw(st.none() | st.text(min_size=1, max_size=12)),
        replicates=draw(st.integers(1, 50)),
        master_seed=draw(st.integers(0, 2**64 - 1)),
    )


RICH = SweepConfig(
    scene=SceneConfig(cluster_count=2, points_per_cluster=7, noise_points=0),
    corruptions=(
        SweepEntry(CorruptionKind.SPURIOUS_POINTS, (2.5,), mode=SpuriousMode.POINT_RELATED),
        SweepEntry(CorruptionKind.SPURIOUS_POINTS, (4.0,), mode=SpuriousMode.RANDOM),
        SweepEntry(CorruptionKind.KEY_POINT_MISSING, (3,), gamma=1),
    ),
    pipelines=PIPELINES,
    projector_weights="weights/proj.json",
    master_seed=2**64 - 1,
)


@given(cfg=sweep_configs())
@example(cfg=RICH)
@settings(max_examples=60, deadline=None)
def test_json_round_trip(cfg):
    text = json.dumps(sweep_config_to_json_dict(cfg))
    assert sweep_config_from_json_dict(json.loads(text)) == cfg


def test_readme_sweep_config_is_the_default():
    section = README.read_text().split("### Sweep config", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    payload = json.loads(block)
    assert sweep_config_from_json_dict(payload) == default_sweep_config()
    full = sweep_config_to_json_dict(default_sweep_config())
    assert payload.keys() == full.keys()
    assert payload["scene"].keys() == full["scene"].keys()
    assert set().union(*payload["corruptions"]) == set(full["corruptions"][0])

