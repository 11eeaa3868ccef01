"""What a sweep rejects before any pipeline runs: counts out of range
whatever the scene and scenes with no boxes to score, which the config
itself rejects, and a weights file that cannot be loaded, which the sweep
rejects. None of them leaves anything on disk.
"""

import json

import pytest

import rcbench.bench as bench
from rcbench.bench import ConfigError, SceneConfig, SweepConfig, SweepEntry
from rcbench.cli import main
from rcbench.corruption import TARGETED_REMOVAL_CAP, CorruptionKind


def run_config(tmp_path, capsys, config, *flags):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"pipelines": ["raw"], "replicates": 2, **config}))
    out = tmp_path / "out"
    code = main(["run", "--config", str(path), "--out-dir", str(out), *flags])
    return code, capsys.readouterr().err, out / "report.csv"


COUNT_BOUNDS = {
    "beams-above-total": (
        {"corruptions": [{"kind": "BeamDrop", "levels": [40]}]},
        "drop_count=40 outside [1, total_beams=32]",
    ),
    "beams-zero": (
        {"corruptions": [{"kind": "BeamDrop", "levels": [0]}]},
        "drop_count=0 outside [1, total_beams=32]",
    ),
    "keypoint-zero": (
        {"corruptions": [{"kind": "KeyPointMissing", "levels": [0]}]},
        "k=0 outside [1, n // 2] for gamma=0",
    ),
    "targeted-above-cap": (
        {
            "corruptions": [
                {"kind": "KeyPointMissing", "levels": [TARGETED_REMOVAL_CAP + 1], "gamma": 1}
            ]
        },
        f"k=9 outside [1, {TARGETED_REMOVAL_CAP}] for gamma=1",
    ),
}


@pytest.mark.parametrize("config, named", COUNT_BOUNDS.values(), ids=COUNT_BOUNDS.keys())
def test_scene_independent_count_bound_is_config_error(tmp_path, capsys, config, named):
    code, err, report = run_config(tmp_path, capsys, config)
    assert code == 1
    assert "config error" in err and named in err
    assert not report.exists()


BAD_ENTRIES = {
    "beams-above-total": SweepEntry(kind=CorruptionKind.BEAM_DROP, levels=(40,)),
    "beams-zero": SweepEntry(kind=CorruptionKind.BEAM_DROP, levels=(0,)),
    "keypoint-zero": SweepEntry(kind=CorruptionKind.KEY_POINT_MISSING, levels=(0,)),
    "targeted-above-cap": SweepEntry(
        kind=CorruptionKind.KEY_POINT_MISSING, levels=(TARGETED_REMOVAL_CAP + 1,), gamma=1
    ),
}


@pytest.mark.parametrize("entry", BAD_ENTRIES.values(), ids=BAD_ENTRIES.keys())
def test_config_rejects_count_out_of_bounds(entry):
    # A library caller that builds a config and never runs it is told too.
    with pytest.raises(ConfigError, match="outside"):
        SweepConfig(corruptions=(entry,))


def test_beam_count_within_total_runs(tmp_path, capsys):
    # Every sweep splits the azimuth into 32 beams; 31 dropped leaves points to score.
    config = {"corruptions": [{"kind": "BeamDrop", "levels": [1, 31]}]}
    code, _, report = run_config(tmp_path, capsys, config)
    assert code == 0
    assert "ERROR" not in report.read_text()


def test_scene_dependent_count_stays_a_row_error(tmp_path, capsys):
    # Half of an 80-point scene is 40 points, so 500 fails only when a row runs.
    config = {"corruptions": [{"kind": "KeyPointMissing", "levels": [500]}]}
    code, _, report = run_config(tmp_path, capsys, config)
    assert code == 0
    rows = report.read_text().splitlines()[1:]
    assert len(rows) == 2 and all("ERROR" in row for row in rows)


def test_no_box_scene_fails_before_any_pipeline():
    # A scene with no cluster has no box to score, whatever the seed, so the
    # config cannot be built, and no sweep of it can start.
    with pytest.raises(ConfigError, match="cluster_count must be at least 1"):
        SweepConfig(
            scene=SceneConfig(cluster_count=0),
            corruptions=(SweepEntry(kind=CorruptionKind.POINT_SHIFTING, levels=(1.0,)),),
            pipelines=bench.PIPELINES,
            replicates=3,
        )


def test_no_box_scene_is_config_error(tmp_path, capsys):
    config = {
        "scene": {"cluster_count": 0},
        "corruptions": [{"kind": "PointShifting", "levels": [1]}],
    }
    code, err, report = run_config(tmp_path, capsys, config)
    assert code == 1
    assert "config error" in err and "cluster_count must be at least 1" in err
    assert not report.exists()


CONFIG_ERRORS = {
    "cluster-less": ({"scene": {"cluster_count": 0}}, "scene.cluster_count must be at least 1"),
    "missing-weights": (
        {"pipelines": ["raw", "3dge_planar"], "projector_weights": "no/such/weights.json"},
        "cannot load projector weights",
    ),
    "cluster-centers": (
        {"scene": {"cluster_centers": [[100.0, 100.0, 0.0]]}},
        "unknown scene fields: ['cluster_centers']",
    ),
}


@pytest.mark.parametrize("config, named", CONFIG_ERRORS.values(), ids=CONFIG_ERRORS.keys())
def test_config_error_writes_nothing(tmp_path, capsys, config, named):
    # Neither the out dir nor its heatmaps dir is made before the config is found bad.
    code, err, report = run_config(tmp_path, capsys, config, "--emit-heatmaps", "--jobs", "2")
    assert code == 1
    assert f"config error: {named}" in err
    assert not report.parent.exists()
