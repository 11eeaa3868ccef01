"""Import-footprint tests: the package re-exports nothing, so a command loads
only the modules it runs. Each check runs in a fresh interpreter, since the
test session has already imported every module."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def loaded_after(statement: str, prefixes=("rcbench.",)) -> set[str]:
    code = (
        f"import json, sys\n{statement}\n"
        f"print(json.dumps(sorted(m for m in sys.modules if m.startswith({prefixes!r}))))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return set(json.loads(out.stdout))


def test_bare_package_import_loads_no_module():
    assert loaded_after("import rcbench") == set()


def test_cli_import_leaves_the_camera_half_unloaded():
    loaded = loaded_after("import rcbench.cli")
    assert "rcbench.cli" in loaded
    assert not loaded & {"rcbench.fusion", "rcbench.imaging"}, loaded


POOL_MODULES = ("multiprocessing", "concurrent.futures.process")


def test_cli_import_leaves_the_process_pool_unloaded():
    assert loaded_after("import rcbench.cli", POOL_MODULES) == set()


def run_statement(tmp_path, jobs: int) -> str:
    config = tmp_path / "sweep.json"
    config.write_text(
        json.dumps({"corruptions": [{"kind": "SpuriousPoints", "levels": [5]}], "replicates": 2})
    )
    argv = ["run", "--config", str(config), "--out-dir", str(tmp_path / "out"), "--jobs", str(jobs)]
    return f"from rcbench.cli import main\nassert main({argv!r}) == 0"


def test_serial_run_leaves_the_process_pool_unloaded(tmp_path):
    assert loaded_after(run_statement(tmp_path, 1), POOL_MODULES) == set()
    assert (tmp_path / "out" / "report.csv").exists()


def test_pooled_run_leaves_numpy_random_and_ma_to_the_workers(tmp_path):
    # Two CPUs, so that two tasks really run on a pool of two workers.
    cpus = "os.cpu_count = lambda: 2\nos.sched_getaffinity = lambda pid: {0, 1}\n"
    statement = "import os\n" + cpus + run_statement(tmp_path, 2)
    task_modules = {"numpy.random", "numpy.ma"}
    loaded = loaded_after(statement, (*task_modules, "concurrent.futures.process"))
    assert "concurrent.futures.process" in loaded
    # Exact names: the run also loads numpy.matrixlib, which "numpy.ma" prefixes.
    assert not loaded & task_modules, loaded
    assert (tmp_path / "out" / "report.csv").exists()


def test_serial_run_without_heatmaps_starts_no_writer(tmp_path):
    # numpy itself loads threading and ctypes, so the writer's own modules
    # stand for them here.
    writer_modules = ("concurrent.futures.thread", "queue")
    assert loaded_after(run_statement(tmp_path, 1), writer_modules) == set()
    assert (tmp_path / "out" / "report.csv").exists()
