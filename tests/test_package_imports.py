"""Import-footprint tests: the package re-exports nothing, so a command loads
only the modules it runs. Each check runs in a fresh interpreter, since the
test session has already imported every module."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def loaded_after(statement: str) -> set[str]:
    code = (
        f"import json, sys\n{statement}\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('rcbench.'))))"
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
