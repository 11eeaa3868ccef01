"""The benchmark's traced sweep wraps program functions by module and name
(`SWEEP_PATCHES` in perfbench/workloads.py). A rename in `src/` would break
`perfbench/run.py --trace 1` without failing any program test, so each
hook is checked here. The table is read from the file, not imported, so
the benchmark's own imports stay out of the test session.
"""

import ast
import importlib
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def sweep_patches():
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SWEEP_PATCHES"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/workloads.py defines no SWEEP_PATCHES")


def test_every_sweep_trace_hook_resolves():
    patches = sweep_patches()
    assert len(patches) >= 10
    for module, attr, span in patches:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr, span)


def workloads_program_names():
    """(module, name) for each program name perfbench/workloads.py imports
    from an ``rcbench`` module or reads off one, as in ``fusion.fuse_bev``."""
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    modules = {}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "rcbench":
            modules.update({a.asname or a.name: f"rcbench.{a.name}" for a in node.names})
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("rcbench."):
            names.update((node.module, a.name) for a in node.names)
        elif isinstance(node, ast.Import):
            modules.update({a.name: a.name for a in node.names if a.name.startswith("rcbench.")})
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and ast.unparse(node.value) in modules:
            names.add((modules[ast.unparse(node.value)], node.attr))
    return sorted(names)


def test_every_program_name_the_benchmark_uses_resolves():
    names = workloads_program_names()
    assert len(names) >= 20
    for module, attr in names:
        assert hasattr(importlib.import_module(module), attr), (module, attr)
