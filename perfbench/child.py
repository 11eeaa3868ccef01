"""Subprocess side of the benchmark; run.py starts it.

    python3 perfbench/child.py setup   <workload> <seed> <workdir>
    python3 perfbench/child.py measure <workload> <seed> <seconds> <trace> <workdir>
    python3 perfbench/child.py record  <workdir>

`setup` times the program import plus input construction in a fresh
interpreter. `measure` runs one workload untraced (trace 0) or traced
(trace 1). `record` rewrites perfbench/reference/ from the current
program. Each prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_program() -> None:
    """Import rcbench from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import rcbench
    import rcbench.cli  # noqa: F401  (the CLI is part of every workload)

    if Path(rcbench.__file__).resolve().parent != SRC / "rcbench":
        raise SystemExit(f"rcbench was imported from {rcbench.__file__}, not {SRC}")


def setup(workload: str, seed: int, workdir: Path) -> dict:
    started = time.perf_counter()
    import_program()
    imported = time.perf_counter()
    import workloads  # the benchmark's own code is not part of set-up

    built = time.perf_counter()
    workloads.build_inputs(workload, seed, workdir)
    done = time.perf_counter()
    return {"setup_s": (imported - started) + (done - built)}


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    import_program()
    import numpy
    import workloads

    if trace:
        result = workloads.trace(workload, seed, workdir)
    else:
        result = workloads.measure(workload, seed, seconds, workdir)
    tally = result.pop("tally")
    return {
        **result,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.messages,
        "numpy": numpy.__version__,
    }


def main(argv) -> int:
    command, args = argv[0], argv[1:]
    if command == "setup":
        out = setup(args[0], int(args[1]), Path(args[2]))
    elif command == "measure":
        out = measure(args[0], int(args[1]), float(args[2]), args[3] == "1", Path(args[4]))
    elif command == "record":
        import_program()
        import workloads

        Path(args[0]).mkdir(parents=True, exist_ok=True)
        workloads.record_references(Path(args[0]))
        out = {"recorded": str(workloads.REFERENCE_DIR)}
    else:
        print(f"unknown command {command!r}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
