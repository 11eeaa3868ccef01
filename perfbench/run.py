"""rcbench benchmark entry point.

    python3 perfbench/run.py --workload sweep-default --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. With ``--trace 0`` it reports the
end-to-end metrics of BENCHMARK.json: the median set-up time of several
fresh interpreters, then the median step time and peak RSS of one child
process that runs the workload for ``--seconds``. With ``--trace 1`` it
reports the per-layer metrics of one traced run instead. The last line
of standard output is the JSON result; the line before it holds the run
metadata. Every operation is checked against the correctness gate, and
``failed`` counts the ones that did not pass.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 20
MEASURE_TIMEOUT_S = 140
# glibc sysconf names for the L1d, L2 and L3 cache sizes.
_SC_CACHE = {"l1d": 188, "l2": 191, "l3": 194}
NO_BANDWIDTH = (
    "no bandwidth metric: the fusion working sets (at most ~60 MB) fit in "
    "the last-level cache, so a bandwidth figure would measure the cache"
)


class ChildFailed(RuntimeError):
    pass


def run_child(args, timeout: float) -> dict:
    """Run child.py in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *map(str, args)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"child {args[0]} timed out after {timeout}s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"child {args[0]} exited {proc.returncode}:\n{err[-4000:]}")
    return json.loads(lines[-1])


def git_sha() -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cache_sizes() -> dict:
    try:
        sysconf = ctypes.CDLL(None).sysconf
    except (OSError, AttributeError):
        return {}
    sysconf.restype = ctypes.c_long
    sysconf.argtypes = [ctypes.c_int]
    return {name: sysconf(code) for name, code in _SC_CACHE.items()}


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must lie in [0, 2**63)")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    if not (ROOT / "src" / "rcbench" / "__init__.py").is_file():
        print(f"no rcbench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    listed = spec["per_layer" if args.trace else "end_to_end"]
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_s = []
        if not args.trace:
            # The first set-up fills the byte-code caches and is not counted.
            for _ in range(SETUP_REPEATS + 1):
                child = run_child(["setup", args.workload, args.seed, workdir], SETUP_TIMEOUT_S)
                setup_s.append(child["setup_s"])
            setup_s = setup_s[1:]
        result = run_child(
            ["measure", args.workload, args.seed, args.seconds, args.trace, workdir],
            MEASURE_TIMEOUT_S,
        )
    except ChildFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values = result["metrics"]
    if setup_s:
        values["setup_s"] = statistics.median(setup_s)
    names = [m["name"] for m in listed]
    unknown = sorted(set(values) - set(names))
    missing = [n for n in names if n not in values]
    if unknown or (missing and not args.trace):
        print(f"metrics not in BENCHMARK.json: {unknown}; missing: {missing}", file=sys.stderr)
        return 1
    # Layers the workload does not run report zero in a traced run.
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in listed}
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "nproc": os.cpu_count(),
        "cache_bytes": cache_sizes(),
        "steps_s": result.get("steps_s"),
        "setup_samples_s": setup_s,
        "failures": result["failures"],
        "note": NO_BANDWIDTH,
    }
    print(json.dumps({"meta": meta}))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
