"""Correctness gate: every operation the benchmark times is also checked.

A report row fails when it is an error row, breaks an invariant that
holds for any seed, or (when a reference is given) differs from the
reference row: integer, boolean and text cells exactly, float cells by
more than ``REL_TOL`` relative.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

import numpy as np

REL_TOL = 1e-9

KEY_COLUMNS = ("kind", "level", "replicate", "pipeline")
FLOAT_COLUMNS = ("level", "snr_before", "snr_after", "peak_l2_cells", "chamfer_m")


def read_report(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    if a == b:  # also equal infinities
        return True
    if not (math.isfinite(a) and math.isfinite(b)):
        return False
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _float(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        return math.nan


def row_problems(row: dict, scene_size: int, ref: dict | None = None) -> list[str]:
    """Why a report row is wrong; empty when it passes."""
    if "ERROR" in row.values():
        return ["error row"]
    problems = []
    if row["points_in"] != str(scene_size):
        problems.append(f"points_in {row['points_in']} != scene size {scene_size}")
    if not _float(row["peak_l2_cells"]) >= 0.0:
        problems.append(f"peak_l2_cells {row['peak_l2_cells']} < 0")
    for col in ("snr_before", "snr_after"):
        value = _float(row[col])
        if math.isnan(value) or value == -math.inf:
            problems.append(f"{col} {row[col]} is neither finite nor inf")
    if ref is not None:
        for col, want in ref.items():
            got = row.get(col)
            same = close(_float(got), _float(want)) if col in FLOAT_COLUMNS else got == want
            if not same:
                problems.append(f"{col} {got} != reference {want}")
    return problems


def check_report(rows, expected_keys, scene_size, reference=None) -> list[str]:
    """One message per failed row, plus one per missing or extra row."""
    failures = []
    keys = [tuple(r[c] for c in KEY_COLUMNS) for r in rows]
    if keys != list(expected_keys):
        failures.append(f"row keys differ from the expected {len(expected_keys)} rows")
    refs = reference if reference is not None else [None] * len(rows)
    for i, (row, ref) in enumerate(zip(rows, refs)):
        problems = row_problems(row, scene_size, ref)
        if problems:
            failures.append(f"row {i}: " + "; ".join(problems))
    failures += ["missing row"] * max(0, len(expected_keys) - len(rows))
    return failures


def tree_digest(directory) -> str:
    """Digest of every file's relative path and bytes under a directory."""
    h = hashlib.sha256()
    root = Path(directory)
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def checksum(arr) -> list[float]:
    """Sum, absolute sum and a position-weighted sum of an array."""
    flat = np.asarray(arr, dtype=np.float64).ravel()
    weights = np.cos(np.arange(flat.size, dtype=np.float64))
    return [float(flat.sum()), float(np.abs(flat).sum()), float(flat @ weights)]


def checksums_close(got, want) -> bool:
    return len(got) == len(want) and all(close(a, b) for a, b in zip(got, want))
