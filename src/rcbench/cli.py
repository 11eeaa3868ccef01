"""Command-line harness: scene generation, corruption, sweeps, manifests.

Exit codes: 0 on success, 1 for configuration errors, 2 for runtime
failures.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter
from pathlib import Path

# emit_heatmap stays importable here for perfbench's trace hook.
from .bench import (  # noqa: F401
    ConfigError,
    MANIFEST_CLEAN_RATIO,
    SceneConfig,
    emit_heatmap,
    gen_manifest,
    gen_scene,
    load_sweep_config,
    run_sweep,
    write_manifest_csv,
    write_report_csv,
)
from .core import (
    Rng,
    default_grid,
    read_point_cloud_csv,
    write_boxes_csv,
    write_point_cloud_csv,
)
from .corruption import CorruptionKind, apply_corruption, spec_for_level

# Matched in lower case; each kind's own name, as sweep configs give it, also counts.
KIND_ALIASES = {
    **{kind.value.lower(): kind for kind in CorruptionKind},
    "c1": CorruptionKind.SPURIOUS_POINTS,
    "spurious": CorruptionKind.SPURIOUS_POINTS,
    "c2": CorruptionKind.NON_POSITIONAL_DISTURBANCE,
    "nonpositional": CorruptionKind.NON_POSITIONAL_DISTURBANCE,
    "c3": CorruptionKind.BEAM_DROP,
    "c4": CorruptionKind.POINT_SHIFTING,
    "shift": CorruptionKind.POINT_SHIFTING,
    "keypoint": CorruptionKind.KEY_POINT_MISSING,
}


def _cmd_run(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    cfg = load_sweep_config(args.config)
    out_dir = Path(args.out_dir)
    heatmap_dir = out_dir / "heatmaps" if args.emit_heatmaps else None
    started = time.perf_counter()
    # run_sweep raises a config error, if any, before it returns: nothing is written yet.
    tasks = run_sweep(cfg, jobs=args.jobs, heatmap_dir=heatmap_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if heatmap_dir is not None:
        heatmap_dir.mkdir(exist_ok=True)
    # Heatmaps land as tasks arrive: a run that fails partway keeps no older report.
    report = out_dir / "report.csv"
    report.unlink(missing_ok=True)
    rows_by_error: Counter = Counter()

    def rows():
        for task_rows in tasks:
            rows_by_error.update(row.error for row in task_rows)
            yield from task_rows

    try:
        # The stream ends once every heatmap file is closed, before the report is renamed.
        write_report_csv(rows(), report)
    finally:
        tasks.close()
    elapsed = time.perf_counter() - started
    good = rows_by_error.pop(None, 0)
    errors = sum(rows_by_error.values())
    took = f"the sweep and its writes took {elapsed:.2f}s"
    print(f"wrote {good + errors} rows ({errors} errored) to {report}; {took}", file=sys.stderr)
    for error, count in rows_by_error.items():
        print(f"  {count} rows: {error}", file=sys.stderr)
    return 0


def _cmd_gen_scene(args) -> int:
    try:
        rng = Rng(args.seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    scene = gen_scene(SceneConfig(), default_grid(), rng)
    out = Path(args.out)
    write_point_cloud_csv(scene.cloud, out)
    boxes_out = (
        Path(args.boxes_out)
        if args.boxes_out
        else out.with_name(out.stem + "_boxes.csv")
    )
    write_boxes_csv(scene.boxes, boxes_out, frame_id=scene.cloud.frame_id)
    print(f"wrote {len(scene.cloud)} points to {out}", file=sys.stderr)
    return 0


def _cmd_corrupt(args) -> int:
    kind_key = args.kind.lower()
    if kind_key not in KIND_ALIASES:
        raise ConfigError(
            f"unknown corruption kind {args.kind!r}; choose from "
            f"{sorted(KIND_ALIASES)}"
        )
    kind = KIND_ALIASES[kind_key]
    try:
        cloud = read_point_cloud_csv(args.in_path)
        spec = spec_for_level(kind, args.level, args.seed)
        corrupted = apply_corruption(cloud, spec, bounds=default_grid())
    except (OSError, ValueError) as exc:
        # An unreadable or malformed --in file, a bad level, or one this cloud
        # cannot take, e.g. more points than it holds.
        raise ConfigError(str(exc)) from exc
    write_point_cloud_csv(corrupted, args.out)
    print(
        f"{kind.value} level={args.level:g}: {len(cloud)} -> {len(corrupted)} points",
        file=sys.stderr,
    )
    return 0


def _cmd_gen_manifest(args) -> int:
    try:
        rows = gen_manifest(args.count, args.clean_ratio, master_seed=args.seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    write_manifest_csv(rows, args.out)
    noisy = sum(1 for row in rows if row.group == "noisy")
    print(f"wrote {len(rows)} scenes ({noisy} noisy) to {args.out}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bench",
        description="Radar robustness benchmark: scenes, corruptions, sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a corruption sweep from a JSON config")
    run.add_argument("--config", required=True, help="sweep config JSON path")
    run.add_argument("--out-dir", required=True, help="output directory")
    run.add_argument("--jobs", type=int, default=1, help="parallel workers")
    run.add_argument(
        "--emit-heatmaps", action="store_true", help="write per-row BEV PGM heatmaps"
    )
    run.set_defaults(func=_cmd_run)

    gen = sub.add_parser("gen-scene", help="generate a synthetic scene CSV")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True, help="point-cloud CSV path")
    gen.add_argument("--boxes-out", help="box CSV path (default: <out>_boxes.csv)")
    gen.set_defaults(func=_cmd_gen_scene)

    corrupt = sub.add_parser("corrupt", help="corrupt a point-cloud CSV")
    corrupt.add_argument("--kind", required=True, help="c1..c4 or a kind name")
    corrupt.add_argument(
        "--level",
        type=float,
        required=True,
        help="sigma, or beam/point count for the removal kinds",
    )
    corrupt.add_argument("--seed", type=int, required=True)
    corrupt.add_argument("--in", dest="in_path", required=True, help="input CSV")
    corrupt.add_argument("--out", required=True, help="output CSV")
    corrupt.set_defaults(func=_cmd_corrupt)

    manifest = sub.add_parser(
        "gen-manifest", help="emit a clean/noisy dataset manifest"
    )
    manifest.add_argument("--clean-ratio", type=float, default=MANIFEST_CLEAN_RATIO)
    manifest.add_argument("--out", required=True)
    manifest.add_argument("--count", type=int, default=100)
    manifest.add_argument("--seed", type=int, default=0)
    manifest.set_defaults(func=_cmd_gen_manifest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses status 2 for usage problems; those are config errors.
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
