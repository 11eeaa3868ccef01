"""Acceptance suite.

Runs every acceptance criterion at its stated tolerance and prints one
pass/fail line per criterion (run with ``pytest -s`` to see the lines on
success; failures always show them).
"""

import json
import time

import numpy as np
import pytest

from rcbench.bench import (
    MANIFEST_CLEAN_RATIO,
    pipeline_bev,
    metric_peak,
    metric_snr,
    scripted_scene,
)
from rcbench.cli import main
from rcbench.core import (
    BoxAnnotation,
    PointCloud,
    Rng,
    default_grid,
    derive64,
    points_in_any_box_mask,
)
from rcbench.corruption import (
    CorruptionKind,
    CorruptionSpec,
    SIGMA_RANGE,
    SpuriousMode,
    apply_corruption,
    beam_azimuth_sector,
    beam_drop,
    key_point_missing,
    non_positional_disturbance,
    point_shift,
    spurious_points,
)
from rcbench.expansion import (
    ISOTROPIC_3D,
    LAMBDA_CHOICES,
    PLANAR_XY,
    build_kernel,
    expand,
    kernel_params,
    kernel_params_for_cloud,
    voxelize,
)
from rcbench.fusion import (
    CONFIDENCE_HIDDEN,
    DEFAULT_HEADS,
    DEFAULT_POINTS,
    ConfidenceMlpParams,
    LayerNormParams,
    aggregate_jvp,
    concat_mm_jvp,
    confidence_map_jvp,
    deform_cross_attention_jvp,
    fuse_bev_jvp,
    layer_norm_jvp,
    weight_features_jvp,
)
from rcbench.imaging import GAMMA_HEAVY_RANGE, GAMMA_MILD_RANGE

from test_fusion import (
    assert_kink_margin,
    kink_safe_fusion_params,
    rel_error,
)


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def random_cloud(n, seed, scale=20.0):
    gen = np.random.default_rng(seed)
    return PointCloud(data=gen.uniform(-scale, scale, size=(n, 5)))


# ---------------------------------------------------------------------------
# Criterion 1: corruption noise statistics at +/-2% over 1e5 points.
# ---------------------------------------------------------------------------


def test_criterion_1_corruption_statistics():
    started = time.perf_counter()
    n = 100_000
    grid = default_grid()
    base_row = np.array([[4.0, -3.0, 1.0, 7.5, 2.0]])
    identical = PointCloud(data=np.repeat(base_row, n, axis=0))
    cloud = random_cloud(n, seed=1)
    ok = True
    details = []
    for sigma in (1.0, 5.0, 10.0, 50.0):
        lo, hi = 0.98 * sigma, 1.02 * sigma
        shifted = point_shift(cloud, sigma, Rng(derive64(1, int(sigma))))
        shift_stds = (shifted.xyz - cloud.xyz).std(axis=0)
        spur = spurious_points(
            identical,
            SpuriousMode.POINT_RELATED,
            1.0,
            sigma,
            grid,
            Rng(derive64(2, int(sigma))),
        )
        spur_stds = (spur.data[n:] - base_row).std(axis=0)
        disturbed = non_positional_disturbance(cloud, sigma, Rng(derive64(3, int(sigma))))
        nonpos_stds = (disturbed.data[:, 3:5] - cloud.data[:, 3:5]).std(axis=0)
        for label, stds in (
            ("shift", shift_stds),
            ("spurious", spur_stds),
            ("non-positional", nonpos_stds),
        ):
            if not (np.all(stds >= lo) and np.all(stds <= hi)):
                ok = False
                details.append(f"{label}@sigma={sigma}: {stds}")
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 10.0
    _report(
        "criterion 1 corruption statistics",
        ok,
        details[0] if details else f"sigma bands +/-2%, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 2: exact count laws on 1000 random clouds.
# ---------------------------------------------------------------------------


def test_criterion_2_count_laws():
    gen = np.random.default_rng(42)
    grid = default_grid()
    box = BoxAnnotation(center=(0.0, 0.0, 0.0), size=(14.0, 14.0, 14.0), yaw=0.3)
    ok = True
    for case in range(1000):
        n = int(gen.integers(2, 120))
        cloud = random_cloud(n, seed=case)
        seed = derive64(4, case)

        k = int(gen.integers(1, n // 2 + 1))
        if len(key_point_missing(cloud, (), 0, k, Rng(seed))) != n - k:
            ok = False
            break

        in_box = int(points_in_any_box_mask(cloud.xyz, (box,)).sum())
        k_t = int(gen.integers(1, 9))
        removed = n - len(key_point_missing(cloud, (box,), 1, k_t, Rng(seed)))
        if removed != min(k_t, in_box):
            ok = False
            break

        ratio = float(gen.uniform(0.05, 1.0))
        m = max(1, round(ratio * n))
        if (
            len(
                spurious_points(
                    cloud, SpuriousMode.POINT_RELATED, ratio, 2.0, grid, Rng(seed)
                )
            )
            != n + m
        ):
            ok = False
            break

        if len(point_shift(cloud, 3.0, Rng(seed))) != n:
            ok = False
            break
        if len(non_positional_disturbance(cloud, 3.0, Rng(seed))) != n:
            ok = False
            break

        drop = int(gen.integers(0, 33))
        if drop == 0:
            # Dropping no beam is a bad count, not an identity.
            try:
                beam_drop(cloud, 32, drop, Rng(seed))
            except ValueError:
                continue
            ok = False
            break
        out = beam_drop(cloud, 32, drop, Rng(seed))
        sectors = beam_azimuth_sector(cloud.data[:, 0], cloud.data[:, 1], 32)
        kept_rows = set(map(tuple, out.data))
        removed_sectors = {
            int(s) for s, row in zip(sectors, cloud.data) if tuple(row) not in kept_rows
        }
        kept_sectors = {
            int(s) for s, row in zip(sectors, cloud.data) if tuple(row) in kept_rows
        }
        expected_removed = int(np.isin(sectors, sorted(removed_sectors)).sum())
        if (
            not removed_sectors.isdisjoint(kept_sectors)
            or len(removed_sectors) > drop
            or len(out) != n - expected_removed
        ):
            ok = False
            break
    _report("criterion 2 count laws", ok, f"1000 clouds, zero tolerance (case {case})")


# ---------------------------------------------------------------------------
# Criterion 3: kernel normalization, unit-kernel identity, conservation.
# ---------------------------------------------------------------------------


def test_criterion_3_kernel_suite():
    ok = True
    detail = "30 combos sum to 1 within 1e-12"
    for mode in (PLANAR_XY, ISOTROPIC_3D):
        for lam in LAMBDA_CHOICES:
            for sigma in (0.1, 0.5, 1.0, 5.0, 50.0):
                total = build_kernel(lam, sigma, mode).sum()
                if abs(total - 1.0) >= 1e-12:
                    ok = False
                    detail = f"kernel sum {total} at lam={lam} sigma={sigma} {mode}"

    gen = np.random.default_rng(7)
    from rcbench.core import GridSpec

    spec = GridSpec(x_range=(0, 16), y_range=(0, 16), z_range=(0, 16), cells=(16, 16, 16))
    data = np.column_stack(
        [gen.uniform(0, 16, size=(800, 3)), gen.uniform(-6, 6, size=(800, 2))]
    ).reshape(800, 5)
    cloud = PointCloud(data=data)
    vox = voxelize(cloud, spec)
    unit = expand(cloud, spec, kernel_params([1] * 800, 1.0), PLANAR_XY)
    if not (
        np.array_equal(vox.rcs, unit.rcs)
        and np.array_equal(vox.vel, unit.vel)
        and np.array_equal(vox.count, unit.count)
    ):
        ok = False
        detail = "unit-kernel expansion differs from voxelization"

    interior = np.column_stack(
        [gen.uniform(3.0, 13.0, size=(400, 3)), gen.uniform(-6, 6, size=(400, 2))]
    ).reshape(400, 5)
    interior_cloud = PointCloud(data=interior)
    params = kernel_params_for_cloud(interior_cloud)
    for mode in (PLANAR_XY, ISOTROPIC_3D):
        grid = expand(interior_cloud, spec, params, mode)
        if (
            abs(grid.rcs.sum() - interior_cloud.rcs.sum()) >= 1e-9
            or abs(grid.vel.sum() - interior_cloud.v.sum()) >= 1e-9
        ):
            ok = False
            detail = f"interior mass not conserved in {mode}"
    _report("criterion 3 kernel suite", ok, detail)


# ---------------------------------------------------------------------------
# Criterion 4: scaled peak-consistency and noise-suppression reproduction.
# The scripted scene is fixed; each replicate reseeds the corruption.
# ---------------------------------------------------------------------------

_C4_KINDS = {
    "spurious": CorruptionKind.SPURIOUS_POINTS,
    "point-shift": CorruptionKind.POINT_SHIFTING,
    "non-positional": CorruptionKind.NON_POSITIONAL_DISTURBANCE,
}


@pytest.fixture(scope="module")
def criterion4_runs():
    started = time.perf_counter()
    grid = default_grid()
    scene = scripted_scene(0)
    clean_bev = pipeline_bev(scene.cloud, grid, "3dge_planar")
    results = {}
    snr_pairs = []
    for label, kind in _C4_KINDS.items():
        kind_id = {v: i for i, v in enumerate(_C4_KINDS.values())}[kind]
        consistent = 0
        for rep in range(100):
            spec = CorruptionSpec(
                kind=kind, seed=derive64(scene.seed, kind_id, rep), sigma=5.0
            )
            corrupted = apply_corruption(
                scene.cloud, spec, boxes=scene.boxes, bounds=grid
            )
            processed = pipeline_bev(corrupted, grid, "3dge_planar")
            consistent += metric_peak(clean_bev, processed)[0]
            if kind is CorruptionKind.SPURIOUS_POINTS:
                raw = pipeline_bev(corrupted, grid, "raw")
                snr_pairs.append(
                    (
                        metric_snr(raw, scene.boxes, grid),
                        metric_snr(processed, scene.boxes, grid),
                    )
                )
        results[label] = consistent
    return results, snr_pairs, time.perf_counter() - started


@pytest.mark.parametrize("label", list(_C4_KINDS))
def test_criterion_4_peak_consistency(criterion4_runs, label):
    results, _, _ = criterion4_runs
    _report(
        f"criterion 4 peak consistency [{label} sigma=5]",
        results[label] >= 95,
        f"{results[label]}/100 replicates",
    )


def test_criterion_4_snr_improvement(criterion4_runs):
    _, snr_pairs, _ = criterion4_runs
    before = np.mean([p[0] for p in snr_pairs])
    after = np.mean([p[1] for p in snr_pairs])
    _report(
        "criterion 4 spurious SNR improvement",
        after >= before,
        f"mean before {before:.2f}, after {after:.2f}",
    )


def test_criterion_4_runtime(criterion4_runs):
    _, _, elapsed = criterion4_runs
    _report("criterion 4 runtime", elapsed < 30.0, f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 5: gradient finite-difference suite at C=8, H=W=5.
# ---------------------------------------------------------------------------


def test_criterion_5_gradient_suite():
    started = time.perf_counter()
    c, h, w = 8, 5, 5
    probes = 20
    gen = np.random.default_rng(55)
    params = kink_safe_fusion_params(c, seed=56, heads=DEFAULT_HEADS, points=DEFAULT_POINTS)
    fi = gen.normal(size=(c, h, w))
    fp = gen.normal(size=(c, h, w))
    m = gen.uniform(0.3, 0.7, size=(h, w))
    value = gen.normal(size=(2 * c, h, w))
    query, _ = aggregate_jvp(fi, np.zeros_like(fi), fp, np.zeros_like(fp), params)
    assert_kink_margin(query, params.attn_plain)
    assert_kink_margin(query, params.attn_weighted)

    worst = {}

    def check(name, analytic_fn, forward_fn, tol, shapes):
        errs = []
        for _ in range(probes):
            tangents = [gen.normal(size=s) for s in shapes]
            analytic = analytic_fn(*tangents)
            step = 1e-5
            hi = forward_fn(*[t * step for t in tangents])
            lo = forward_fn(*[-t * step for t in tangents])
            numeric = (hi - lo) / (2 * step)
            errs.append(rel_error(analytic, numeric))
        worst[name] = (max(errs), tol)

    zc = np.zeros((c, h, w))
    check(
        "layer_norm",
        lambda d: layer_norm_jvp(fi, d, params.ln_image)[1],
        lambda d: layer_norm_jvp(fi + d, zc, params.ln_image)[0],
        1e-4,
        [(c, h, w)],
    )
    check(
        "confidence_map",
        lambda d: confidence_map_jvp(fi, d, params.conf_mlp)[1],
        lambda d: confidence_map_jvp(fi + d, zc, params.conf_mlp)[0],
        1e-4,
        [(c, h, w)],
    )
    check(
        "weight_features",
        lambda d1, d2, dm: np.concatenate(
            [a.ravel() for a in weight_features_jvp(fi, d1, fp, d2, m, dm)[1]]
        ),
        lambda d1, d2, dm: np.concatenate(
            [
                a.ravel()
                for a in weight_features_jvp(
                    fi + d1, zc, fp + d2, zc, m + dm, np.zeros_like(m)
                )[0]
            ]
        ),
        1e-4,
        [(c, h, w), (c, h, w), (h, w)],
    )
    check(
        "aggregate",
        lambda d1, d2: aggregate_jvp(fi, d1, fp, d2, params)[1],
        lambda d1, d2: aggregate_jvp(fi + d1, zc, fp + d2, zc, params)[0],
        1e-4,
        [(c, h, w), (c, h, w)],
    )
    check(
        "concat_mm",
        lambda d1, d2: concat_mm_jvp(fi, d1, fp, d2, params)[1],
        lambda d1, d2: concat_mm_jvp(fi + d1, zc, fp + d2, zc, params)[0],
        1e-4,
        [(c, h, w), (c, h, w)],
    )
    zv = np.zeros_like(value)
    check(
        "deform_cross_attention",
        lambda dq, dv: deform_cross_attention_jvp(query, dq, value, dv, params.attn_plain)[1],
        lambda dq, dv: deform_cross_attention_jvp(
            query + dq, zc, value + dv, zv, params.attn_plain
        )[0],
        1e-3,
        [(c, h, w), (2 * c, h, w)],
    )
    check(
        "fuse_bev",
        lambda d1, d2: fuse_bev_jvp(fi, d1, fp, d2, params)[1],
        lambda d1, d2: fuse_bev_jvp(fi + d1, zc, fp + d2, zc, params)[0],
        1e-3,
        [(c, h, w), (c, h, w)],
    )

    elapsed = time.perf_counter() - started
    failures = {k: v for k, v in worst.items() if v[0] >= v[1]}
    ok = not failures and elapsed < 20.0
    detail = (
        f"worst rel err {max(v[0] for v in worst.values()):.2e}, {elapsed:.1f}s"
        if not failures
        else str(failures)
    )
    _report("criterion 5 gradient suite", ok, detail)


# ---------------------------------------------------------------------------
# Criterion 6: algebraic identities of the fusion core.
# ---------------------------------------------------------------------------


def test_criterion_6_algebraic_identities():
    gen = np.random.default_rng(66)
    ok = True
    details = []

    # Softmax complement sums to 1 within 1e-12.
    mlp = ConfidenceMlpParams(
        w1=gen.normal(size=(CONFIDENCE_HIDDEN, 6)),
        b1=gen.normal(size=CONFIDENCE_HIDDEN),
        w2=gen.normal(size=(2, CONFIDENCE_HIDDEN)),
        b2=gen.normal(size=2),
    )
    x = gen.normal(size=(6, 8, 8))
    m, _ = confidence_map_jvp(x, np.zeros_like(x), mlp)
    hidden = np.maximum(np.einsum("kc,chw->khw", mlp.w1, x) + mlp.b1[:, None, None], 0.0)
    logits = np.einsum("lk,khw->lhw", mlp.w2, hidden) + mlp.b2[:, None, None]
    exps = np.exp(logits - logits.max(axis=0))
    second = (exps / exps.sum(axis=0))[1]
    if np.max(np.abs(m + second - 1.0)) >= 1e-12 or not np.all((m > 0) & (m < 1)):
        ok = False
        details.append("softmax complement")

    # LN scale invariance within 1e-9 (variance dominates the epsilon).
    ln = LayerNormParams(scale=gen.normal(size=6), shift=gen.normal(size=6))
    f = 1e5 * gen.normal(size=(6, 6, 6))
    base, _ = layer_norm_jvp(f, np.zeros_like(f), ln)
    for a in (0.5, 2.0, 10.0):
        scaled, _ = layer_norm_jvp(a * f, np.zeros_like(f), ln)
        if np.max(np.abs(scaled - base)) >= 1e-9:
            ok = False
            details.append(f"LN scale invariance a={a}")

    # Constant-confidence neutrality of the weighted concatenation.
    params = kink_safe_fusion_params(6, seed=67)
    fi = 1e5 * gen.normal(size=(6, 5, 5))
    fp = 1e5 * gen.normal(size=(6, 5, 5))
    ln_i, _ = layer_norm_jvp(fi, np.zeros_like(fi), params.ln_weighted_image)
    ln_p, _ = layer_norm_jvp(fp, np.zeros_like(fp), params.ln_weighted_radar)
    unweighted = np.concatenate([ln_i, ln_p], axis=0)
    for const in (0.25, 0.5, 0.9):
        weighted, _ = concat_mm_jvp(
            const * fi,
            np.zeros_like(fi),
            (1.0 - const) * fp,
            np.zeros_like(fp),
            params,
        )
        if np.max(np.abs(weighted - unweighted)) >= 1e-9:
            ok = False
            details.append(f"constant-confidence neutrality c={const}")

    _report(
        "criterion 6 algebraic identities",
        ok,
        ", ".join(details) if details else "complement 1e-12, LN identities 1e-9",
    )


# ---------------------------------------------------------------------------
# Criterion 7: byte-identical CLI outputs, including with --jobs > 1.
# ---------------------------------------------------------------------------


def test_criterion_7_determinism(tmp_path):
    cfg = {
        "corruptions": [
            {"kind": "SpuriousPoints", "levels": [5]},
            {"kind": "BeamDrop", "levels": [10]},
        ],
        "pipelines": ["raw", "3dge_planar"],
        "replicates": 2,
        "master_seed": 31337,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))

    outputs = []
    for name, jobs in (("a", 1), ("b", 1), ("c", 2)):
        out_dir = tmp_path / name
        code = main(
            [
                "run",
                "--config",
                str(cfg_path),
                "--out-dir",
                str(out_dir),
                "--jobs",
                str(jobs),
                "--emit-heatmaps",
            ]
        )
        assert code == 0
        report = (out_dir / "report.csv").read_bytes()
        pgms = {
            p.name: p.read_bytes() for p in sorted((out_dir / "heatmaps").glob("*.pgm"))
        }
        outputs.append((report, pgms))

    ok = (
        outputs[0][0] == outputs[1][0] == outputs[2][0]
        and outputs[0][1] == outputs[1][1] == outputs[2][1]
        and len(outputs[0][1]) == 16
    )
    _report(
        "criterion 7 determinism",
        ok,
        f"{len(outputs[0][1])} heatmaps, report {len(outputs[0][0])} bytes, jobs 1 and 2",
    )


# ---------------------------------------------------------------------------
# Criterion 8: published-constant conformance.
# ---------------------------------------------------------------------------


def test_criterion_8_constant_conformance():
    grid = default_grid()
    checks = {
        "planar range": grid.x_range == (-51.2, 51.2) and grid.y_range == (-51.2, 51.2),
        "bev cells": grid.cells[:2] == (128, 128),
        "cell size": abs(grid.cell_sizes[0] - 0.8) < 1e-12,
        "attention defaults": (DEFAULT_HEADS, DEFAULT_POINTS) == (8, 2),
        "kernel sides": LAMBDA_CHOICES == (1, 3, 5),
        "severity sampler": SIGMA_RANGE == (1.0, 50.0),
        "gamma bands": GAMMA_MILD_RANGE == (1.0, 2.0) and GAMMA_HEAVY_RANGE == (2.0, 3.0),
        "manifest clean ratio": MANIFEST_CLEAN_RATIO == 0.8,
    }
    bad = [name for name, passed in checks.items() if not passed]
    _report(
        "criterion 8 constant conformance",
        not bad,
        ", ".join(bad) if bad else f"{len(checks)} constants",
    )
