"""Tests of the benchmark's own arithmetic and correctness gate."""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
from spans import Recorder, Span, covered_ns, self_times_ns, summarize  # noqa: E402


class TestSelfTime:
    def test_children_are_subtracted_once_and_clipped(self):
        spans = [
            Span("parent", 0, 100, -1),
            Span("a", 10, 30, 0),
            Span("b", 20, 50, 0),  # overlaps a: the union covers 10..50
            Span("c", 90, 120, 0),  # only 90..100 lies inside the parent
            Span("grandchild", 12, 18, 1),
        ]
        assert self_times_ns(spans) == [100 - 40 - 10, 20 - 6, 30, 30, 6]

    def test_union_of_disjoint_and_nested_intervals(self):
        assert covered_ns(0, 10, []) == 0
        assert covered_ns(0, 10, [(1, 3), (2, 3), (5, 6)]) == 3
        assert covered_ns(0, 10, [(-5, 20)]) == 10

    def test_recorder_nesting_and_summary(self):
        rec = Recorder()
        for _ in range(3):
            with rec.span("outer"):
                with rec.span("inner"):
                    pass
        assert [s.parent for s in rec.spans] == [-1, 0, -1, 2, -1, 4]
        out = summarize(rec.spans, ("outer", "inner", "idle"), {"outer"}, {"inner"})
        assert out["outer.calls"] == 3 and out["idle.calls"] == 0
        inner = out["inner.total_ms"]
        assert out["outer.self_ms"] == pytest.approx(out["outer.total_ms"] - inner, abs=1e-9)
        assert "inner.self_ms" not in out and out["inner.p90_ms"] >= out["inner.p50_ms"]

    def test_patch_wraps_where_the_caller_looks_up_and_restores(self):
        import rcbench.bench as bench

        original = bench.metric_peak
        rec = Recorder()
        rec.patch("rcbench.bench", "metric_peak", "bench.metric_peak")
        try:
            assert bench.metric_peak([[1.0]], [[1.0]]) == (True, 0.0)
        finally:
            rec.unpatch()
        assert bench.metric_peak is original
        assert [s.name for s in rec.spans] == ["bench.metric_peak"]


class TestGate:
    @pytest.fixture
    def reference(self):
        return gate.read_report(HERE / "reference" / "sweep-default.csv")

    def keys(self, rows):
        return [tuple(r[c] for c in gate.KEY_COLUMNS) for r in rows]

    def test_reference_passes_itself(self, reference):
        assert gate.check_report(reference, self.keys(reference), 80, reference) == []

    @pytest.mark.parametrize(
        "column, perturb",
        [
            ("chamfer_m", lambda v: repr(float(v) * (1 + 1e-7))),
            ("points_out", lambda v: str(int(v) + 1)),
            ("peak_consistent", lambda v: "false" if v == "true" else "true"),
            ("snr_after", lambda v: "nan"),
            ("points_in", lambda v: "ERROR"),
        ],
    )
    def test_one_perturbed_row_counts_as_one_failure(self, reference, column, perturb):
        rows = [dict(r) for r in reference]
        rows[7][column] = perturb(rows[7][column])
        failures = gate.check_report(rows, self.keys(reference), 80, reference)
        assert len(failures) == 1 and failures[0].startswith("row 7:")

    def test_float_cells_tolerate_rounding(self, reference):
        rows = [dict(r) for r in reference]
        rows[3]["chamfer_m"] = repr(float(rows[3]["chamfer_m"]) * (1 + 1e-12))
        assert gate.check_report(rows, self.keys(reference), 80, reference) == []

    def test_invariants_hold_without_a_reference(self, reference):
        rows = [dict(r) for r in reference]
        rows[0]["peak_l2_cells"] = "-1.0"
        failures = gate.check_report(rows, self.keys(reference), 80)
        assert len(failures) == 1 and "peak_l2_cells" in failures[0]
        assert len(gate.check_report(reference, self.keys(reference), 81)) == len(reference)

    def test_missing_rows_are_failures(self, reference):
        failures = gate.check_report(reference[:-2], self.keys(reference), 80, reference)
        assert len(failures) == 3  # the key mismatch plus two missing rows


def test_per_layer_names_match_benchmark_json():
    import workloads

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = {m["name"] for m in spec["per_layer"]}
    layers = workloads.SWEEP_LAYERS + workloads.CAMERA_LAYERS
    spans = summarize([], layers, workloads.COMPOSITE, workloads.PERCENTILES)
    assert set(spans) <= listed
    assert {name for name, _ in workloads.CRITERION4} <= listed
    assert set(workloads.fusion_work(64, 128, 128, 8, 2)) <= listed
