#!/usr/bin/env python3
"""Unit tests for check_bench_trend.py.

Run directly (python3 scripts/test_check_bench_trend.py) or through
CTest (registered as test_check_bench_trend). The regression scenarios
drive the script as a subprocess, exactly as CI does; the zero-sample
guard is also covered at the function level.
"""

import json
import pathlib
import subprocess
import sys
import tempfile
import unittest

SCRIPT_DIR = pathlib.Path(__file__).resolve().parent
SCRIPT = SCRIPT_DIR / "check_bench_trend.py"
sys.path.insert(0, str(SCRIPT_DIR))

import check_bench_trend  # noqa: E402  (path set up above)


def run_gate(current, baseline, extra_args=()):
    """Write record sets to a temp tree and run the gate; returns
    (exit_code, stdout)."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = pathlib.Path(tmp)
        current_file = tmp_path / "current.json"
        current_file.write_text(json.dumps(current))
        baseline_dir = tmp_path / "baseline"
        baseline_dir.mkdir()
        if baseline is not None:
            (baseline_dir / "baseline.json").write_text(
                json.dumps(baseline))
        proc = subprocess.run(
            [sys.executable, str(SCRIPT), "--current", str(current_file),
             "--baseline-dir", str(baseline_dir), *extra_args],
            capture_output=True, text=True)
        return proc.returncode, proc.stdout + proc.stderr


class LoadRecordsTest(unittest.TestCase):
    def test_zero_samples_is_skipped_not_a_crash(self):
        # The regression this guards: a baseline artifact carrying a
        # metric with an empty sample list (a truncated sweep's flush)
        # must not crash the mean computation.
        self.assertIsNone(
            check_bench_trend.record_value(
                {"metric": "corpus.trojan_yield", "values": []}))

    def test_values_list_is_mean_aggregated(self):
        self.assertEqual(
            check_bench_trend.record_value(
                {"metric": "m", "values": [1.0, 2.0, 3.0]}), 2.0)

    def test_scalar_value_passes_through(self):
        self.assertEqual(
            check_bench_trend.record_value({"metric": "m", "value": 4.5}),
            4.5)


class GateTest(unittest.TestCase):
    def test_zero_sample_baseline_does_not_crash_the_gate(self):
        code, out = run_gate(
            current=[{"metric": "corpus.trojan_yield", "value": 10.0}],
            baseline=[{"metric": "corpus.trojan_yield", "values": []}])
        self.assertEqual(code, 0, out)
        self.assertIn("zero-sample", out)

    def test_regression_fails(self):
        code, out = run_gate(
            current=[{"metric": "corpus.trojan_yield", "value": 5.0}],
            baseline=[{"metric": "corpus.trojan_yield",
                       "values": [10.0, 10.0]}])
        self.assertEqual(code, 1, out)

    def test_regression_warn_only_passes(self):
        code, out = run_gate(
            current=[{"metric": "corpus.trojan_yield", "value": 5.0}],
            baseline=[{"metric": "corpus.trojan_yield", "value": 10.0}],
            extra_args=("--warn-only",))
        self.assertEqual(code, 0, out)
        self.assertIn("regressed", out)

    def test_small_drop_passes(self):
        code, out = run_gate(
            current=[{"metric": "corpus.trojan_yield", "value": 9.0}],
            baseline=[{"metric": "corpus.trojan_yield",
                       "value": 10.0}])
        self.assertEqual(code, 0, out)
        self.assertIn("-10.0%", out)

    def test_one_sided_metric_is_skipped(self):
        code, out = run_gate(
            current=[{"metric": "corpus.trojan_yield", "value": 5.0}],
            baseline=[{"metric": "corpus.queries_per_protocol",
                       "value": 10.0}])
        self.assertEqual(code, 0, out)
        self.assertIn("one-sided", out)

    def test_sweep_mismatch_is_skipped(self):
        # workers=8 only swept in the baseline: its regression must not
        # fire.
        code, out = run_gate(
            current=[
                {"metric": "parallel.swept/workers=1", "value": 1.0},
                {"metric": "parallel.speedup/workers=8", "value": 1.0}],
            baseline=[
                {"metric": "parallel.swept/workers=1", "value": 1.0},
                {"metric": "parallel.swept/workers=8", "value": 1.0},
                {"metric": "parallel.speedup/workers=8", "value": 8.0}])
        self.assertEqual(code, 0, out)
        self.assertIn("sweep mismatch", out)

    def test_missing_baseline_passes(self):
        code, out = run_gate(
            current=[{"metric": "corpus.trojan_yield", "value": 5.0}],
            baseline=None)
        self.assertEqual(code, 0, out)

    def test_baseline_with_removed_metrics_passes(self):
        # The first run after a bench or a bench column is deleted
        # compares against an artifact that still carries its metrics:
        # they are no longer watched, so they are neither compared nor
        # listed.
        code, out = run_gate(
            current=[{"metric": "corpus.trojan_yield", "value": 5.0}],
            baseline=[
                {"metric": "corpus.trojan_yield", "value": 5.0},
                {"metric": "warmstart.speedup", "value": 7.26},
                {"metric": "warmstart.query_reduction_pct", "value": 8.0},
                {"metric": "warmstart.corpus_query_reduction_pct",
                 "value": 28.0},
                {"metric": "parallel.cache_hit_rate/workers=4",
                 "value": 51.2}])
        self.assertEqual(code, 0, out)
        self.assertIn("corpus.trojan_yield", out)
        self.assertNotIn("warmstart", out)
        self.assertNotIn("cache_hit_rate", out)


class NestedRecordTest(unittest.TestCase):
    def test_nested_record_flattens_with_metric_prefix(self):
        # Drive through the file loader, as CI does.
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "r.json"
            path.write_text(json.dumps([
                {"metric": "metrics",
                 "nested": {"solver.queries": 53, "cache.hits": 8.5}},
                {"metric": "parallel.trojans", "value": 3.0}]))
            merged = check_bench_trend.load_records([path])
        self.assertEqual(merged["metrics.solver.queries"], 53.0)
        self.assertEqual(merged["metrics.cache.hits"], 8.5)
        self.assertEqual(merged["parallel.trojans"], 3.0)

    def test_malformed_nested_record_is_skipped(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "r.json"
            path.write_text(json.dumps([
                {"metric": "metrics", "nested": {"k": "not-a-number"}},
                {"metric": "ok", "value": 1.0}]))
            merged = check_bench_trend.load_records([path])
        self.assertEqual(merged, {"ok": 1.0})


class CorpusMetricsTest(unittest.TestCase):
    def test_yield_drop_fails(self):
        code, out = run_gate(
            current=[{"metric": "corpus.trojan_yield", "value": 2.0}],
            baseline=[{"metric": "corpus.trojan_yield", "value": 5.0}])
        self.assertEqual(code, 1, out)
        self.assertIn("corpus.trojan_yield", out)

    def test_queries_rise_fails_lower_is_better(self):
        # queries_per_protocol is lower-is-better: the inverted
        # comparison must fire on a rise, not a drop.
        code, out = run_gate(
            current=[{"metric": "corpus.queries_per_protocol",
                      "value": 150.0}],
            baseline=[{"metric": "corpus.queries_per_protocol",
                       "value": 100.0}])
        self.assertEqual(code, 1, out)
        self.assertIn("lower is better", out)

    def test_queries_drop_passes_lower_is_better(self):
        code, out = run_gate(
            current=[{"metric": "corpus.queries_per_protocol",
                      "value": 50.0}],
            baseline=[{"metric": "corpus.queries_per_protocol",
                       "value": 100.0}])
        self.assertEqual(code, 0, out)

    def test_per_family_metrics_are_watched(self):
        code, out = run_gate(
            current=[{"metric": "corpus.trojan_yield/synth/d2.f2.c75.v25",
                      "value": 1.0}],
            baseline=[{"metric": "corpus.trojan_yield/synth/d2.f2.c75.v25",
                       "value": 4.0}])
        self.assertEqual(code, 1, out)

    def test_corpus_metric_absent_from_baseline_is_warn_only(self):
        # A baseline artifact that predates bench_corpus (or a newly
        # added family) must not fail the gate.
        code, out = run_gate(
            current=[
                {"metric": "corpus.trojan_yield", "value": 2.0},
                {"metric": "corpus.queries_per_protocol", "value": 90.0}],
            baseline=[{"metric": "parallel.trojans", "value": 112.0}])
        self.assertEqual(code, 0, out)
        self.assertIn("one-sided", out)


class CeilingTest(unittest.TestCase):
    def test_overhead_within_ceiling_passes(self):
        code, out = run_gate(
            current=[{"metric": "obs.overhead_pct", "value": 2.5}],
            baseline=None)
        self.assertEqual(code, 0, out)

    def test_overhead_over_ceiling_fails_without_baseline(self):
        # The ceiling is absolute: it must hold even on a first run
        # with no baseline artifact to compare against.
        code, out = run_gate(
            current=[{"metric": "obs.overhead_pct", "value": 7.5}],
            baseline=None)
        self.assertEqual(code, 1, out)
        self.assertIn("ceiling", out)

    def test_overhead_over_ceiling_warn_only_passes(self):
        code, out = run_gate(
            current=[{"metric": "obs.overhead_pct", "value": 7.5}],
            baseline=None,
            extra_args=("--warn-only",))
        self.assertEqual(code, 0, out)
        self.assertIn("ceiling", out)

    def test_absent_overhead_metric_passes(self):
        self.assertEqual(
            check_bench_trend.ceiling_violations({"other": 100.0}), [])

    def test_violation_reports_metric_value_and_bound(self):
        violations = check_bench_trend.ceiling_violations(
            {"obs.overhead_pct": 6.0})
        self.assertEqual(violations, [("obs.overhead_pct", 6.0, 5.0)])


if __name__ == "__main__":
    unittest.main()
