#!/usr/bin/env python3
"""Self-test for compare_bench_json.py (stdlib unittest; wired into ctest).

Exercises the checker the way CI uses it — as a subprocess over fixture
documents — covering: identical documents, an added row (allowed, noted),
a removed row (regression), a drifted non-timing column (regression),
wildly drifted timing columns (ignored), meta/bench mismatches, duplicate
row keys, malformed input and missing files (usage errors).
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

CHECKER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "compare_bench_json.py")

BASE_DOC = {
    "schema_version": 1,
    "bench": "demo_bench",
    "meta": {"scale": "quick", "seeds": "1", "sweep": "doubling"},
    "rows": [
        {
            "config": "sigma0.2",
            "scheduler": "part",
            "geomean_makespan": 123.25,
            "mean_seconds": 0.5,
            "geomean_runtime_ratio": 1.5,
            "peak_rss_mb": 512.0,
        },
        {
            "config": "sigma0.2",
            "scheduler": "mem",
            "geomean_makespan": 150.0,
            "mean_seconds": 0.25,
        },
    ],
    "overall": {"geomean_makespan": 136.0, "mean_seconds": 0.75},
    "stats": {
        "merge.probes": 420.0,
        "span.daghetpart.total_calls": 8.0,
        "span.daghetpart.total_seconds": 1.25,
    },
}


def run_checker(baseline, current, *args):
    """Writes both documents to temp files and runs the checker on them."""
    with tempfile.TemporaryDirectory() as tmp:
        base_path = os.path.join(tmp, "baseline.json")
        cur_path = os.path.join(tmp, "current.json")
        for path, doc in ((base_path, baseline), (cur_path, current)):
            with open(path, "w") as f:
                if isinstance(doc, str):
                    f.write(doc)
                else:
                    json.dump(doc, f)
        return subprocess.run(
            [sys.executable, CHECKER, base_path, cur_path, *args],
            capture_output=True, text=True)


class CompareBenchJsonTest(unittest.TestCase):
    def test_identical_documents_pass(self):
        result = run_checker(BASE_DOC, BASE_DOC)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("ok:", result.stdout)

    def test_added_row_is_allowed_but_noted(self):
        current = copy.deepcopy(BASE_DOC)
        current["rows"].append({"config": "sigma0.4", "scheduler": "part",
                                "geomean_makespan": 200.0})
        result = run_checker(BASE_DOC, current)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("new row", result.stdout)

    def test_removed_row_is_a_regression(self):
        current = copy.deepcopy(BASE_DOC)
        del current["rows"][1]
        result = run_checker(BASE_DOC, current)
        self.assertEqual(result.returncode, 1)
        self.assertIn("missing in current", result.stdout)

    def test_drifted_non_timing_column_is_a_regression(self):
        current = copy.deepcopy(BASE_DOC)
        current["rows"][0]["geomean_makespan"] *= 1.01  # way past rtol
        result = run_checker(BASE_DOC, current)
        self.assertEqual(result.returncode, 1)
        self.assertIn("geomean_makespan", result.stdout)

    def test_drift_within_tolerance_passes(self):
        current = copy.deepcopy(BASE_DOC)
        current["rows"][0]["geomean_makespan"] *= 1.0 + 1e-9
        result = run_checker(BASE_DOC, current, "--rtol", "1e-6")
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_timing_columns_are_ignored(self):
        current = copy.deepcopy(BASE_DOC)
        current["rows"][0]["mean_seconds"] = 9999.0
        current["rows"][0]["geomean_runtime_ratio"] = 42.0
        current["overall"]["mean_seconds"] = 1234.0
        result = run_checker(BASE_DOC, current)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_rss_columns_are_ignored(self):
        # Peak RSS is machine-dependent (allocator, page size, ASLR), so a
        # drifted *_rss_mb column must never gate.
        current = copy.deepcopy(BASE_DOC)
        current["rows"][0]["peak_rss_mb"] = 99999.0
        result = run_checker(BASE_DOC, current)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_nodes_visited_drift_is_a_regression(self):
        # Search-effort counters (optimality_gap's bnb_nodes_visited) are
        # deterministic proof sizes, not timing noise: drift must gate.
        baseline = copy.deepcopy(BASE_DOC)
        baseline["rows"][0]["bnb_nodes_visited"] = 16.0
        current = copy.deepcopy(baseline)
        current["rows"][0]["bnb_nodes_visited"] = 17.0
        result = run_checker(baseline, current)
        self.assertEqual(result.returncode, 1)
        self.assertIn("bnb_nodes_visited", result.stdout)

    def test_nodes_visited_stable_with_drifted_seconds_passes(self):
        # The companion *_seconds column on the same row stays machine noise
        # even when a gated search counter sits next to it.
        baseline = copy.deepcopy(BASE_DOC)
        baseline["rows"][0]["bnb_nodes_visited"] = 16.0
        baseline["rows"][0]["bnb_seconds"] = 0.01
        current = copy.deepcopy(baseline)
        current["rows"][0]["bnb_seconds"] = 9999.0
        result = run_checker(baseline, current)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_fault_tally_columns_match_exactly(self):
        # Fault tallies count discrete injected events; they gate at zero
        # tolerance no matter how generous --rtol is.
        baseline = copy.deepcopy(BASE_DOC)
        baseline["rows"][0]["total_fail_stops"] = 40.0
        baseline["rows"][0]["total_crashes"] = 12.0
        baseline["rows"][0]["total_tasks_killed"] = 31.0
        baseline["rows"][0]["total_retries"] = 3.0
        current = copy.deepcopy(baseline)
        current["rows"][0]["total_fail_stops"] = 41.0
        result = run_checker(baseline, current, "--rtol", "0.5")
        self.assertEqual(result.returncode, 1)
        self.assertIn("total_fail_stops", result.stdout)
        self.assertIn("exact-match", result.stdout)

    def test_identical_fault_tallies_pass(self):
        baseline = copy.deepcopy(BASE_DOC)
        baseline["rows"][0]["total_fail_stops"] = 40.0
        baseline["rows"][0]["total_tasks_killed"] = 31.0
        result = run_checker(baseline, copy.deepcopy(baseline))
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_stats_counter_drift_is_a_regression(self):
        current = copy.deepcopy(BASE_DOC)
        current["stats"]["merge.probes"] = 421.0
        result = run_checker(BASE_DOC, current)
        self.assertEqual(result.returncode, 1)
        self.assertIn("stats.merge.probes", result.stdout)

    def test_stats_timing_fields_are_ignored(self):
        current = copy.deepcopy(BASE_DOC)
        current["stats"]["span.daghetpart.total_seconds"] = 9999.0
        result = run_checker(BASE_DOC, current)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_stats_only_compared_when_in_both_documents(self):
        # Baselines recorded before the stats export existed must keep
        # certifying newer runs (and vice versa) without edits.
        old_baseline = copy.deepcopy(BASE_DOC)
        del old_baseline["stats"]
        result = run_checker(old_baseline, BASE_DOC)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        result = run_checker(BASE_DOC, old_baseline)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_overall_drift_is_a_regression(self):
        current = copy.deepcopy(BASE_DOC)
        current["overall"]["geomean_makespan"] *= 2.0
        result = run_checker(BASE_DOC, current)
        self.assertEqual(result.returncode, 1)
        self.assertIn("overall", result.stdout)

    def test_missing_column_is_a_regression(self):
        current = copy.deepcopy(BASE_DOC)
        del current["rows"][0]["geomean_makespan"]
        result = run_checker(BASE_DOC, current)
        self.assertEqual(result.returncode, 1)
        self.assertIn("missing in current", result.stdout)

    def test_bench_name_mismatch_is_a_regression(self):
        current = copy.deepcopy(BASE_DOC)
        current["bench"] = "other_bench"
        result = run_checker(BASE_DOC, current)
        self.assertEqual(result.returncode, 1)
        self.assertIn("bench name mismatch", result.stdout)

    def test_meta_scale_mismatch_is_a_regression(self):
        current = copy.deepcopy(BASE_DOC)
        current["meta"]["scale"] = "full"
        result = run_checker(BASE_DOC, current)
        self.assertEqual(result.returncode, 1)
        self.assertIn("meta.scale mismatch", result.stdout)

    def test_duplicate_row_keys_are_a_usage_error(self):
        current = copy.deepcopy(BASE_DOC)
        current["rows"].append(copy.deepcopy(current["rows"][0]))
        result = run_checker(BASE_DOC, current)
        self.assertEqual(result.returncode, 2)
        self.assertIn("duplicate", result.stderr)

    def test_malformed_json_is_a_usage_error(self):
        result = run_checker(BASE_DOC, "{not json")
        self.assertEqual(result.returncode, 2)

    def test_missing_baseline_names_path_and_rerecord_command(self):
        # A missing baseline (fresh bench, renamed file) must produce a
        # one-line remedy, not a JSON traceback: the path that was looked
        # up and the re-record command.
        missing = os.path.join(tempfile.gettempdir(),
                               "BENCH_no_such_bench.quick.json")
        with tempfile.TemporaryDirectory() as tmp:
            cur_path = os.path.join(tmp, "current.json")
            with open(cur_path, "w") as f:
                json.dump(BASE_DOC, f)
            result = subprocess.run(
                [sys.executable, CHECKER, missing, cur_path],
                capture_output=True, text=True)
        self.assertEqual(result.returncode, 2)
        self.assertIn(missing, result.stderr)
        self.assertIn("record_baselines.sh", result.stderr)
        self.assertNotIn("Traceback", result.stderr)

    def test_missing_current_names_path(self):
        # A baseline with no produced document (the bench exporting it did
        # not run, or the document was renamed) fails by name.
        with tempfile.TemporaryDirectory() as tmp:
            base_path = os.path.join(tmp, "BENCH_demo_bench.quick.json")
            with open(base_path, "w") as f:
                json.dump(BASE_DOC, f)
            missing = os.path.join(tmp, "demo_bench.json")
            result = subprocess.run(
                [sys.executable, CHECKER, base_path, missing],
                capture_output=True, text=True)
        self.assertEqual(result.returncode, 2)
        self.assertIn(missing, result.stderr)
        self.assertNotIn("Traceback", result.stderr)

    def test_document_without_rows_is_a_usage_error(self):
        result = run_checker(BASE_DOC, {"bench": "demo_bench"})
        self.assertEqual(result.returncode, 2)
        self.assertIn("no 'rows' array", result.stderr)


if __name__ == "__main__":
    unittest.main()
