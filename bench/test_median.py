#!/usr/bin/env python3
"""Self-test for median.py's statistics (stdlib unittest; no build needed).

Feeds canned perfbench/run.py output lines through the parser and checks
the medians, quartiles, median pairwise ratio, win counts, the gain-beyond-
IQR flag, the BENCHMARK.json bound flag and the one verdict built on them;
then the pair alternation, the --figures mode's figure list, build
commands, environment and wall-time summary, and the --trajectory refusal
on a tree with uncommitted changes.
"""

import io
import json
import os
import sys
import unittest
from unittest import mock

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import median  # noqa: E402


def run_line(solve_s, makespan, ratio=3.8, correct=True):
    """One canned run.py stdout: build chatter, then the JSON result."""
    doc = {"correct": correct, "attempted": 32, "failed": 0, "metrics": {
        "solve_s": {"value": solve_s, "unit": "s"},
        "makespan": {"value": makespan, "unit": "time"},
        "makespan_ratio_daghetmem": {"value": ratio, "unit": "ratio"},
    }}
    return "failed_frac 0 (0 of 32 attempted)\n" + json.dumps(doc) + "\n"


SPECS = median.end_to_end_specs({"end_to_end": [
    {"name": "solve_s", "better": "lower", "bound": 0.25},
    {"name": "makespan", "better": "lower", "bound": 0.15},
    {"name": "makespan_ratio_daghetmem", "better": "higher", "bound": 0.15},
    {"name": "setup_s", "better": "lower", "bound": 0.25},
]})


def runs(lines):
    return [median.metric_values(median.parse_run_output(t)) for t in lines]


class ParseTest(unittest.TestCase):
    def test_last_line_is_the_result(self):
        doc = median.parse_run_output(run_line(2.0, 10.0))
        self.assertTrue(doc["correct"])
        self.assertEqual(median.metric_values(doc)["solve_s"], 2.0)

    def test_empty_or_foreign_output_is_refused(self):
        with self.assertRaises(ValueError):
            median.parse_run_output("\n\n")
        with self.assertRaises(ValueError):
            median.parse_run_output('{"metrics": {}}')


class QuartileTest(unittest.TestCase):
    def test_odd_count(self):
        self.assertEqual(median.quartiles([5.0, 1.0, 3.0, 2.0, 4.0]),
                         (2.0, 3.0, 4.0))

    def test_even_count_interpolates(self):
        self.assertEqual(median.quartiles([1.0, 2.0, 3.0, 4.0]),
                         (1.75, 2.5, 3.25))

    def test_single_value(self):
        self.assertEqual(median.quartiles([7.0]), (7.0, 7.0, 7.0))


class SummaryTest(unittest.TestCase):
    def setUp(self):
        # Five pairs; the change halves solve_s except in pair 3, where the
        # host stalled it. Makespans are identical.
        base = [2.0, 2.4, 2.2, 2.0, 2.1]
        change = [1.0, 1.2, 2.3, 1.0, 1.05]
        self.summary = median.summarize_runs(
            runs(run_line(b, 100.0) for b in base),
            runs(run_line(c, 100.0) for c in change), SPECS)

    def test_only_metrics_both_sides_report(self):
        self.assertEqual(sorted(self.summary),
                         ["makespan", "makespan_ratio_daghetmem", "solve_s"])

    def test_medians_quartiles_ratio_and_wins(self):
        s = self.summary["solve_s"]
        self.assertEqual(s["base"], {"q1": 2.0, "median": 2.1, "q3": 2.2})
        self.assertEqual(s["change"], {"q1": 1.0, "median": 1.05, "q3": 1.2})
        # Ratios 0.5, 0.5, 1.045.., 0.5, 0.5: the stalled pair is outvoted.
        self.assertAlmostEqual(s["median_ratio"], 0.5)
        self.assertEqual((s["wins"], s["pairs"]), (4, 5))
        self.assertTrue(s["gain_beyond_base_iqr"])
        self.assertFalse(s["past_bound"])
        # 4 of 5 pairs is short of ceil(0.9 x 5) = 5: beyond the IQR alone
        # is no gain.
        self.assertEqual(s["verdict"], "-")

    def test_unchanged_metric_has_no_wins_and_no_gain(self):
        s = self.summary["makespan"]
        self.assertEqual(s["median_ratio"], 1.0)
        self.assertEqual(s["wins"], 0)
        self.assertFalse(s["gain_beyond_base_iqr"])
        self.assertFalse(s["past_bound"])
        self.assertEqual(s["verdict"], "-")

    def test_regression_past_bound_is_flagged(self):
        s = median.summarize([1.0, 1.0, 1.0], [1.3, 1.2, 1.3], "lower", 0.25)
        self.assertAlmostEqual(s["median_ratio"], 1.3)
        self.assertTrue(s["past_bound"])
        self.assertEqual(s["verdict"], "PAST-BOUND")
        inside = median.summarize([1.0, 1.0, 1.0], [1.2, 1.2, 1.2], "lower",
                                  0.25)
        self.assertFalse(inside["past_bound"])

    def test_higher_is_better_direction(self):
        s = median.summarize([4.0, 4.0, 4.0], [3.0, 5.0, 3.2], "higher", 0.15)
        self.assertEqual(s["wins"], 1)
        self.assertAlmostEqual(s["median_ratio"], 0.8)
        self.assertTrue(s["past_bound"])
        self.assertFalse(s["gain_beyond_base_iqr"])

    def test_gain_within_base_spread_is_not_clear(self):
        s = median.summarize([1.0, 2.0, 3.0], [1.5, 1.9, 2.5], "lower")
        self.assertEqual(s["wins"], 2)
        self.assertFalse(s["gain_beyond_base_iqr"])
        self.assertFalse(s["past_bound"])  # no bound: never flagged

    def test_wins_needed_is_ceil_of_nine_tenths(self):
        self.assertEqual([median.wins_needed(p) for p in (1, 5, 9, 10, 11, 20)],
                         [1, 5, 9, 9, 10, 18])

    def test_mismatched_pairs_are_refused(self):
        with self.assertRaises(ValueError):
            median.summarize([1.0], [1.0, 2.0], "lower")
        with self.assertRaises(ValueError):
            median.summarize([1.0], [1.0], "sideways")

    def test_table_shows_flags(self):
        table = median.format_table("merge-genome", 1, self.summary)
        self.assertIn("== merge-genome (seed 1) ==", table)
        solve = next(l for l in table.splitlines() if l.startswith("solve_s"))
        self.assertIn("4/5", solve)
        self.assertIn("gain>IQR", solve)
        self.assertNotIn("GAIN", solve)



class VerdictTest(unittest.TestCase):
    """GAIN needs both halves: enough wins and a gain beyond the base's IQR."""

    BASE = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]

    def test_both_halves_give_gain(self):
        change = [b * 0.8 for b in self.BASE]
        change[3] = 1.05  # one stalled pair: 9 of 10 still wins
        s = median.summarize(self.BASE, change, "lower", 0.25)
        self.assertEqual((s["wins"], s["pairs"]), (9, 10))
        self.assertTrue(s["gain_beyond_base_iqr"])
        self.assertEqual(s["verdict"], "GAIN")

    def test_enough_wins_within_the_iqr_is_no_gain(self):
        change = [b - 0.005 for b in self.BASE]  # wins every pair, by little
        s = median.summarize(self.BASE, change, "lower", 0.25)
        self.assertEqual(s["wins"], 10)
        self.assertFalse(s["gain_beyond_base_iqr"])
        self.assertEqual(s["verdict"], "-")

    def test_beyond_the_iqr_with_too_few_wins_is_no_gain(self):
        change = [b * 0.8 for b in self.BASE]
        change[3] = change[6] = 1.05  # two stalled pairs: 8 of 10
        s = median.summarize(self.BASE, change, "lower", 0.25)
        self.assertEqual(s["wins"], 8)
        self.assertTrue(s["gain_beyond_base_iqr"])
        self.assertEqual(s["verdict"], "-")

    def test_no_op_is_no_gain(self):
        # The same program twice: the host's drift decides each pair, and
        # over five runs the base's IQR can be narrower than that drift.
        base = [1.000, 1.001, 0.999, 1.000, 1.001]
        change = [0.968, 1.010, 0.970, 0.971, 0.969]
        s = median.summarize(base, change, "lower", 0.25)
        self.assertEqual(s["wins"], 4)
        self.assertTrue(s["gain_beyond_base_iqr"])
        self.assertEqual(s["verdict"], "-")
        same = median.summarize(base, list(base), "lower", 0.25)
        self.assertEqual((same["wins"], same["verdict"]), (0, "-"))

    def test_higher_is_better_gain(self):
        s = median.summarize([4.0] * 10, [5.0] * 10, "higher", 0.15)
        self.assertEqual(s["verdict"], "GAIN")

    def test_table_prints_the_verdict(self):
        change = [b * 0.8 for b in self.BASE]
        table = median.format_table(
            "swap-wide", 2,
            {"solve_s": median.summarize(self.BASE, change, "lower", 0.25)})
        solve = next(l for l in table.splitlines() if l.startswith("solve_s"))
        self.assertIn("10/10", solve)
        self.assertIn("GAIN", solve)
        self.assertIn("gain>IQR", solve)


class PairedRunsTest(unittest.TestCase):
    def test_warm_up_then_alternating_pairs(self):
        calls = []

        def run(root):
            calls.append(root)
            return f"{root}{len(calls)}"

        runs = median.paired_runs((("base", "b"), ("change", "c")), 3, run)
        # One warm-up of each side, then base first on even pairs.
        self.assertEqual(calls, ["b", "c", "b", "c", "c", "b", "b", "c"])
        self.assertEqual(runs, {"base": ["b3", "b6", "b7"],
                                "change": ["c4", "c5", "c8"]})


class FiguresTest(unittest.TestCase):
    """The --figures mode: paper_figures wall time at default scale."""

    def test_figure_list(self):
        self.assertEqual(median.parse_figures("fig03_left_default_cluster,"
                                              "table04_runtimes"),
                         ["fig03_left_default_cluster", "table04_runtimes"])
        self.assertEqual(median.parse_figures(",a,,"), ["a"])
        for empty in ("", ","):
            with self.assertRaises(ValueError):
                median.parse_figures(empty)

    def test_default_scale_environment(self):
        env = median.default_scale_env({
            "DAGPM_QUICK": "1", "DAGPM_FULL": "1", "DAGPM_SEEDS": "3",
            "DAGPM_SWEEP": "full", "DAGPM_JSON_OUT": "out",
            "DAGPM_CSV": "out", "DAGPM_STATS": "1", "DAGPM_TRACE": "t.json",
            "OMP_NUM_THREADS": "4", "PATH": "/bin"})
        self.assertEqual(env, {"OMP_NUM_THREADS": "4", "PATH": "/bin"})

    def test_both_sides_are_built_alike(self):
        # Same configure and build arguments, each in a build directory of
        # its own root, so a stale <root>/build cannot make them differ.
        base = median.figures_build("/base", 4)
        change = median.figures_build("/change", 4)
        self.assertEqual(base[0], "/base/.bench_build/paper_figures")
        self.assertEqual(repr(base).replace("/base", "/change"),
                         repr(change))
        self.assertIn("-DCMAKE_BUILD_TYPE=Release", base[1])
        self.assertEqual(base[2][-2:], ["--target", "paper_figures"])

    def test_wall_time_has_one_metric_and_no_bound(self):
        slower = median.summarize_walls([10.0, 10.2, 9.9], [20.0, 21.0, 19.5])
        self.assertEqual(list(slower), ["wall_s"])
        s = slower["wall_s"]
        self.assertAlmostEqual(s["median_ratio"], 2.0)
        self.assertIsNone(s["bound"])
        self.assertFalse(s["past_bound"])
        self.assertEqual(s["verdict"], "-")

    def test_wall_time_verdicts(self):
        base = VerdictTest.BASE
        faster = median.summarize_walls(base, [b * 0.8 for b in base])
        self.assertEqual(faster["wall_s"]["verdict"], "GAIN")
        noop = median.summarize_walls(base, list(reversed(base)))
        self.assertEqual(noop["wall_s"]["verdict"], "-")

    def test_table_without_a_seed(self):
        summary = median.summarize_walls([10.0, 10.0], [9.0, 9.5])
        table = median.format_table("paper_figures a,b", None, summary)
        self.assertIn("== paper_figures a,b ==", table)
        self.assertNotIn("seed", table)
        wall = next(l for l in table.splitlines() if l.startswith("wall_s"))
        self.assertIn("2/2", wall)



class TrajectoryTest(unittest.TestCase):
    def test_clean_tree_may_record(self):
        self.assertIsNone(median.trajectory_refusal(""))
        self.assertIsNone(median.trajectory_refusal("\n"))

    def test_dirty_tree_is_refused(self):
        for porcelain in (" M src/service/service.cpp\n",
                          "?? src/service/new.cpp\n"):
            refusal = median.trajectory_refusal(porcelain)
            self.assertIn("commit", refusal.lower())
            self.assertIn("--base <parent>", refusal)

    def test_main_refuses_before_running_anything(self):
        def git(*args, **kwargs):
            self.assertEqual(args, ("status", "--porcelain"))
            return " M src/service/service.cpp"

        def checkout_base(rev):
            raise AssertionError("checkout_base ran on a dirty tree")

        argv = ["median.py", "--base", "HEAD", "--trajectory", "t.jsonl"]
        with mock.patch.object(median, "git", git), \
                mock.patch.object(median, "checkout_base", checkout_base), \
                mock.patch.object(sys, "argv", argv), \
                mock.patch("sys.stderr", new_callable=io.StringIO) as err:
            with self.assertRaises(SystemExit) as exit_:
                median.main()
        self.assertEqual(exit_.exception.code, 2)
        self.assertIn("--base <parent>", err.getvalue())

if __name__ == "__main__":
    unittest.main()
