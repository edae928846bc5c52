#!/usr/bin/env python3
"""Self-test of compare.py on crafted run sets.

Run from benchmark/:  python3 -m unittest -v test_compare
"""

import contextlib
import io
import json
import os
import tempfile
import unittest

import compare

SPEC = {
    "workloads": [{"name": "w", "why": "fixture"}],
    "end_to_end": [
        {"name": "ids_per_s", "unit": "ids/s", "better": "higher",
         "bound": 0.1},
        {"name": "step_p50_us", "unit": "us", "better": "lower",
         "bound": 0.1},
    ],
}


def line(ids_per_s, p50, failed=0):
    return {"correct": failed == 0, "attempted": 10, "failed": failed,
            "metrics": {"ids_per_s": {"value": ids_per_s, "unit": "ids/s"},
                        "step_p50_us": {"value": p50, "unit": "us"}}}


class VerdictTest(unittest.TestCase):
    def test_quartiles_match_statistics_module(self):
        self.assertEqual(compare.quartiles([1, 2, 3, 4, 5]), (1.5, 3.0, 4.5))
        self.assertEqual(compare.quartiles([7]), (7, 7, 7))

    def test_identical_runs_are_unchanged(self):
        runs = [100.0, 101.0, 99.0, 100.5, 100.2, 99.8, 100.1, 99.9, 100.3,
                100.0]
        self.assertEqual(compare.verdict(runs, runs, "higher", 0.1),
                         "unchanged")

    def test_consistent_large_gain_is_improved(self):
        parent = [100.0 + 0.1 * i for i in range(10)]
        change = [120.0 + 0.1 * i for i in range(10)]
        self.assertEqual(compare.verdict(parent, change, "higher", 0.1),
                         "improved")
        # Lower-is-better: the same numbers read the other way are worse.
        self.assertEqual(compare.verdict(parent, change, "lower", 0.1),
                         "worse")

    def test_gain_needs_nine_tenths_of_pairs(self):
        parent = [100.0] * 10
        change = [110.0] * 8 + [90.0] * 2  # wins 8 of 10
        self.assertEqual(compare.win_fraction(parent, change, "higher"), 0.8)
        self.assertEqual(compare.verdict(parent, change, "higher", 0.1),
                         "unchanged")

    def test_ties_count_for_neither_side(self):
        parent = [100.0] * 10
        change = [100.0] * 9 + [101.0]
        self.assertEqual(compare.win_fraction(parent, change, "higher"), 0.1)

    def test_gain_within_parent_spread_is_not_improved(self):
        parent = [90.0, 110.0] * 5  # quartile spread 20
        change = [p + 5.0 for p in parent]  # wins every pair by 5
        self.assertEqual(compare.verdict(parent, change, "higher", 0.5),
                         "unchanged")

    def test_worsening_beyond_bound_is_worse(self):
        parent = [100.0 + 0.1 * i for i in range(10)]
        change = [85.0 + 0.1 * i for i in range(10)]
        self.assertEqual(compare.verdict(parent, change, "higher", 0.1),
                         "worse")
        # Within the bound it is unchanged.
        change = [95.0 + 0.1 * i for i in range(10)]
        self.assertEqual(compare.verdict(parent, change, "higher", 0.1),
                         "unchanged")

    def test_spread_wider_than_bound_is_unresolved(self):
        parent = [80.0, 120.0] * 5  # spread 40% of the median
        change = [70.0, 110.0] * 5
        self.assertEqual(compare.verdict(parent, change, "higher", 0.1),
                         "unresolved")

    def test_wide_spread_but_every_change_run_better_is_not_unresolved(self):
        parent = [80.0, 120.0] * 5
        change = [121.0, 125.0] * 5
        self.assertIn(compare.verdict(parent, change, "higher", 0.1),
                      ("improved", "unchanged"))
        self.assertNotEqual(compare.verdict(parent, change, "higher", 0.1),
                            "unresolved")

    def test_exact_metric_worse_in_one_pair_is_worse(self):
        parent = [0.20 + 0.0001 * i for i in range(10)]
        change = list(parent)
        change[3] += 1e-9  # one seed reads more polluted
        self.assertEqual(compare.exact_verdict(parent, change, "lower"),
                         "worse")
        # The bound-based verdict would let it pass.
        self.assertEqual(compare.verdict(parent, change, "lower", 0.1),
                         "unchanged")

    def test_exact_metric_equal_or_better_is_not_worse(self):
        parent = [0.20 + 0.01 * i for i in range(10)]
        self.assertEqual(compare.exact_verdict(parent, parent, "lower"),
                         "unchanged")
        better = [p - 0.01 for p in parent]
        self.assertEqual(compare.exact_verdict(parent, better, "lower"),
                         "improved")
        self.assertEqual(compare.exact_verdict(parent, parent, "lower", 1),
                         "worse")

    def test_more_failures_than_parent_is_worse(self):
        runs = [100.0] * 10
        self.assertEqual(
            compare.verdict(runs, [200.0] * 10, "higher", 0.1, 1), "worse")


class PairsTest(unittest.TestCase):
    def test_pairs_alternate_which_side_runs_first(self):
        calls = []

        def run(side, workload, seed):
            calls.append((side, workload, seed))
            return line(1.0, 1.0)

        runs = compare.collect(["w"], 4, 50, run)
        self.assertEqual([c[0] for c in calls],
                         ["parent", "change", "change", "parent"] * 2)
        self.assertEqual([c[2] for c in calls], [50, 50, 51, 51, 52, 52, 53,
                                                 53])
        self.assertEqual(len(runs["w"]["parent"]), 4)

    def test_saved_runs_round_trip_through_main(self):
        runs = {"w": {"parent": [line(100.0 + i, 50.0) for i in range(10)],
                      "change": [line(100.0 + i, 60.0) for i in range(10)]}}
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "runs.json")
            with open(path, "w", encoding="utf-8") as f:
                json.dump({"spec": SPEC, "runs": runs}, f)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = compare.main(["--runs", path])
        self.assertEqual(code, 1)  # step_p50_us worsened by 20%
        report = out.getvalue()
        self.assertRegex(report, r"w\s+ids_per_s .* unchanged")
        self.assertRegex(report, r"w\s+step_p50_us .* worse")

    def test_output_pollution_is_judged_pair_by_pair(self):
        spec = {"end_to_end": SPEC["end_to_end"] + [
            {"name": "output_pollution", "unit": "fraction",
             "better": "lower", "bound": 0.1}]}

        def with_pollution(pollution):
            r = line(100.0, 50.0)
            r["metrics"]["output_pollution"] = {"value": pollution,
                                                "unit": "fraction"}
            return r

        parent = [with_pollution(0.3 + 0.001 * i) for i in range(10)]
        change = [with_pollution(0.3 + 0.001 * i) for i in range(10)]
        change[0]["metrics"]["output_pollution"]["value"] += 0.0005
        rows = compare.analyse(spec, {"w": {"parent": parent,
                                            "change": change}})
        verdicts = {r[1]: r[5] for r in rows}
        self.assertEqual(verdicts["output_pollution"], "worse")
        self.assertEqual(verdicts["ids_per_s"], "unchanged")

    def test_unpaired_runs_are_bad_input(self):
        runs = {"w": {"parent": [line(1.0, 1.0)], "change": []}}
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "runs.json")
            with open(path, "w", encoding="utf-8") as f:
                json.dump({"spec": SPEC, "runs": runs}, f)
            with contextlib.redirect_stderr(io.StringIO()):
                self.assertEqual(compare.main(["--runs", path]), 2)


if __name__ == "__main__":
    unittest.main()
