#!/usr/bin/env python3
"""Self-test for check_bench_regression.py.

Runs the checker as a subprocess on crafted good / regressed / drifted /
empty / malformed record fixtures and asserts the exit status and the
verdict lines for every path the CI jobs rely on:

  * clean comparison                        -> 0
  * timing regression, --timing=gate        -> 1
  * timing regression, --timing=report      -> 0 (printed, not gating)
  * checksum change (same work)             -> 1 even under --timing=report
  * baseline scenario missing from current  -> 1
  * empty current / baseline record set     -> 2
  * empty directory / unknown schema        -> 2
  * malformed --threshold, negative threshold, non-object JSON, record
    missing a required field                -> 2 (never a traceback's 1)
  * directory mode merging bench reports and figure sidecars -> 0

Registered with ctest as `bench_regression_checker_test` (label unit) so a
checker that stops failing when it should fails the tier-1 gate itself.
"""

import json
import os
import subprocess
import sys
import tempfile

CHECKER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "check_bench_regression.py")


def bench_report(scenarios, quick=False, seed=1):
    return {
        "schema": "unisamp-bench-v1",
        "quick": quick,
        "warmup": 1, "repeats": 3, "seed": seed,
        "scenarios": [{
            "name": name,
            "description": "fixture",
            "items": items,
            "checksum": checksum,
            "ns_per_op": {"min": median, "max": median, "median": median,
                          "mean": median, "stddev": stddev},
            "items_per_sec": 1e9 / median if median else 0.0,
            "samples_ns_per_op": [median] * 3,
        } for (name, items, checksum, median, stddev) in scenarios],
    }


def figure_sidecar(name, checksum, ns_per_op, quick=True, seed=1):
    return {
        "schema": "unisamp-figure-v1",
        "artefact": "Fixture",
        "scenario": name,
        "description": "fixture",
        "quick": quick,
        "seed": seed,
        "timing": {"items": 100, "ns_per_op": ns_per_op,
                   "items_per_sec": 1e9 / ns_per_op},
        "checksum": checksum,
        "columns": ["x"],
        "rows": [[1.0]],
    }


def write(tmp, name, doc):
    path = os.path.join(tmp, name)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(doc, f)
    return path


def run(*argv):
    proc = subprocess.run([sys.executable, CHECKER, *argv],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


failures = []


def check(label, expected_code, actual_code, output, *expect_in_output):
    problems = []
    if actual_code != expected_code:
        problems.append(f"exit {actual_code}, expected {expected_code}")
    for needle in expect_in_output:
        if needle not in output:
            problems.append(f"output lacks {needle!r}")
    if problems:
        failures.append(f"{label}: {'; '.join(problems)}\n--- output ---\n"
                        f"{output}")
        print(f"FAIL {label}")
    else:
        print(f"ok   {label}")


def main():
    with tempfile.TemporaryDirectory() as tmp:
        base = write(tmp, "base.json", bench_report([
            ("sketch/update", 1000, 42, 100.0, 1.0),
            ("sampler/kf", 2000, 43, 200.0, 1.0),
        ]))

        # Clean: identical current.
        cur = write(tmp, "clean.json", bench_report([
            ("sketch/update", 1000, 42, 101.0, 1.0),
            ("sampler/kf", 2000, 43, 199.0, 1.0),
        ]))
        code, out = run(base, cur)
        check("clean comparison", 0, code, out, "no regressions")

        # Timing regression: 2x slower, tiny noise.
        cur = write(tmp, "slow.json", bench_report([
            ("sketch/update", 1000, 42, 200.0, 0.1),
            ("sampler/kf", 2000, 43, 200.0, 1.0),
        ]))
        code, out = run(base, cur)
        check("regression gates by default", 1, code, out, "REGRESSION")
        code, out = run(base, cur, "--timing=report")
        check("regression reports under --timing=report", 0, code, out,
              "REGRESSION", "not gating")

        # Checksum change at identical work: fails in BOTH timing modes.
        cur = write(tmp, "drift.json", bench_report([
            ("sketch/update", 1000, 999, 100.0, 1.0),
            ("sampler/kf", 2000, 43, 200.0, 1.0),
        ]))
        code, out = run(base, cur)
        check("checksum drift fails", 1, code, out, "checksum changed")
        code, out = run(base, cur, "--timing=report")
        check("checksum drift fails under --timing=report", 1, code, out,
              "checksum changed")

        # A baseline scenario missing from the current run.
        cur = write(tmp, "partial.json", bench_report([
            ("sketch/update", 1000, 42, 100.0, 1.0),
        ]))
        code, out = run(base, cur)
        check("missing scenario fails", 1, code, out,
              "missing from current run")

        # Empty record sets are errors, never passes.
        empty = write(tmp, "empty.json", bench_report([]))
        code, out = run(base, empty)
        check("empty current errors", 2, code, out, "no scenario records")
        code, out = run(empty, cur)
        check("empty baseline errors", 2, code, out, "no scenario records")

        # Empty directory / unknown schema.
        os.makedirs(os.path.join(tmp, "hollow"))
        code, out = run(base, os.path.join(tmp, "hollow"))
        check("empty directory errors", 2, code, out, "no *.json reports")
        bogus = write(tmp, "bogus.json", {"schema": "not-a-schema"})
        code, out = run(base, bogus)
        check("unknown schema errors", 2, code, out, "unrecognized schema")

        # Bad input exits 2 with a message, never 1 (which means
        # "regression") through a Python traceback.
        code, out = run(base, cur, "--threshold=abc")
        check("malformed threshold errors", 2, code, out, "--threshold")
        code, out = run(base, cur, "--threshold=-0.1")
        check("negative threshold errors", 2, code, out, "--threshold")
        array = write(tmp, "array.json", [bench_report([])])
        code, out = run(base, array)
        check("non-object document errors", 2, code, out, "not a JSON object")
        for field in ("scenarios", "checksum", "ns_per_op"):
            doc = bench_report([("sketch/update", 1000, 42, 100.0, 1.0)])
            if field == "scenarios":
                del doc["scenarios"]
            else:
                del doc["scenarios"][0][field]
            lacking = write(tmp, f"lacks_{field}.json", doc)
            code, out = run(base, lacking)
            check(f"record missing {field} errors", 2, code, out,
                  "malformed record", field)

        # Directory mode: bench reports and figure sidecars merge; figure
        # checksums compare under the same-work rule.
        write(tmp, "ref/bench.json", bench_report([
            ("sketch/update", 1000, 42, 100.0, 1.0),
        ]))
        write(tmp, "ref/fig.json", figure_sidecar("fig/fixture", 7, 50.0))
        write(tmp, "cur/bench.json", bench_report([
            ("sketch/update", 1000, 42, 102.0, 1.0),
        ]))
        write(tmp, "cur/fig.json", figure_sidecar("fig/fixture", 7, 55.0))
        code, out = run(os.path.join(tmp, "ref"), os.path.join(tmp, "cur"))
        check("directory mode merges record kinds", 0, code, out,
              "fig/fixture")
        write(tmp, "cur/fig.json", figure_sidecar("fig/fixture", 8, 55.0))
        code, out = run(os.path.join(tmp, "ref"), os.path.join(tmp, "cur"),
                        "--timing=report")
        check("figure checksum drift fails in directory mode", 1, code, out,
              "checksum changed")

    if failures:
        print(f"\n{len(failures)} self-test failure(s):\n")
        print("\n\n".join(failures))
        return 1
    print("\ncheck_bench_regression.py self-test OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
