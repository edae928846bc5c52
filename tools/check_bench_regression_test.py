#!/usr/bin/env python3
"""Self-test for check_bench_regression.py.

Runs the checker as a subprocess on crafted good / regressed / drifted /
empty / malformed figure-sidecar fixtures and asserts the exit status and
the verdict lines for every path the CI jobs rely on:

  * clean comparison (file or directory)    -> 0
  * timing regression, --timing=gate        -> 1
  * timing regression, --timing=report      -> 0 (printed, not gating)
  * checksum change (same work)             -> 1 even under --timing=report
  * checksum change at different work       -> 0 (not comparable)
  * baseline artefact missing from current  -> 1
  * empty directory / unknown schema        -> 2
  * non-object JSON, record missing a required field -> 2 (never a
    traceback's 1)

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


def figure_sidecar(name, checksum, ns_per_op, quick=True, seed=1, items=100):
    return {
        "schema": "unisamp-figure-v1",
        "artefact": "Fixture",
        "scenario": name,
        "description": "fixture",
        "quick": quick,
        "seed": seed,
        "timing": {"items": items, "ns_per_op": ns_per_op,
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


def write_tree(tmp, name, *sidecars):
    """Writes one directory holding each sidecar as <slug>.json."""
    for doc in sidecars:
        write(tmp, f"{name}/{doc['scenario'][4:]}.json", doc)
    return os.path.join(tmp, name)


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
        base = write_tree(tmp, "base",
                          figure_sidecar("fig/update", 42, 100.0),
                          figure_sidecar("fig/kf", 43, 200.0))

        # Clean: same checksums, timings within the threshold.
        cur = write_tree(tmp, "clean",
                         figure_sidecar("fig/update", 42, 101.0),
                         figure_sidecar("fig/kf", 43, 199.0))
        code, out = run(base, cur)
        check("clean comparison", 0, code, out, "no regressions")
        code, out = run(os.path.join(base, "kf.json"),
                        os.path.join(cur, "kf.json"))
        check("clean single-file comparison", 0, code, out, "no regressions")

        # Timing regression: 2x slower.
        cur = write_tree(tmp, "slow",
                         figure_sidecar("fig/update", 42, 200.0),
                         figure_sidecar("fig/kf", 43, 200.0))
        code, out = run(base, cur)
        check("regression gates by default", 1, code, out, "REGRESSION")
        code, out = run(base, cur, "--timing=report")
        check("regression reports under --timing=report", 0, code, out,
              "REGRESSION", "not gating")

        # Checksum change at identical work: fails in BOTH timing modes.
        cur = write_tree(tmp, "drift",
                         figure_sidecar("fig/update", 999, 100.0),
                         figure_sidecar("fig/kf", 43, 200.0))
        code, out = run(base, cur)
        check("checksum drift fails", 1, code, out, "checksum changed")
        code, out = run(base, cur, "--timing=report")
        check("checksum drift fails under --timing=report", 1, code, out,
              "checksum changed")

        # Different work (a full-budget record against a quick one): the
        # checksums are not comparable, so a difference is not drift.
        cur = write_tree(tmp, "full",
                         figure_sidecar("fig/update", 999, 100.0,
                                        quick=False, items=2000),
                         figure_sidecar("fig/kf", 43, 200.0))
        code, out = run(base, cur)
        check("checksum at different work is not compared", 0, code, out,
              "no regressions")

        # A baseline artefact missing from the current run.
        cur = write_tree(tmp, "partial",
                         figure_sidecar("fig/update", 42, 100.0))
        code, out = run(base, cur)
        check("missing artefact fails", 1, code, out,
              "missing from current run")

        # Empty directory / unknown schema.
        os.makedirs(os.path.join(tmp, "hollow"))
        code, out = run(base, os.path.join(tmp, "hollow"))
        check("empty directory errors", 2, code, out, "no *.json reports")
        bogus = write(tmp, "bogus.json", {"schema": "not-a-schema"})
        code, out = run(base, bogus)
        check("unknown schema errors", 2, code, out, "unrecognized schema")

        # Bad input exits 2 with a message, never 1 (which means
        # "regression") through a Python traceback.
        array = write(tmp, "array.json", [figure_sidecar("fig/kf", 43, 1.0)])
        code, out = run(base, array)
        check("non-object document errors", 2, code, out, "not a JSON object")
        for field in ("scenario", "checksum", "timing", "items", "ns_per_op"):
            doc = figure_sidecar("fig/kf", 43, 200.0)
            if field in doc:
                del doc[field]
            else:
                del doc["timing"][field]
            lacking = write(tmp, f"lacks_{field}.json", doc)
            code, out = run(base, lacking)
            check(f"record missing {field} errors", 2, code, out,
                  "malformed record", field)

    if failures:
        print(f"\n{len(failures)} self-test failure(s):\n")
        print("\n\n".join(failures))
        return 1
    print("\ncheck_bench_regression.py self-test OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
