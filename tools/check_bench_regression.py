#!/usr/bin/env python3
"""Compare unisamp benchmark records against a committed baseline.

Usage:
    check_bench_regression.py BASELINE CURRENT [--threshold=0.30]
                              [--timing=gate|report]

BASELINE and CURRENT may each be:
  * a unisamp-bench-v1 report (tools/unisamp_bench output),
  * a unisamp-figure-v1 sidecar (a bench/ figure binary's
    bench_results/<name>.json), or
  * a directory — every readable *.json inside with one of those schemas
    is merged into one scenario set (e.g. a whole bench_results/ tree).

For every scenario present in both sides the median ns/op is compared.
A scenario REGRESSES when its median slows down by more than the threshold
AND more than the run-to-run noise recorded in the current report (3 sigma
of its per-repetition samples; figure sidecars record a single repetition,
so their noise term is zero).  Checksums are compared whenever both runs
did identical work (same items, seed, and quick flag) — a mismatch there
means behaviour changed, not just speed.

`--timing=report` demotes timing regressions to a printed report that does
NOT affect the exit status; checksum changes and missing scenarios still
fail.  That is the mode the figures-smoke CI gate runs in: shared-runner
timings are noise against the reference machine, but a checksum mismatch
is a behaviour change regardless of where it ran.  The default
(`--timing=gate`) keeps regressions fatal.

An EMPTY record set on either side is always an error (exit 2): a
comparison that silently covered nothing must never read as a pass.

Exit status: 0 = clean, 1 = at least one regression (timing=gate only),
checksum change, or baseline scenario missing from the current run,
2 = bad input or an empty record set.
The CI bench-smoke job runs this as a non-blocking report step: absolute
numbers from a shared runner are noisy against a baseline recorded on the
reference machine, so the verdict informs rather than gates.

Self-test: tools/check_bench_regression_test.py (ctest entry
`bench_regression_checker_test`) exercises every verdict and exit path on
crafted fixtures.
"""

import json
import os
import sys


def bad_input(message):
    print(message, file=sys.stderr)
    sys.exit(2)


def scenario_entries(doc, path):
    """Normalizes one parsed JSON document into scenario entries.

    Every entry carries its own seed/quick so documents from different
    runs (e.g. a directory of figure sidecars) can be merged safely.
    """
    schema = doc.get("schema")
    if schema == "unisamp-bench-v1":
        return [{
            "name": s["name"],
            "items": s["items"],
            "checksum": s["checksum"],
            "median": s["ns_per_op"]["median"],
            "stddev": s["ns_per_op"]["stddev"],
            "seed": doc.get("seed"),
            "quick": doc.get("quick"),
        } for s in doc["scenarios"]]
    if schema == "unisamp-figure-v1":
        timing = doc.get("timing", {})
        return [{
            "name": doc["scenario"],
            "items": timing.get("items"),
            "checksum": doc["checksum"],
            "median": timing.get("ns_per_op", 0.0),
            # One repetition: no repetition noise to widen the tolerance.
            "stddev": 0.0,
            "seed": doc.get("seed"),
            "quick": doc.get("quick"),
        }]
    bad_input(f"error: {path} has unrecognized schema {schema!r} "
              "(expected unisamp-bench-v1 or unisamp-figure-v1)")


def load(path):
    """Loads a report file or a directory of them into scenario entries."""
    if os.path.isdir(path):
        entries = []
        for name in sorted(os.listdir(path)):
            if name.endswith(".json"):
                entries.extend(load(os.path.join(path, name)))
        if not entries:
            bad_input(f"error: no *.json reports under {path}")
        return entries
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        bad_input(f"error: cannot read {path}: {e}")
    return scenario_entries(doc, path)


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    opts = [a for a in argv[1:] if a.startswith("--")]
    if len(args) != 2:
        bad_input(__doc__.strip())
    threshold = 0.30
    timing_gate = True
    for opt in opts:
        if opt.startswith("--threshold="):
            threshold = float(opt.split("=", 1)[1])
        elif opt.startswith("--timing="):
            mode = opt.split("=", 1)[1]
            if mode not in ("gate", "report"):
                bad_input(f"--timing must be gate or report, got {mode!r}")
            timing_gate = mode == "gate"
        else:
            bad_input(f"unknown option {opt}")

    baseline, current = load(args[0]), load(args[1])
    # A comparison over nothing must never pass: an empty side means the
    # producer broke (or the wrong path was given), not that all is well.
    if not baseline:
        bad_input(f"error: baseline {args[0]} contains no scenario records")
    if not current:
        bad_input(f"error: current {args[1]} contains no scenario records")
    base_by_name = {s["name"]: s for s in baseline}

    regressions, behaviour_changes = [], []
    width = max((len(s["name"]) for s in current), default=20)
    print(f"{'scenario':<{width}}  {'base ns/op':>12}  {'cur ns/op':>12}  "
          f"{'delta':>8}  verdict")
    for cur in current:
        base = base_by_name.get(cur["name"])
        if base is None:
            print(f"{cur['name']:<{width}}  {'-':>12}  "
                  f"{cur['median']:>12.1f}  {'-':>8}  NEW")
            continue
        b, c = base["median"], cur["median"]
        delta = (c - b) / b if b > 0 else 0.0
        # Tolerance: the configured threshold, widened to 3 sigma of the
        # current run when its repetitions are noisier than that.
        noise = 3 * cur["stddev"] / c if c > 0 else 0.0
        tolerance = max(threshold, noise)
        if delta > tolerance:
            verdict = "REGRESSION"
            regressions.append(cur["name"])
        elif delta < -threshold:
            verdict = "improved"
        else:
            verdict = "ok"
        # Same work = same seed, same quick flag, same item count; only
        # then is a checksum difference a behaviour change.
        same_work = (base["seed"] == cur["seed"]
                     and base["quick"] == cur["quick"]
                     and base["items"] == cur["items"])
        if same_work and base["checksum"] != cur["checksum"]:
            verdict += " (checksum changed)"
            behaviour_changes.append(cur["name"])
        print(f"{cur['name']:<{width}}  {b:>12.1f}  {c:>12.1f}  "
              f"{delta:>+7.1%}  {verdict}")

    # A filtered current run legitimately covers fewer scenarios; a FULL run
    # missing a baseline scenario means it silently fell out of perf
    # tracking (renamed/dropped without refreshing the baseline) — fail.
    missing = sorted(set(base_by_name) - {s["name"] for s in current})
    for name in missing:
        print(f"{name:<{width}}  {'(missing from current run)':>12}")

    if behaviour_changes:
        # Behaviour drift is strictly more alarming than a slowdown: same
        # work, same seed, different output.  It must fail the check too.
        print(f"\nbehaviour changed (checksum): {', '.join(behaviour_changes)}")
    if regressions:
        gate_note = "" if timing_gate else " [timing=report: not gating]"
        print(f"\n{len(regressions)} regression(s){gate_note}: "
              f"{', '.join(regressions)}")
    if missing:
        print(f"\n{len(missing)} scenario(s) missing from current run: "
              f"{', '.join(missing)}")
    if (regressions and timing_gate) or behaviour_changes or missing:
        return 1
    if not regressions:
        print("\nno regressions beyond tolerance "
              f"(threshold {threshold:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
