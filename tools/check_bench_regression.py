#!/usr/bin/env python3
"""Compare unisamp figure records against a committed reference.

Usage:
    check_bench_regression.py BASELINE CURRENT [--timing=gate|report]

BASELINE and CURRENT may each be:
  * a unisamp-figure-v1 sidecar (a bench/ binary's
    bench_results/<name>.json), or
  * a directory — every *.json inside is read as a sidecar and the
    records are merged into one scenario set (e.g. a whole bench_results/
    tree).

For every scenario present in both sides the ns/op is compared. A
scenario REGRESSES when it slows down by more than 30%. Checksums are
compared whenever both runs did identical work (same items, seed, and
quick flag) — a mismatch there means behaviour changed, not just speed.

`--timing=report` demotes timing regressions to a printed report that does
NOT affect the exit status; checksum changes and missing scenarios still
fail. That is the mode the figures-smoke CI gate runs in: shared-runner
timings are noise against the reference machine, but a checksum mismatch
is a behaviour change regardless of where it ran. The default
(`--timing=gate`) keeps regressions fatal.

Exit status: 0 = clean, 1 = at least one regression (timing=gate only),
checksum change, or baseline scenario missing from the current run,
2 = bad input: an unreadable or malformed record, an unknown schema, or
a directory with no records (a comparison that silently covered nothing
must never read as a pass).

Self-test: tools/check_bench_regression_test.py (ctest entry
`bench_regression_checker_test`) exercises every verdict and exit path on
crafted fixtures.
"""

import json
import os
import sys

# Slowdown fraction beyond which a scenario regresses.
THRESHOLD = 0.30


def bad_input(message):
    print(message, file=sys.stderr)
    sys.exit(2)


def scenario_entry(doc, path):
    """Normalizes one parsed figure sidecar into a scenario entry.

    Every entry carries its own seed/quick so documents from different
    runs (e.g. a directory of figure sidecars) can be merged safely.
    """
    schema = doc.get("schema")
    if schema != "unisamp-figure-v1":
        bad_input(f"error: {path} has unrecognized schema {schema!r} "
                  "(expected unisamp-figure-v1)")
    timing = doc["timing"]
    return {
        "name": doc["scenario"],
        "items": timing["items"],
        "checksum": doc["checksum"],
        "ns_per_op": timing["ns_per_op"],
        "seed": doc.get("seed"),
        "quick": doc.get("quick"),
    }


def load(path):
    """Loads a sidecar or a directory of them into scenario entries."""
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
    if not isinstance(doc, dict):
        bad_input(f"error: {path} is not a JSON object")
    try:
        return [scenario_entry(doc, path)]
    except (KeyError, TypeError) as e:
        bad_input(f"error: {path} has a malformed record "
                  f"({type(e).__name__}: {e})")


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    opts = [a for a in argv[1:] if a.startswith("--")]
    if len(args) != 2:
        bad_input(__doc__.strip())
    timing_gate = True
    for opt in opts:
        if opt.startswith("--timing="):
            mode = opt.split("=", 1)[1]
            if mode not in ("gate", "report"):
                bad_input(f"--timing must be gate or report, got {mode!r}")
            timing_gate = mode == "gate"
        else:
            bad_input(f"unknown option {opt}")

    baseline, current = load(args[0]), load(args[1])
    base_by_name = {s["name"]: s for s in baseline}

    regressions, behaviour_changes = [], []
    width = max(len(s["name"]) for s in current)
    print(f"{'scenario':<{width}}  {'base ns/op':>12}  {'cur ns/op':>12}  "
          f"{'delta':>8}  verdict")
    for cur in current:
        base = base_by_name.get(cur["name"])
        if base is None:
            print(f"{cur['name']:<{width}}  {'-':>12}  "
                  f"{cur['ns_per_op']:>12.1f}  {'-':>8}  NEW")
            continue
        b, c = base["ns_per_op"], cur["ns_per_op"]
        delta = (c - b) / b if b > 0 else 0.0
        if delta > THRESHOLD:
            verdict = "REGRESSION"
            regressions.append(cur["name"])
        elif delta < -THRESHOLD:
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

    # A baseline scenario missing from the current run fell out of
    # tracking (renamed/dropped without refreshing the reference) — fail.
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
              f"(threshold {THRESHOLD:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
