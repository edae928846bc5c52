#!/usr/bin/env python3
"""Compare two commits on the whole-run benchmark, in alternating pairs.

Usage:
    python3 benchmark/compare.py --parent DIR --change DIR [--pairs 10]
        [--seed 1000] [--seconds S] [--workload NAME ...] [--out RUNS.json]
    python3 benchmark/compare.py --runs RUNS.json

DIR is a checkout of each commit.  Pair i runs every workload once in each
checkout with seed `--seed + i`, the parent first in even pairs and the
change first in odd ones, so drift on the host falls on both sides alike.
Bounds and directions come from the parent's BENCHMARK.json: the change
defines nothing about how it is judged.  `--runs` re-analyses a file that
`--out` saved.

For every workload and end-to-end metric the report gives each side's
median and quartiles, the change's win fraction over the pairs (ties count
for neither side), and a verdict:
  improved    the change wins at least 9 of 10 pairs and its median beats
              the parent's by more than the parent's own quartile spread;
  unresolved  the parent's quartile spread, as a share of its median, is
              wider than the bound, and not every change run beats every
              parent run;
  worse       the change's median is worse than the parent's by more than
              the bound (share of the parent's median), or the change
              failed more checks than the parent;
  unchanged   otherwise.
Metrics in EXACT are deterministic for a seed, so they are judged pair by
pair instead: worse if the change reads worse than the parent in any pair,
improved if it reads better in at least 9 of 10 pairs, unchanged otherwise.

Exit status: 0 = no metric worse, 1 = at least one worse, 2 = bad input or
a run that could not complete.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

MIN_PAIRS = 10
WIN_SHARE = 0.9
# Deterministic for a seed: the same seed must not read worse at all.
EXACT = {"output_pollution"}


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def win_fraction(parent, change, better):
    """Share of pairs the change wins; ties count for neither side."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    return wins / len(parent)


def verdict(parent, change, better, bound, extra_failures=0):
    """One metric's verdict over paired runs (see the module docstring)."""
    if extra_failures > 0:
        return "worse"
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    gain = sign * (c_med - p_med)  # > 0 when the change reads better
    if win_fraction(parent, change, better) >= WIN_SHARE and gain > p_q3 - p_q1:
        return "improved"
    scale = abs(p_med)
    spread = (p_q3 - p_q1) / scale if scale > 0 else (
        0.0 if p_q3 == p_q1 else float("inf"))
    if spread > bound:
        every_run_better = (min(sign * c for c in change) >
                            max(sign * p for p in parent))
        return "unchanged" if every_run_better else "unresolved"
    worsening = -gain / scale if scale > 0 else (
        float("inf") if gain < 0 else 0.0)
    return "worse" if worsening > bound else "unchanged"


def exact_verdict(parent, change, better, extra_failures=0):
    """Verdict of a metric that is deterministic for a seed."""
    sign = 1.0 if better == "higher" else -1.0
    if extra_failures > 0 or any(sign * (c - p) < 0
                                 for p, c in zip(parent, change)):
        return "worse"
    if win_fraction(parent, change, better) >= WIN_SHARE:
        return "improved"
    return "unchanged"


def analyse(spec, runs):
    """Rows of (workload, metric, parent q, change q, win, verdict)."""
    rows = []
    for workload, sides in runs.items():
        parent, change = sides["parent"], sides["change"]
        if len(parent) != len(change) or not parent:
            raise ValueError(f"{workload}: unpaired runs")
        extra = (sum(r["failed"] for r in change) -
                 sum(r["failed"] for r in parent))
        for m in spec["end_to_end"]:
            p = [r["metrics"][m["name"]]["value"] for r in parent]
            c = [r["metrics"][m["name"]]["value"] for r in change]
            if m["name"] in EXACT:
                v = exact_verdict(p, c, m["better"], extra)
            else:
                v = verdict(p, c, m["better"], m["bound"], extra)
            rows.append((workload, m["name"], quartiles(p), quartiles(c),
                         win_fraction(p, c, m["better"]), v))
    return rows


def print_report(rows, pairs):
    print(f"{pairs} alternating pairs; medians [q1, q3]")
    print(f"{'workload':16} {'metric':18} {'parent':>32} {'change':>32} "
          f"{'win':>5}  verdict")
    for workload, metric, p, c, win, v in rows:
        ps = f"{p[1]:.5g} [{p[0]:.5g}, {p[2]:.5g}]"
        cs = f"{c[1]:.5g} [{c[0]:.5g}, {c[2]:.5g}]"
        print(f"{workload:16} {metric:18} {ps:>32} {cs:>32} {win:5.2f}  {v}")


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{checkout}: {workload} seed {seed} did not "
                           f"complete (exit {proc.returncode})")
    return json.loads(lines[-1])


def collect(workloads, pairs, seed, run):
    """Alternating pairs: run(side, workload, seed) -> result line."""
    runs = {w: {"parent": [], "change": []} for w in workloads}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for w in workloads:
            for side in order:
                runs[w][side].append(run(side, w, seed + i))
    return runs


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--parent")
    parser.add_argument("--change")
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--seed", type=int, default=1000)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out")
    parser.add_argument("--runs")
    args = parser.parse_args(argv)
    try:
        if args.runs:
            with open(args.runs, encoding="utf-8") as f:
                saved = json.load(f)
            spec, runs = saved["spec"], saved["runs"]
        else:
            if not (args.parent and args.change):
                parser.error("--parent and --change are required without --runs")
            if args.pairs < MIN_PAIRS:
                parser.error(f"--pairs must be at least {MIN_PAIRS}")
            with open(os.path.join(args.parent, "BENCHMARK.json"),
                      encoding="utf-8") as f:
                spec = json.load(f)
            workloads = args.workload or [w["name"] for w in spec["workloads"]]
            dirs = {"parent": args.parent, "change": args.change}
            runs = collect(workloads, args.pairs, args.seed,
                           lambda side, w, s: run_once(dirs[side], w, s,
                                                       args.seconds))
            if args.out:
                with open(args.out, "w", encoding="utf-8") as f:
                    json.dump({"spec": spec, "runs": runs}, f, indent=1)
        rows = analyse(spec, runs)
    except (OSError, ValueError, KeyError, RuntimeError) as e:
        print(f"compare: {e}", file=sys.stderr)
        return 2
    print_report(rows, len(next(iter(runs.values()))["parent"]))
    return 1 if any(r[5] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
