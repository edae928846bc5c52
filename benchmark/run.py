#!/usr/bin/env python3
"""Whole-run benchmark of the unisamp library: build, self-test, run, verify.

Usage:
    python3 benchmark/run.py [--seed=N] [--seconds=S]
        Builds the benchmark, runs the self-test, runs all four workloads
        (one process each) and prints every end-to-end metric as
        `workload metric value unit` (timings in reference time, each
        followed by its wall-clock twin `wall.<metric>`; see README.md),
        then makes a traced run of each workload and prints its per-layer
        metrics.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
        One workload, one process.  The last line of stdout is one JSON
        object: {"correct", "attempted", "failed", "metrics"}.  --trace 0
        reports the end-to-end metrics of BENCHMARK.json, --trace 1 its
        per-layer metrics (from a separate traced run).

The build lives in benchmark/build (Release only; any other build type
there is refused), results and traces in benchmark/results.  Every run
clears UNISAMP_FORCE_SCALAR and UNISAMP_SHARDS and pins UNISAMP_THREADS=1.
Host facts (nproc, CPU model, cache sizes, compiler) go into the result
files in benchmark/results, never into the metrics.

Exit status: 0 = every check passed, 1 = a check, the self-test or the
pinned checksum failed, 2 = the benchmark could not run (no library
sources next to it, a failed build, bad arguments).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(BENCH_DIR, "build")
RESULTS_DIR = os.path.join(BENCH_DIR, "results")
BINARY = os.path.join(BUILD_DIR, "unisamp_benchmark")
WORKLOADS = ["service_ingest", "gossip_rounds", "gossip_event",
             "scenario_trials"]

# Seconds one workload process may take before it is killed; keeps a run
# inside the 180 s every invocation must end in.
RUN_TIMEOUT_S = 160
BUILD_TIMEOUT_S = 840


class BenchmarkError(Exception):
    """The benchmark could not run at all (exit 2, no result printed)."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_json(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchmarkError(f"cannot read {path}: {e}") from e


def clean_env():
    env = dict(os.environ)
    env.pop("UNISAMP_FORCE_SCALAR", None)
    env.pop("UNISAMP_SHARDS", None)
    env["UNISAMP_THREADS"] = "1"
    return env


def cached_build_type():
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if not os.path.exists(cache):
        return None
    with open(cache, encoding="utf-8", errors="replace") as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                return line.split("=", 1)[1].strip()
    return ""


def build(env):
    """Configures (once) and builds benchmark/build in Release."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise BenchmarkError(
                f"no library sources: {os.path.join(ROOT, needed)} is "
                "missing (run from a full checkout of the repository)")
    if shutil.which("cmake") is None:
        raise BenchmarkError("cmake not found")
    build_type = cached_build_type()
    if build_type is not None and build_type != "Release":
        raise BenchmarkError(
            f"{BUILD_DIR} is a {build_type or 'untyped'} build; the "
            "benchmark times Release builds only (delete the directory)")
    steps = []
    if build_type is None:
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired as e:
            raise BenchmarkError(f"build timed out: {' '.join(cmd)}") from e
        if proc.returncode != 0:
            log(proc.stdout)
            raise BenchmarkError(f"build failed: {' '.join(cmd)}")


def run_binary(args, env):
    try:
        return subprocess.run([BINARY] + args, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as e:
        raise BenchmarkError(f"timed out: unisamp_benchmark {' '.join(args)}") from e


def self_test(env, workload=None):
    args = ["--self-test"] + ([f"--workload={workload}"] if workload else [])
    proc = run_binary(args, env)
    log(proc.stdout.rstrip())
    if proc.returncode != 0:
        log(proc.stderr)
        return False
    return True


def pinned_checksum(workload, seed, seconds, traced):
    """The checksum expected.json pins for this run, or None."""
    expected = load_json(os.path.join(BENCH_DIR, "expected.json"))
    if traced or float(seconds) != float(expected["seconds"]):
        return None
    return expected["checksums"].get(workload, {}).get(str(seed))


def run_workload(workload, seed, seconds, traced, env):
    """Runs one workload process; returns its record with the verdict."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(traced)}"
    args = [f"--workload={workload}", f"--seed={seed}", f"--seconds={seconds}"]
    if traced:
        args.append(f"--trace={os.path.join(RESULTS_DIR, 'spans-' + tag + '.json')}")
    proc = run_binary(args, env)
    try:
        record = json.loads(proc.stdout)
        # Metrics come as strings holding all 17 significant digits.
        record["metrics"] = {k: float(v) for k, v in record["metrics"].items()}
    except (ValueError, KeyError, AttributeError) as e:
        log(proc.stderr)
        raise BenchmarkError(f"{workload}: unreadable output (exit "
                             f"{proc.returncode}): {proc.stdout[-200:]!r}") from e
    attempted = record["checks_attempted"]
    failed = record["checks_failed"]
    pinned = pinned_checksum(workload, seed, seconds, traced)
    if pinned is not None:
        attempted += 1
        if record["checksum"] != pinned:
            failed += 1
            record["failures"].append(
                f"checksum {record['checksum']} != pinned {pinned}")
    if record["host"]["build_type"] != "Release":
        raise BenchmarkError("benchmark binary is not a Release build")
    record["attempted"] = attempted
    record["failed"] = failed
    record["correct"] = failed == 0 and proc.returncode == 0
    record["host"]["python_cpu_count"] = os.cpu_count()
    with open(os.path.join(RESULTS_DIR, tag + ".json"), "w",
              encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    for failure in record["failures"]:
        log(f"{workload}: FAILED {failure}")
    return record


def result_line(record, metric_defs):
    metrics = {}
    for m in metric_defs:
        metrics[m["name"]] = {"value": record["metrics"].get(m["name"], 0.0),
                              "unit": m["unit"]}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def human_run(spec, seed, seconds, env):
    if not self_test(env):
        log("self-test FAILED")
        return 1
    ok = True
    extra = [{"name": "drop_frac", "unit": "fraction"},
             {"name": "failed_frac", "unit": "fraction"}]
    for workload in WORKLOADS:
        record = run_workload(workload, seed, seconds, False, env)
        record["metrics"]["failed_frac"] = record["failed"] / record["attempted"]
        ok = ok and record["correct"]
        print(f"# {workload}: {record['steps']} timed steps after "
              f"{record['warmup']} warm-up, checksum {record['checksum']}")
        for m in spec["end_to_end"] + extra:
            print(f"{workload} {m['name']} {record['metrics'][m['name']]:.6g} "
                  f"{m['unit']}")
            wall = record["metrics"].get("wall." + m["name"])
            if wall is not None:
                print(f"{workload} wall.{m['name']} {wall:.6g} {m['unit']}")
    print("# traced runs: a quarter of the steps; per-layer metrics "
          "(0 = layer not on this workload's path)")
    for workload in WORKLOADS:
        record = run_workload(workload, seed, seconds, True, env)
        ok = ok and record["correct"]
        for m in spec["per_layer"]:
            value = record["metrics"].get(m["name"])
            if value is not None:
                print(f"{workload} {m['name']} {value:.6g} {m['unit']}")
    return 0 if ok else 1


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        seconds = f"{seconds:g}"
        env = clean_env()
        build(env)
        if args.workload is None:
            return human_run(spec, args.seed, seconds, env)
        if not self_test(env, args.workload):
            log("self-test FAILED")
            return 1
        traced = args.trace == 1
        record = run_workload(args.workload, args.seed, seconds, traced, env)
        defs = spec["per_layer"] if traced else spec["end_to_end"]
        print(json.dumps(result_line(record, defs)))
        return 0 if record["correct"] else 1
    except BenchmarkError as e:
        log(f"benchmark: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
