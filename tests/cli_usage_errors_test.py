#!/usr/bin/env python3
"""unisamp_cli turns every bad argument list into a usage error.

Usage: cli_usage_errors_test.py PATH/TO/unisamp_cli

Runs the CLI on malformed numbers (signs, padding, junk, nan), gen-trace
scale 0, gen-attack without 1 <= n <= m <= 2^24 (up to m = 2^64 - 1, which
once reached vector::reserve), run's sampler sizes out of range (--c
outside [1, 2^20], --s outside [1, 64], --k * --s above 2^24 counters), kl's
n above 2^24, effort's k outside [1, 4096], s outside [1, 64] and eta
outside (0, 1), detect's --window=0 and an unknown --strategy, and asserts
exit status exactly 2 with the usage text on stderr: not 1 (a
runtime failure), not a signal (a crash), not 0 (a silently misread
value).

Then runs `run --strategy=omniscient` on well-formed traces whose ids are
too large for its dense probability vector (2^64 - 1, which wraps the
vector size to 0, and 3e9, which asks for 24 GB) and asserts exit 1 with
the offending id on stderr: a runtime failure, not a signal or an
allocation attempt.

Registered with ctest as `smoke_cli_usage_errors` (labels unit;smoke).
"""

import os
import subprocess
import sys
import tempfile


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    cli = argv[1]
    with tempfile.TemporaryDirectory() as tmp:
        trace = os.path.join(tmp, "t.txt")
        with open(trace, "w") as f:
            f.write("1\n2\n2\n3\n")
        out = os.path.join(tmp, "out.txt")
        cases = [
            ["gen-attack", "peak", "0", "100", out],
            ["gen-attack", "band", "0", "100", out],
            ["gen-attack", "peak", "-1", "100", out],
            ["gen-attack", "peak", "100", "10", out],
            ["gen-attack", "peak", "10", "100", out, "7x"],
            # m past the 2^24 cap: rejected before anything is allocated.
            ["gen-attack", "peak", "100", "16777217", out],
            ["gen-attack", "band", "100", "16777217", out],
            ["gen-attack", "peak", "100", "18446744073709551615", out],
            ["gen-attack", "band", "18446744073709551615",
             "18446744073709551615", out],
            ["gen-trace", "nasa", "abc", out],
            ["gen-trace", "nasa", "0", out],
            ["kl", trace, "-5"],
            ["kl", trace, "16777217"],
            ["kl", trace, "3000000000"],
            ["kl", trace, "18446744073709551615"],
            ["run", trace, out, "--strategy=bogus"],
            ["run", trace, out, "--c= 5"],
            ["run", trace, out, "--seed=-1"],
            ["run", trace, out, "--c=0"],
            ["run", trace, out, "--k=0"],
            ["run", trace, out, "--s=0"],
            ["run", trace, out, "--s=65"],
            ["run", trace, out, "--c=1048577"],
            ["run", trace, out, "--k=4194304", "--s=5"],
            ["detect", trace, "--window=+10"],
            ["detect", trace, "--window=0"],
            ["effort", "10", "1e3", "0.5"],
            ["effort", "0", "5", "0.5"],
            ["effort", "4097", "5", "0.5"],
            ["effort", "10", "0", "0.5"],
            ["effort", "10", "65", "0.5"],
            ["effort", "10", "5", "0.5x"],
            ["effort", "10", "5", "abc"],
            ["effort", "10", "5", "nan"],
            ["effort", "10", "5", "inf"],
            ["effort", "10", "5", " 0.5"],
            ["effort", "10", "5", "0"],
            ["effort", "10", "5", "1.5"],
        ]
        failures = 0
        for args in cases:
            failures += not expect_exit(cli, args, tmp, 2, "usage:")
        for bad_id in ["18446744073709551615", "3000000000"]:
            big = os.path.join(tmp, "big.txt")
            with open(big, "w") as f:
                f.write(f"1\n{bad_id}\n")
            failures += not expect_exit(
                cli, ["run", big, out, "--strategy=omniscient"], tmp, 1,
                bad_id)
    if failures:
        print(f"\n{failures} bad invocation(s) not rejected as expected")
        return 1
    print("\nevery bad argument list exits 2, every oversized omniscient "
          "trace exits 1")
    return 0


def expect_exit(cli, args, tmp, code, needle):
    """Runs the CLI; True iff it exits `code` with `needle` on stderr."""
    proc = subprocess.run([cli, *args], capture_output=True, text=True,
                          timeout=120)
    label = " ".join(a.replace(tmp, "$TMP") for a in args)
    if proc.returncode == code and needle in proc.stderr:
        print(f"ok   {label}")
        return True
    how = (f"killed by signal {-proc.returncode}"
           if proc.returncode < 0 else f"exit {proc.returncode}")
    print(f"FAIL {label}: {how}, expected exit {code} with {needle!r}\n"
          f"--- stderr ---\n{proc.stderr}")
    return False


if __name__ == "__main__":
    sys.exit(main(sys.argv))
