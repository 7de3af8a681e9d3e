#!/usr/bin/env python3
"""CI perf-smoke gate: thin wrapper over ``lobtool bench-diff``.

Runs ``lobtool bench-diff <baseline> <fresh> --gate=<gates>`` so the
gate logic (metric flattening, glob fan-out over per-op p99 columns,
rotted-gate detection) lives in one audited C++ implementation instead
of being re-derived here. The default gate file,
``scripts/perf_gates.json``, holds the line on two axes:

* ``metrics.cells_per_sec`` (wall clock, higher-better, 20% tolerance) —
  only meaningful on comparable hardware; the committed baseline records
  ``hardware_concurrency`` and LOB_BENCH_HOST_NOTE of its machine.
* ``metrics_snapshot.ops.*.p99_ms`` (modeled, lower-better, exact:
  ``max_regression`` 0) — deterministic tail cost per op label across
  all three engines. The modeled clock has no noise, so any increase is
  a real algorithmic change.

Refresh the baseline deliberately (copy the fresh profile over
``results/BENCH_micro_baseline.json`` in the same PR that changes
performance) rather than letting it drift.

On top of the bench-diff gates, a suite-level *jobs-scaling* check
reads ``BENCH_suite.json`` (when present): the parallel fan-out must
show a real speedup over ``--jobs=1``. On a single-core host that
comparison is physically meaningless — ``--jobs=N`` still runs on the
one hardware thread — so the check SKIPs with an explicit message
(keyed off the suite's recorded ``hardware_threads``) instead of
vacuously passing on a ~1.0x "speedup".

Usage: scripts/check_perf.py [--fresh PATH] [--baseline PATH]
                             [--gate PATH] [--lobtool PATH]
                             [--suite PATH] [--min-speedup X]
Tolerances live in the gate file only.
Exit codes: 0 ok, 1 regression/violation, 2 missing/invalid inputs.
"""

import argparse
import json
import os
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--fresh",
                        default="results/BENCH_micro_substrates.json")
    parser.add_argument("--baseline",
                        default="results/BENCH_micro_baseline.json")
    parser.add_argument("--gate", default="scripts/perf_gates.json")
    parser.add_argument("--lobtool", default="build/tools/lobtool",
                        help="path to the lobtool binary")
    parser.add_argument("--suite", default="BENCH_suite.json",
                        help="suite profile for the jobs-scaling check "
                             "(skipped when the file is absent)")
    parser.add_argument("--min-speedup", type=float, default=1.05,
                        help="minimum acceptable suite_speedup on "
                             "multi-core hosts")
    args = parser.parse_args()

    if not os.path.exists(args.lobtool):
        print(f"check_perf: lobtool not found at {args.lobtool} "
              "(build the tree first)", file=sys.stderr)
        sys.exit(2)
    for path in (args.fresh, args.baseline, args.gate):
        if not os.path.exists(path):
            print(f"check_perf: missing {path}", file=sys.stderr)
            sys.exit(2)

    proc = subprocess.run(
        [args.lobtool, "bench-diff", args.baseline, args.fresh,
         f"--gate={args.gate}"])
    if proc.returncode == 0:
        print("check_perf: OK")
    else:
        print(f"check_perf: FAIL (lobtool bench-diff exit "
              f"{proc.returncode})", file=sys.stderr)
        sys.exit(proc.returncode)

    sys.exit(check_jobs_scaling(args.suite, args.min_speedup))


def check_jobs_scaling(suite_path, min_speedup):
    """Suite-level jobs-scaling gate. Returns a process exit code.

    Explicitly SKIPs (with a message, exit 0) when the suite profile is
    absent or was produced on a single-core host — a 1-thread machine
    runs --jobs=N cells sequentially, so its ~1.0x "speedup" carries no
    information and must not be graded as a pass OR a failure.
    """
    if not os.path.exists(suite_path):
        print(f"check_perf: SKIP jobs-scaling gate: no {suite_path}")
        return 0
    try:
        with open(suite_path) as f:
            suite = json.load(f)
    except (OSError, ValueError) as e:
        print(f"check_perf: cannot read {suite_path}: {e}",
              file=sys.stderr)
        return 2
    hw = int(suite.get("hardware_threads", 0))
    if hw <= 1:
        print("check_perf: SKIP jobs-scaling gate: single-core host "
              f"(hardware_threads={hw}); parallel speedup is not "
              "measurable here")
        return 0
    speedup = float(suite.get("suite_speedup", 0.0))
    jobs = int(suite.get("jobs", 1))
    if speedup < min_speedup:
        print(f"check_perf: FAIL jobs-scaling gate: suite_speedup "
              f"{speedup:.2f} < {min_speedup:.2f} with --jobs={jobs} on "
              f"{hw} hardware threads", file=sys.stderr)
        return 1
    print(f"check_perf: jobs-scaling OK (suite_speedup {speedup:.2f} "
          f"with --jobs={jobs} on {hw} threads)")
    return 0


if __name__ == "__main__":
    main()
