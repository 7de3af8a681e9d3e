#!/usr/bin/env python3
"""CI perf-smoke gate: cell throughput, per-op modeled p99, jobs scaling.

Compares a fresh ``micro_substrates --bench-json`` profile with the
committed baseline on two axes:

* ``metrics.cells_per_sec`` (wall clock, higher is better) must be on
  both sides, and the fresh value may fall at most THROUGHPUT_TOLERANCE
  below the baseline. Only meaningful on comparable hardware; the
  baseline records ``hardware_concurrency`` and LOB_BENCH_HOST_NOTE of
  its machine.
* ``metrics_snapshot.ops.<label>.p99_ms`` (modeled, lower is better,
  exact): every op label on either side must have ``p99_ms`` on both,
  and the fresh value may not exceed the baseline at all. The modeled
  clock has no noise, so any increase is a real algorithmic change. An
  empty label set is a violation too: a gate that checks nothing has
  rotted.

Refresh the baseline deliberately (copy the fresh profile over
``results/BENCH_micro_baseline.json`` in the same PR that changes
performance) rather than letting it drift.

A suite-level jobs-scaling check reads ``BENCH_suite.json`` (when
present): the parallel fan-out must reach MIN_SPEEDUP over
``--jobs=1``. On a single-core host that comparison is physically
meaningless (``--jobs=N`` still runs on the one hardware thread), so the
check SKIPs with an explicit message, keyed off the suite's recorded
``hardware_threads``, instead of vacuously passing on a ~1.0x
"speedup".

Usage: scripts/check_perf.py [--fresh PATH] [--baseline PATH]
                             [--suite PATH]
Prints every gated row and every violation.
Exit codes: 0 ok, 1 regression/violation, 2 missing/invalid inputs.
"""

import argparse
import json
import math
import os
import sys

# Largest allowed fractional drop of the wall-clock cell throughput.
THROUGHPUT_TOLERANCE = 0.20
# Largest allowed fractional rise of a modeled p99: none, the modeled
# clock is deterministic.
P99_TOLERANCE = 0.0
# Smallest acceptable suite_speedup on a multi-core host.
MIN_SPEEDUP = 1.05


def load(path):
    """Parsed JSON document at `path`; exits 2 when absent or unparseable."""
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"check_perf: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def lookup(doc, *keys):
    """doc[k0][k1]...; None when a level is absent or not an object."""
    for key in keys:
        if not isinstance(doc, dict):
            return None
        doc = doc.get(key)
    return doc


def number(value):
    """`value` when it is a JSON number (true/false count as 1/0)."""
    return value if isinstance(value, (int, float)) else None


def fmt(value):
    return "-" if value is None else f"{value:.6g}"


def check_gates(base, fresh):
    """Gated rows of `fresh` against `base`: a list of violation texts."""
    # (metric, baseline, fresh, allowed fractional drift, higher better)
    rows = [("metrics.cells_per_sec",
             number(lookup(base, "metrics", "cells_per_sec")),
             number(lookup(fresh, "metrics", "cells_per_sec")),
             THROUGHPUT_TOLERANCE, True)]
    base_ops = lookup(base, "metrics_snapshot", "ops")
    fresh_ops = lookup(fresh, "metrics_snapshot", "ops")
    base_ops = base_ops if isinstance(base_ops, dict) else {}
    fresh_ops = fresh_ops if isinstance(fresh_ops, dict) else {}
    labels = sorted(set(base_ops) | set(fresh_ops))
    for label in labels:
        rows.append((f"metrics_snapshot.ops.{label}.p99_ms",
                     number(lookup(base_ops, label, "p99_ms")),
                     number(lookup(fresh_ops, label, "p99_ms")),
                     P99_TOLERANCE, False))

    violations = []
    if not labels:
        violations.append("metrics_snapshot.ops has no op label in either "
                          "run (rotted gate)")
    print(f"{'metric':<44} {'baseline':>12} {'fresh':>12} {'rel':>9}")
    for metric, a, b, tolerance, higher in rows:
        if a is None or b is None:
            side = ("either run" if a is None and b is None
                    else "the baseline" if a is None else "the fresh run")
            violations.append(f"{metric} missing from {side}")
            print(f"{metric:<44} {fmt(a):>12} {fmt(b):>12} {'-':>9}  "
                  "VIOLATION")
            continue
        bad = (b < a * (1.0 - tolerance) if higher
               else b > a * (1.0 + tolerance))
        rel = ((b - a) / abs(a) if a != 0
               else 0.0 if b == 0 else math.copysign(math.inf, b)) * 100.0
        if bad:
            violations.append(f"{metric} {a:.6g} -> {b:.6g} ({rel:+.2f}%, "
                              f"allowed {tolerance * 100:.0f}%)")
        print(f"{metric:<44} {a:>12.6g} {b:>12.6g} {rel:>+8.2f}%"
              f"{'  VIOLATION' if bad else ''}")
    print(f"check_perf: {len(rows)} gated rows, {len(violations)} "
          "violations")
    return violations


def check_jobs_scaling(suite_path, suite):
    """Suite-level jobs-scaling gate: a list of violation texts.

    Explicitly SKIPs (with a message) when the suite profile is absent
    or was produced on a single-core host: a 1-thread machine runs
    --jobs=N cells sequentially, so its ~1.0x "speedup" carries no
    information and must not be graded as a pass OR a failure.
    """
    if suite is None:
        print(f"check_perf: SKIP jobs-scaling gate: no {suite_path}")
        return []
    hw = int(suite.get("hardware_threads", 0))
    if hw <= 1:
        print("check_perf: SKIP jobs-scaling gate: single-core host "
              f"(hardware_threads={hw}); parallel speedup is not "
              "measurable here")
        return []
    speedup = float(suite.get("suite_speedup", 0.0))
    jobs = int(suite.get("jobs", 1))
    if speedup < MIN_SPEEDUP:
        return [f"jobs-scaling: suite_speedup {speedup:.2f} < "
                f"{MIN_SPEEDUP:.2f} with --jobs={jobs} on {hw} hardware "
                "threads"]
    print(f"check_perf: jobs-scaling OK (suite_speedup {speedup:.2f} "
          f"with --jobs={jobs} on {hw} threads)")
    return []


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--fresh",
                        default="results/BENCH_micro_substrates.json")
    parser.add_argument("--baseline",
                        default="results/BENCH_micro_baseline.json")
    parser.add_argument("--suite", default="BENCH_suite.json",
                        help="suite profile for the jobs-scaling check "
                             "(skipped when the file is absent)")
    args = parser.parse_args()

    base = load(args.baseline)
    fresh = load(args.fresh)
    suite = load(args.suite) if os.path.exists(args.suite) else None
    if suite is not None and not isinstance(suite, dict):
        print(f"check_perf: {args.suite} is not a JSON object",
              file=sys.stderr)
        sys.exit(2)

    violations = (check_gates(base, fresh) +
                  check_jobs_scaling(args.suite, suite))
    for v in violations:
        print(f"check_perf: VIOLATION: {v}", file=sys.stderr)
    if violations:
        print("check_perf: FAIL", file=sys.stderr)
        sys.exit(1)
    print("check_perf: OK")


if __name__ == "__main__":
    main()
