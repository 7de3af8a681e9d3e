#!/usr/bin/env python3
"""Repository benchmark: three single-client workloads over the lobstore library.

Usage, from the root of a source checkout:

  python3 perfbench/run.py --workload doc_edit --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py                     # every workload, one process each

The first call configures and builds perfbench/ (and with it the library
from this checkout's src/) into .bench_build/. Each workload runs in its own
process as one closed-loop client (see lobbench/main.cc). With --trace 0 the
end-to-end metrics come from the untraced build; with --trace 1 the traced
build (library calls wrapped at link time) gives the per-layer metrics, and
an untraced run of the same seed gives the tracing overhead. Every metric is
printed by name and unit; the last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics. A run whose ops fail or
whose checks (fsck, oracle, exact repeatability) fail exits non-zero and
prints no result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"

WORKLOADS = ["doc_edit", "media_stream", "catalog_churn"]

# (name, unit) of every end-to-end metric; --trace 0 prints these.
END_TO_END = [
    ("ops_per_s", "1/s"),
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
    ("write_p50_us", "us"),
    ("write_p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("modeled_read_ms", "ms"),
    ("modeled_write_ms", "ms"),
    ("space_amp", "ratio"),
]

# (name, unit) of every per-layer metric; --trace 1 prints these.
PER_LAYER = [
    ("iomodel.calls_per_op", "calls/op"),
    ("iomodel.self_us_per_op", "us/op"),
    ("iomodel.ns_per_page", "ns/page"),
    ("iomodel.read_amp", "ratio"),
    ("iomodel.write_amp", "ratio"),
    ("buffer.calls_per_op", "calls/op"),
    ("buffer.self_us_per_op", "us/op"),
    ("buffer.hit_rate", "ratio"),
    ("buffer.evictions_per_op", "evictions/op"),
    ("buddy.calls_per_op", "calls/op"),
    ("buddy.self_us_per_op", "us/op"),
    ("buddy.free_chunks", "count"),
    ("buddy.largest_free_pages", "pages"),
    ("lobtree.calls_per_op", "calls/op"),
    ("lobtree.self_us_per_op", "us/op"),
    ("lobtree.max_height", "levels"),
    ("esm.self_us_per_op", "us/op"),
    ("eos.self_us_per_op", "us/op"),
    ("starburst.self_us_per_op", "us/op"),
    ("core.calls_per_op", "calls/op"),
    ("core.self_us_per_op", "us/op"),
    ("core.catalog_pages", "pages"),
    ("obs.calls_per_op", "calls/op"),
    ("obs.self_us_per_op", "us/op"),
    ("traced.overhead_frac", "ratio"),
]

LAYERS = ["client", "iomodel", "buffer", "buddy", "lobtree", "core", "obs",
          "esm", "eos", "starburst"]

# Generous per-process limit; a run normally takes --seconds plus set-up.
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then brings .bench_build up to date; returns it."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"{ROOT} is not a lobstore source checkout "
                         "(no CMakeLists.txt or src/)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_step(cmd)
    run_step(["cmake", "--build", str(BUILD), "-j", jobs])
    return BUILD


def run_step(cmd):
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=900, check=False)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited with {proc.returncode}")


def drive(exe, workload, seed, seconds, spans=None):
    """Runs lobbench once; returns its parsed result line."""
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{workload}: no result within {RUN_TIMEOUT_S} s") from e
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: {exe.name} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if not result.get("correct"):
        raise BenchError(f"{workload}: {exe.name} reported an incorrect run")
    return result


def measure(workload, seed, seconds, trace):
    """One workload in its own process(es).

    Returns (result, metrics, shares): metrics maps name -> (value, unit,
    note), the note giving the samples behind a wall figure; shares is the
    traced run's self-time share of the timed window per layer.
    """
    build_dir = build()
    plain = drive(build_dir / "lobbench", workload, seed, seconds)
    if not trace:
        rounds = plain["rounds"]
        per_round = plain["samples_per_round"]
        notes = {"ops_per_s": f"{rounds} rounds x {plain['ops_per_round']} ops",
                 "setup_s": f"{rounds} set-ups"}
        for cls in ("read", "write"):
            for pct in ("p50", "p99"):
                notes[f"{cls}_{pct}_us"] = (f"{rounds} rounds x "
                                            f"{per_round[cls]} {cls}s")
        values = dict(plain["wall"])
        values.update(plain["exact"])
        return plain, {name: (values[name], unit, notes.get(name, ""))
                       for name, unit in END_TO_END}, ""
    spans_dir = build_dir / "spans"
    spans_dir.mkdir(exist_ok=True)
    traced = drive(build_dir / "lobbench_traced", workload, seed, seconds,
                   spans=spans_dir / f"{workload}.tsv")
    if traced["exact"] != plain["exact"]:
        raise BenchError(f"{workload}: traced build changed the exact "
                         f"metrics: {traced['exact']} vs {plain['exact']}")
    values = dict(traced["layers"])
    values.update(traced["exact"])
    values["traced.overhead_frac"] = (plain["wall"]["ops_per_s"] /
                                      traced["wall"]["ops_per_s"] - 1.0)
    shares = " ".join(f"{layer}={traced['layers'][layer + '.share']:.3f}"
                      for layer in LAYERS)
    return traced, {name: (values[name], unit, "")
                    for name, unit in PER_LAYER}, shares


def print_metrics(prefix, metrics, shares):
    if shares:
        print(f"{prefix}self-time share of the timed window: {shares}")
    for name, (value, unit, note) in metrics.items():
        note = f"  ({note})" if note else ""
        print(f"{prefix}{name:28s} {value:>16.6g} {unit}{note}")


def result_line(attempted, failed, metrics):
    return json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    })


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="run one workload (default: all, one process each)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    try:
        if args.workload:
            res, metrics, shares = measure(args.workload, args.seed,
                                           args.seconds, args.trace == 1)
            print_metrics("", metrics, shares)
            print(result_line(res["attempted"], res["failed"], metrics))
            return 0
        attempted, failed, merged = 0, 0, {}
        for workload in WORKLOADS:
            res, metrics, shares = measure(workload, args.seed, args.seconds,
                                           args.trace == 1)
            print(f"== {workload}")
            print_metrics("  ", metrics, shares)
            attempted += res["attempted"]
            failed += res["failed"]
            merged.update({f"{workload}/{k}": v for k, v in metrics.items()})
        print(result_line(attempted, failed, merged))
        return 0
    except (BenchError, subprocess.TimeoutExpired, OSError,
            json.JSONDecodeError, KeyError) as e:
        log(f"perfbench: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
