#!/usr/bin/env python3
"""Paired benchmark runs: is a change better, worse or the same as its parent?

Runs ``perfbench/run.py --workload W`` in two source checkouts, one pair
of runs at a time. Pair i uses seed 1 (even i) or 9001 (odd i), and the
side that runs first alternates every two pairs, so each order meets each
seed. ``--workload`` takes one workload, a comma list (run in that order)
or ``all`` (every workload, in BENCHMARK.json order); each workload gets
the whole protocol in turn and its own table. For every end-to-end metric
in BENCHMARK.json the table gives each side's median and quartiles, how
many pairs the change won, and a verdict that uses the metric's
``better`` and ``bound``:

  improved    the change wins at least 9 in 10 pairs, and the medians
              differ in its favour by more than the parent's
              interquartile range;
  worse       the change's median is worse than the parent's by more
              than the bound (a fraction of the parent's median);
  unchanged   otherwise, when the medians differ by no more than the
              parent's interquartile range, and that range is within
              the bound;
  unresolved  otherwise: the gap is wider than the parent's spread but
              not a win, or the spread itself is wider than the bound.

The exact metrics (EXACT below) are modeled, not timed: a seed fixes
them, so the two sides of a pair, which share a seed, must print the same
value. They are compared pair by pair instead, and are either
``unchanged`` (equal in every pair) or ``changed``.

Usage (from anywhere; each checkout builds its own .bench_build/):

  scripts/bench_pairs.py --parent DIR --change DIR --workload W[,W...]|all
                         [--pairs 10] [--seconds 20] [--save DIR]
  scripts/bench_pairs.py --load FILE [FILE...]   # verdicts of saved runs

``--save DIR`` keeps one file per workload, DIR/<workload>.json, rewritten
after every pair; ``--load`` prints one table per file given.

Exit codes, the worst over the workloads: 0 no metric worse or changed,
1 a metric worse, an exact metric changed or an op failed, 2 missing or
unparseable input, or a run that gave no result.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 9001)
# End-to-end metrics that a seed fixes (lobbench's "exact" block).
EXACT = ("modeled_read_ms", "modeled_write_ms", "space_amp")
# Share of pairs the change must win for "improved" (9 of 10).
WIN_SHARE = 0.9


class InputError(Exception):
    pass


def run_once(checkout, workload, seed, seconds):
    """One perfbench run in `checkout`; returns (metrics, attempted, failed)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise InputError(f"{checkout}: perfbench/run.py exited with "
                         f"{proc.returncode}")
    res = json.loads(lines[-1])
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    return metrics, res["attempted"], res["failed"]


def run_pairs(args, workload):
    """The pair protocol on one workload; returns its runs."""
    runs = {"workload": workload, "seconds": args.seconds, "pairs": []}
    sides = {"parent": args.parent, "change": args.change}
    save = None
    if args.save:
        Path(args.save).mkdir(parents=True, exist_ok=True)
        save = Path(args.save) / f"{workload}.json"
    for i in range(args.pairs):
        seed = SEEDS[i % 2]
        order = ("parent", "change") if (i // 2) % 2 == 0 else \
            ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            metrics, attempted, failed = run_once(
                sides[side], workload, seed, args.seconds)
            pair[side] = {"metrics": metrics, "attempted": attempted,
                          "failed": failed}
        runs["pairs"].append(pair)
        if save:  # after every pair: an interrupted set keeps its pairs
            with open(save, "w") as f:
                json.dump(runs, f, indent=1)
        print(f"{workload}: pair {i + 1}/{args.pairs} done (seed {seed}, "
              f"{order[0]} first)", file=sys.stderr, flush=True)
    return runs


def load_runs(path):
    with open(path) as f:
        return json.load(f)


def workloads_of(arg, known):
    """The workloads `--workload` names, in run order; None if invalid."""
    if arg == "all":
        return list(known)
    names = arg.split(",")
    if any(n not in known for n in names) or len(set(names)) != len(names):
        return None
    return names


def quartiles(values):
    """(q1, median, q3) of `values`, inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(spec, parent, change):
    """Verdict and numbers of one metric over the pairs' values."""
    lower = spec["better"] == "lower"
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change)
               if (c < p if lower else c > p))
    gain = (pm - cm) if lower else (cm - pm)  # > 0: the change is better
    rel = (cm - pm) / pm if pm != 0 else (0.0 if cm == pm else math.inf)
    iqr = p3 - p1
    spread = iqr / abs(pm) if pm != 0 else 0.0
    need = math.ceil(WIN_SHARE * len(parent))
    if spec["name"] in EXACT:
        v = "unchanged" if parent == change else "changed"
    elif wins >= need and gain > iqr:
        v = "improved"
    elif (rel if lower else -rel) > spec["bound"]:
        v = "worse"
    elif abs(gain) <= iqr and spread <= spec["bound"]:
        v = "unchanged"
    else:
        v = "unresolved"
    return {"parent": (p1, pm, p3), "change": (c1, cm, c3), "rel": rel,
            "wins": wins, "verdict": v}


def report(runs, specs):
    """Prints the table; returns the exit code."""
    pairs = runs["pairs"]
    if not pairs:
        raise InputError("no pairs")
    print(f"workload {runs['workload']}: {len(pairs)} pairs x "
          f"{runs.get('seconds', '?')} s, seeds "
          f"{'/'.join(str(s) for s in SEEDS)}")
    print(f"{'metric':18s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'delta':>8s} {'wins':>6s}  "
          "verdict")
    code = 0
    for spec in specs:
        name = spec["name"]
        try:
            parent = [p["parent"]["metrics"][name] for p in pairs]
            change = [p["change"]["metrics"][name] for p in pairs]
        except KeyError as e:
            raise InputError(f"metric {name} missing from a run") from e
        r = verdict(spec, parent, change)
        fmt = lambda q: f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"  # noqa: E731
        print(f"{name:18s} {fmt(r['parent']):>34s} {fmt(r['change']):>34s} "
              f"{r['rel'] * 100:+7.1f}% {r['wins']:>3d}/{len(pairs):<2d}  "
              f"{r['verdict']}")
        if r["verdict"] in ("worse", "changed"):
            code = 1
    for side in ("parent", "change"):
        attempted = sum(p[side]["attempted"] for p in pairs)
        failed = sum(p[side]["failed"] for p in pairs)
        print(f"{side}: {failed} of {attempted} ops failed")
        if failed:
            code = 1
    return code


def report_one(get_runs, specs):
    """Gets one workload's runs and prints its table; returns the exit code."""
    try:
        return report(get_runs(), specs)
    except (InputError, OSError, json.JSONDecodeError, KeyError,
            TypeError) as e:
        print(f"bench_pairs: {e}", file=sys.stderr)
        return 2


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", help="parent source checkout")
    ap.add_argument("--change", help="changed source checkout")
    ap.add_argument("--workload",
                    help="perfbench workload, comma list of them, or all")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--save", help="write each workload's runs to "
                    "DIR/<workload>.json")
    ap.add_argument("--load", nargs="+", metavar="FILE",
                    help="report on runs saved by --save")
    args = ap.parse_args()
    if not args.load and not (args.parent and args.change and args.workload):
        ap.error("give --parent, --change and --workload, or --load")
    if args.pairs < 1 or args.seconds < 1:
        ap.error("--pairs and --seconds must be >= 1")
    try:
        with open(ROOT / "BENCHMARK.json") as f:
            bench = json.load(f)
        specs = bench["end_to_end"]
        known = [w["name"] for w in bench["workloads"]]
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as e:
        print(f"bench_pairs: BENCHMARK.json: {e}", file=sys.stderr)
        return 2
    if args.load:
        jobs = [lambda path=path: load_runs(path) for path in args.load]
    else:
        workloads = workloads_of(args.workload, known)
        if workloads is None:
            ap.error(f"--workload {args.workload}: give all or distinct "
                     f"names from {', '.join(known)}")
        jobs = [lambda w=w: run_pairs(args, w) for w in workloads]
    code = 0
    for i, job in enumerate(jobs):
        if i:
            print()
        code = max(code, report_one(job, specs))
    return code


if __name__ == "__main__":
    sys.exit(main())
