#!/usr/bin/env bash
# Verdicts of the pair protocol, scripts/bench_pairs.py, on canned runs
# (--load), so no benchmark runs: one metric per verdict and per edge of
# the "improved" rule (9 of 10 pairs won and a median gap wider than the
# parent's interquartile range), a spread wider than the bound, an exact
# metric that moves in one pair only, failed ops, and unparseable input;
# then several workloads in one command, run against stub checkouts.
# Exit codes: 0 no metric worse or changed, 1 a metric worse, an exact
# metric changed or an op failed, 2 missing or unparseable input.
# Usage: bench_pairs_test.sh <python3> <bench_pairs.py>
set -euo pipefail
PY="$1"
SCRIPT="$2"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

fail() { echo "bench_pairs_test: FAIL: $1"; exit 1; }

# mixed.json: ten pairs, every end-to-end metric with its own story.
# same.json: both sides identical. wide.json: the same, but ops_per_s
# spreads wider than its bound. drift.json: same, but the change's
# modeled_read_ms is 1% higher in one pair, well inside the parent's
# spread across seeds. failed.json: same, but the change failed 3 ops.
"$PY" - "$DIR" <<'EOF'
import json, sys

d = sys.argv[1]
N = 10

def series(base, step):
    return [base + step * i for i in range(N)]

parent = {
    "ops_per_s": series(100, 1),
    "read_p50_us": series(10, 0.1),
    "read_p99_us": series(10, 0.1),
    "write_p50_us": series(10, 0.1),
    "write_p99_us": series(10, 0.1),
    "setup_s": series(0.15, 0.001),
    "peak_rss_mb": [100.0] * N,
    "modeled_read_ms": [217.5] * N,
    "modeled_write_ms": [230.25] * N,
    "space_amp": [1.2] * N,
}
change = {
    # 30% fewer ops/s: worse than the 0.25 bound.
    "ops_per_s": [v * 0.7 for v in parent["ops_per_s"]],
    # 1 us faster in 8 pairs, slower in 2: not 9 of 10.
    "read_p50_us": [v - 1 if i < 8 else v + 0.05
                    for i, v in enumerate(parent["read_p50_us"])],
    # 1 us faster in every pair, the parent's IQR is 0.45: improved.
    "read_p99_us": [v - 1 for v in parent["read_p99_us"]],
    # Faster in every pair, but by 0.2 us, inside the parent's IQR.
    "write_p50_us": [v - 0.2 for v in parent["write_p50_us"]],
    # 20% slower: outside the IQR, inside the 0.25 bound.
    "write_p99_us": [v * 1.2 for v in parent["write_p99_us"]],
    # 40 ms faster in 9 pairs, 1 ms slower in one: improved.
    "setup_s": [v + 0.001 if i == 3 else v - 0.04
                for i, v in enumerate(parent["setup_s"])],
    # 12% more memory: worse than the 0.1 bound.
    "peak_rss_mb": [112.0] * N,
    "modeled_read_ms": parent["modeled_read_ms"],
    "modeled_write_ms": parent["modeled_write_ms"],
    "space_amp": parent["space_amp"],
}

def runs(p, c, change_failed=0):
    pairs = []
    for i in range(N):
        side = lambda m, failed: {"metrics": {k: v[i] for k, v in m.items()},
                                  "attempted": 1000, "failed": failed}
        pairs.append({"seed": [1, 9001][i % 2], "first": "parent",
                      "parent": side(p, 0), "change": side(c, change_failed)})
    return {"workload": "doc_edit", "seconds": 20, "pairs": pairs}

def write(name, doc):
    with open(f"{d}/{name}.json", "w") as f:
        json.dump(doc, f)

write("mixed", runs(parent, change))
write("same", runs(parent, parent))
wide = dict(parent, ops_per_s=series(50, 10))  # IQR 45 around 95: 47%
write("wide", runs(wide, wide))
drift = dict(parent, modeled_read_ms=[207.5, 216.8] * (N // 2))
drifted = dict(drift, modeled_read_ms=list(drift["modeled_read_ms"]))
drifted["modeled_read_ms"][4] *= 1.01
write("drift", runs(drift, drifted))
write("failed", runs(parent, parent, change_failed=3))
EOF
printf '{"workload": "doc_edit", "pairs": [' > "$DIR/torn.json"

# run <case> <expected exit code>; leaves the output in $DIR/out.txt
run() {
  local rc=0
  "$PY" "$SCRIPT" --load "$DIR/$1.json" > "$DIR/out.txt" 2>&1 || rc=$?
  [ "$rc" -eq "$2" ] || { cat "$DIR/out.txt"; fail "$1: exit $rc, not $2"; }
}

# verdict <metric> <verdict>: the metric's row in $DIR/out.txt ends so
verdict() {
  grep -Eq "^$1 .* $2\$" "$DIR/out.txt" \
    || { cat "$DIR/out.txt"; fail "$1 is not $2"; }
  echo "ok: $1 $2"
}

run mixed 1
verdict ops_per_s worse
verdict read_p50_us unresolved
verdict read_p99_us improved
verdict write_p50_us unchanged
verdict write_p99_us unresolved
verdict setup_s improved
verdict peak_rss_mb worse
verdict modeled_read_ms unchanged
verdict space_amp unchanged
grep -q "^setup_s .* 9/10 " "$DIR/out.txt" || fail "setup_s wins are not 9/10"
grep -q "^read_p50_us .* 8/10 " "$DIR/out.txt" \
  || fail "read_p50_us wins are not 8/10"

run same 0
[ "$(grep -c ' unchanged$' "$DIR/out.txt")" -eq 10 ] \
  || { cat "$DIR/out.txt"; fail "same: not all 10 metrics unchanged"; }
echo "ok: identical sides, every metric unchanged (exit 0)"

run wide 0
verdict ops_per_s unresolved
verdict read_p50_us unchanged

run drift 1
verdict modeled_read_ms changed
verdict modeled_write_ms unchanged
verdict space_amp unchanged

run failed 1
grep -q "^change: 30 of 10000 ops failed" "$DIR/out.txt" \
  || { cat "$DIR/out.txt"; fail "failed ops not reported"; }
echo "ok: failed ops reported (exit 1)"

run torn 2
echo "ok: torn input (exit 2)"
rc=0
"$PY" "$SCRIPT" > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || fail "no arguments: exit $rc, not 2"
echo "ok: no arguments (exit 2)"
# Several workloads in one command. Two stub checkouts whose
# perfbench/run.py prints a canned result (and logs each call) let the
# protocol itself run in a fraction of a second. The change's
# modeled_write_ms is 1 ms higher on media_stream only, so that table says
# `changed` and the others are clean: the exit code is the worst one.
for side in parent change; do
  mkdir -p "$DIR/$side/perfbench"
  cat > "$DIR/$side/perfbench/run.py" <<EOF
import argparse, json
ap = argparse.ArgumentParser()
ap.add_argument("--workload")
ap.add_argument("--seed", type=int)
ap.add_argument("--seconds", type=int)
a = ap.parse_args()
with open("runs.log", "a") as f:
    f.write(f"{a.workload} {a.seed}\n")
m = {"ops_per_s": 1000.0, "read_p50_us": 5.0, "read_p99_us": 30.0,
     "write_p50_us": 8.0, "write_p99_us": 60.0, "setup_s": 0.1,
     "peak_rss_mb": 200.0, "modeled_read_ms": 200.0 + a.seed % 7,
     "modeled_write_ms": 150.0, "space_amp": 1.25}
if "$side" == "change" and a.workload == "media_stream":
    m["modeled_write_ms"] += 1
print(json.dumps({"correct": True, "attempted": 10, "failed": 0,
                  "metrics": {k: {"value": v, "unit": ""}
                              for k, v in m.items()}}))
EOF
done
pairs() {
  "$PY" "$SCRIPT" --parent "$DIR/parent" --change "$DIR/change" --pairs 2 \
    --seconds 1 "$@"
}
# workload_order <file>: the workloads of its tables, in order
workload_order() {
  grep '^workload ' "$1" | cut -d: -f1 | cut -d' ' -f2 | tr '\n' ' '
}
# changed_rows <file>: "<workload> <metric>" of every `changed` row
changed_rows() {
  awk '/^workload /{w = substr($2, 1, length($2) - 1)}
       / changed$/{print w, $1}' "$1"
}

rc=0
pairs --workload all --save "$DIR/saved" > "$DIR/all.txt" 2>/dev/null \
  || rc=$?
[ "$rc" -eq 1 ] || { cat "$DIR/all.txt"; fail "all: exit $rc, not 1"; }
[ "$(workload_order "$DIR/all.txt")" = \
  "doc_edit media_stream catalog_churn " ] \
  || { cat "$DIR/all.txt"; fail "all: not one table per workload in order"; }
[ "$(changed_rows "$DIR/all.txt")" = "media_stream modeled_write_ms" ] \
  || { cat "$DIR/all.txt"; fail "all: not only media_stream changed"; }
[ "$(cut -d' ' -f1 "$DIR/parent/runs.log" | uniq | tr '\n' ' ')" = \
  "doc_edit media_stream catalog_churn " ] \
  || fail "all: each workload's pairs do not run together, in order"
echo "ok: --workload all runs every workload in order, exits with the worst"

rc=0
"$PY" "$SCRIPT" --load "$DIR/saved/doc_edit.json" \
  "$DIR/saved/media_stream.json" "$DIR/saved/catalog_churn.json" \
  > "$DIR/loaded.txt" 2>&1 || rc=$?
[ "$rc" -eq 1 ] || fail "--load of three files: exit $rc, not 1"
cmp -s "$DIR/all.txt" "$DIR/loaded.txt" \
  || { diff "$DIR/all.txt" "$DIR/loaded.txt"; fail "--load differs"; }
echo "ok: --save keeps one file per workload, --load reprints them"

rc=0
pairs --workload catalog_churn,doc_edit > "$DIR/two.txt" 2>/dev/null \
  || rc=$?
[ "$rc" -eq 0 ] || { cat "$DIR/two.txt"; fail "two clean: exit $rc, not 0"; }
[ "$(grep -c ' unchanged$' "$DIR/two.txt")" -eq 20 ] \
  || { cat "$DIR/two.txt"; fail "two clean: not 2 x 10 metrics unchanged"; }
[ "$(workload_order "$DIR/two.txt")" = "catalog_churn doc_edit " ] \
  || { cat "$DIR/two.txt"; fail "a comma list does not run in its order"; }
echo "ok: a comma list runs its workloads in the order given (exit 0)"

cp "$DIR/parent/runs.log" "$DIR/runs.before"
for bad in doc_edit,nosuch doc_edit,doc_edit ""; do
  rc=0
  pairs --workload "$bad" > /dev/null 2>&1 || rc=$?
  [ "$rc" -eq 2 ] || fail "--workload '$bad': exit $rc, not 2"
done
cmp -s "$DIR/parent/runs.log" "$DIR/runs.before" \
  || fail "a rejected --workload ran something"
echo "ok: unknown, repeated or empty workloads are rejected (exit 2)"

echo "PASS: bench_pairs verdicts"
