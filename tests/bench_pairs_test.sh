#!/usr/bin/env bash
# Verdicts of the pair protocol, scripts/bench_pairs.py, on canned runs
# (--load), so no benchmark runs: one metric per verdict and per edge of
# the "improved" rule (9 of 10 pairs won and a median gap wider than the
# parent's interquartile range), a spread wider than the bound, an exact
# metric that moves in one pair only, failed ops, and unparseable input.
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
echo "PASS: bench_pairs verdicts"
