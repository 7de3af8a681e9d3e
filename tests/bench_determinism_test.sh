#!/usr/bin/env bash
# Determinism gate for the parallel experiment engine: the fan-out must
# produce byte-identical stdout for any worker count. Enforced here for
# two converted benches — a mix-figure bench in machine-readable CSV mode
# and the fig5 build-time table — by diffing --jobs=1 against --jobs=4.
# Also checks flag validation: malformed, zero and overflowing values, and
# unknown flags, including the ones each bench below used to take.
# Usage: bench_determinism_test.sh <fig9> <fig5> <fig6_seq_scan>
#          <ext_multi_object> <ext_build_scaling> <table2_starburst_read>
#          <table3_starburst_update> <ext_update_scaling>
set -euo pipefail

FIG9="$1"
FIG5="$2"
FIG6="$3"
MULTI="$4"
BUILD="$5"
TABLE2="$6"
TABLE3="$7"
UPDATE="$8"

fail() {
  echo "FAIL: $1" >&2
  exit 1
}

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

# 1. Mix-figure CSV output: --jobs=4 vs --jobs=1 must be byte-identical.
"$FIG9" --quick --csv --jobs=1 > "$tmpdir/fig9_j1.csv"
"$FIG9" --quick --csv --jobs=4 > "$tmpdir/fig9_j4.csv"
cmp "$tmpdir/fig9_j1.csv" "$tmpdir/fig9_j4.csv" \
  || fail "fig9 --csv output differs between --jobs=1 and --jobs=4"

# 2. Same check with the --obs attribution ledger interleaved.
"$FIG9" --quick --obs --jobs=1 > "$tmpdir/fig9_obs_j1.txt"
"$FIG9" --quick --obs --jobs=4 > "$tmpdir/fig9_obs_j4.txt"
cmp "$tmpdir/fig9_obs_j1.txt" "$tmpdir/fig9_obs_j4.txt" \
  || fail "fig9 --obs output differs between --jobs=1 and --jobs=4"

# 3. fig5 table output: --jobs=4 and inline --jobs=0 vs --jobs=1.
"$FIG5" --quick --jobs=1 > "$tmpdir/fig5_j1.txt"
"$FIG5" --quick --jobs=4 > "$tmpdir/fig5_j4.txt"
"$FIG5" --quick --jobs=0 > "$tmpdir/fig5_j0.txt"
cmp "$tmpdir/fig5_j1.txt" "$tmpdir/fig5_j4.txt" \
  || fail "fig5 output differs between --jobs=1 and --jobs=4"
cmp "$tmpdir/fig5_j1.txt" "$tmpdir/fig5_j0.txt" \
  || fail "fig5 output differs between --jobs=1 and --jobs=0 (inline)"

# 4. --bench-json emits a profile with one cell per grid configuration.
"$FIG5" --quick --jobs=4 --bench-json="$tmpdir/BENCH_fig5.json" > /dev/null
grep -q '"bench": "fig5_build_time"' "$tmpdir/BENCH_fig5.json" \
  || fail "BENCH_fig5.json missing bench name"
grep -q '"wall_ms"' "$tmpdir/BENCH_fig5.json" \
  || fail "BENCH_fig5.json missing per-cell wall_ms"
grep -q '"modeled_ms"' "$tmpdir/BENCH_fig5.json" \
  || fail "BENCH_fig5.json missing per-cell modeled_ms"

# 5. Schema v2: the modeled payload of BENCH_*.json — cell configs,
# modeled_ms, and the embedded per-cell metrics_snapshot percentile
# tables — must be byte-identical for any --jobs. (Wall-clock fields
# differ run to run, so the comparison strips them.)
"$FIG9" --quick --csv --jobs=1 --bench-json="$tmpdir/BENCH_fig9_j1.json" \
  > /dev/null
"$FIG9" --quick --csv --jobs=4 --bench-json="$tmpdir/BENCH_fig9_j4.json" \
  > /dev/null
python3 - "$tmpdir/BENCH_fig9_j1.json" "$tmpdir/BENCH_fig9_j4.json" <<'EOF'
import json, sys

a = json.load(open(sys.argv[1]))
b = json.load(open(sys.argv[2]))
assert a["schema_version"] == 2, a.get("schema_version")
assert b["schema_version"] == 2, b.get("schema_version")

def modeled_cells(profile):
    return [
        {
            "config": c["config"],
            "modeled_ms": c["modeled_ms"],
            "metrics_snapshot": c.get("metrics_snapshot"),
        }
        for c in profile["cells"]
    ]

ca, cb = modeled_cells(a), modeled_cells(b)
assert ca == cb, "modeled cell payloads differ between --jobs=1 and --jobs=4"
snaps = [c["metrics_snapshot"] for c in ca if c["metrics_snapshot"]]
assert snaps, "no cell carries a metrics_snapshot"
ops = snaps[0]["ops"]
assert ops, "snapshot has no op percentile table"
row = next(iter(ops.values()))
for key in ("p50_ms", "p90_ms", "p99_ms", "max_ms", "mean_ms"):
    assert key in row, f"snapshot op row missing {key}: {sorted(row)}"
EOF

# 6. Flag validation: an out-of-range --window, a malformed number (a
# sign, a suffix, no digits), a zero count or size and a size whose byte
# count wraps uint64_t (2^44 MB) must be rejected with exit status 2 and
# "bad --<flag> '<value>'" on stderr. A flag no bench knows (a typo) and
# each flag a bench used to take must be rejected with exit status 2 and
# "unknown flag --<flag>", before anything runs or is written. The
# timeout turns a value that is silently accepted and runs on into a
# failure instead of a hang.
if "$FIG9" --quick --ops=100 --window=0 > /dev/null 2>&1; then
  fail "--window=0 was accepted"
fi
if "$FIG9" --quick --ops=100 --window=101 > /dev/null 2>&1; then
  fail "--window=101 (> ops) was accepted"
fi
expect_bad_flag() {
  local bin="$1" bad="$2" status=0
  timeout 60 "$bin" --quick "$bad" > /dev/null 2> "$tmpdir/bad_flag.err" \
    || status=$?
  [ "$status" -eq 2 ] || fail "$(basename "$bin") $bad exited $status, not 2"
  grep -q "^bad ${bad%%=*} '${bad#*=}'\$" "$tmpdir/bad_flag.err" \
    || fail "$(basename "$bin") $bad: no \"bad ${bad%%=*} '${bad#*=}'\"" \
            "on stderr"
}
for bad in --ops=-5 --ops=0 --jobs=2x --object-mb=abc; do
  expect_bad_flag "$FIG9" "$bad"
done
expect_bad_flag "$FIG6" --object-mb=0
expect_bad_flag "$FIG6" --object-mb=17592186044416
expect_unknown_flag() {
  local bin="$1" arg="$2" status=0
  timeout 60 "$bin" --quick "$arg" > "$tmpdir/unknown_flag.out" \
    2> "$tmpdir/unknown_flag.err" || status=$?
  [ "$status" -eq 2 ] || fail "$(basename "$bin") $arg exited $status, not 2"
  grep -qx "unknown flag ${arg%%=*}" "$tmpdir/unknown_flag.err" \
    || fail "$(basename "$bin") $arg: no \"unknown flag ${arg%%=*}\" on stderr"
  [ ! -s "$tmpdir/unknown_flag.out" ] \
    || fail "$(basename "$bin") $arg printed to stdout before rejecting"
}
expect_unknown_flag "$FIG9" --timline="$tmpdir/typo.csv"
[ ! -e "$tmpdir/typo.csv" ] || fail "fig9 --timline wrote its file"
expect_unknown_flag "$FIG9" --timeline-every=200
expect_unknown_flag "$FIG9" --bogus
expect_unknown_flag "$FIG5" --csv
expect_unknown_flag "$MULTI" --objects=8
expect_unknown_flag "$BUILD" --append-kb=32
expect_unknown_flag "$TABLE2" --reads=200
expect_unknown_flag "$TABLE3" --update-ops=10
expect_unknown_flag "$UPDATE" --update-ops=5
"$FIG9" --quick --ops=100 --window=50 --csv --jobs=2 > /dev/null \
  || fail "valid --window=50 rejected"

echo "PASS: parallel bench output is byte-deterministic"
