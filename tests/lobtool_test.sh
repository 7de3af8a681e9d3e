#!/usr/bin/env bash
# End-to-end test of the lobtool CLI: exercises every subcommand against a
# scratch database image and verifies the bytes that come back.
set -euo pipefail
LOBTOOL="$1"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT
DB="$DIR/t.lobdb"

fail() { echo "lobtool_test: FAIL: $1"; exit 1; }

"$LOBTOOL" "$DB" init >/dev/null || fail "init"
"$LOBTOOL" "$DB" create doc eos 8 >/dev/null || fail "create eos"
"$LOBTOOL" "$DB" create pic starburst >/dev/null || fail "create starburst"
"$LOBTOOL" "$DB" create idx esm 4 >/dev/null || fail "create esm"

printf 'hello large objects' > "$DIR/a.txt"
head -c 100000 /dev/urandom > "$DIR/b.bin"

"$LOBTOOL" "$DB" put doc "$DIR/a.txt" >/dev/null || fail "put"
"$LOBTOOL" "$DB" put pic "$DIR/b.bin" >/dev/null || fail "put binary"

[ "$("$LOBTOOL" "$DB" cat doc)" = "hello large objects" ] || fail "cat"
"$LOBTOOL" "$DB" cat pic > "$DIR/b.out" || fail "cat binary"
cmp -s "$DIR/b.bin" "$DIR/b.out" || fail "binary roundtrip"

printf 'BIG ' > "$DIR/ins.txt"
"$LOBTOOL" "$DB" insert doc 6 "$DIR/ins.txt" >/dev/null || fail "insert"
[ "$("$LOBTOOL" "$DB" cat doc)" = "hello BIG large objects" ] || fail "insert content"

"$LOBTOOL" "$DB" delete doc 6 4 >/dev/null || fail "delete"
[ "$("$LOBTOOL" "$DB" cat doc)" = "hello large objects" ] || fail "delete content"

[ "$("$LOBTOOL" "$DB" cat doc 6 5)" = "large" ] || fail "cat range"

"$LOBTOOL" "$DB" ls | grep -q '^doc .*EOS' || fail "ls doc"
"$LOBTOOL" "$DB" ls | grep -q '^pic .*Starburst' || fail "ls pic"
"$LOBTOOL" "$DB" stat pic | grep -q 'engine: *Starburst' || fail "stat"
"$LOBTOOL" "$DB" info | grep -q 'objects: *3' || fail "info"

# stats: per-op attribution ledger. A named scan must produce attributed
# eos.read rows and the conservation invariant must hold.
"$LOBTOOL" "$DB" stats | grep -q 'conservation: OK' || fail "stats conservation"
"$LOBTOOL" "$DB" stats doc | grep -q '^eos.read' || fail "stats attributed read"
"$LOBTOOL" "$DB" stats doc json | grep -q '"eos.read"' || fail "stats json"
"$LOBTOOL" "$DB" stats doc csv | grep -q '^eos.read,' || fail "stats csv"

# stats json is the schema-v2 snapshot alone: quantile columns per op
# label, pool hit/miss counters, buddy area stats.
"$LOBTOOL" "$DB" stats doc json > "$DIR/stats.json" || fail "stats json run"
[ "$(head -1 "$DIR/stats.json")" = "{" ] || fail "stats json is one object"
! grep -q '"registry"' "$DIR/stats.json" || fail "stats json registry block"
grep -q '"p99_ms"' "$DIR/stats.json" || fail "stats json p99_ms"
grep -q '"pool"' "$DIR/stats.json" || fail "stats json pool block"
grep -q '"schema_version": 2' "$DIR/stats.json" || fail "stats json schema v2"
# --json alias and the percentile columns in the table view.
"$LOBTOOL" "$DB" stats doc --json | grep -q '"p50_ms"' || fail "stats --json alias"
"$LOBTOOL" "$DB" stats doc | grep -q 'p99' || fail "stats table p99 column"

# profile: one replay, three views. Each is deterministic; the tree
# shows per-span calls and pages, the folded view carries buffer-pool
# frames under their ops, and --out writes the view to a file.
printf 'append 0 100000 1\ninsert 50000 20000 2\nread 10000 40000 3\ndelete 30000 10000 4\n' \
  > "$DIR/demo.ops"
for fmt in tree folded json; do
  "$LOBTOOL" profile "$DIR/demo.ops" eos --format="$fmt" > "$DIR/p1.$fmt" \
    || fail "profile --format=$fmt exit"
  "$LOBTOOL" profile "$DIR/demo.ops" eos --format="$fmt" > "$DIR/p2.$fmt" \
    || fail "profile --format=$fmt rerun"
  cmp -s "$DIR/p1.$fmt" "$DIR/p2.$fmt" || fail "profile --format=$fmt determinism"
done
grep -q '^eos.read .*calls, .* pages)' "$DIR/p1.tree" \
  || fail "profile tree shows calls and pages"
grep -q '^eos.read;pool\.' "$DIR/p1.folded" || fail "profile folded has a ;pool. frame"
if command -v python3 > /dev/null 2>&1; then
  python3 -c 'import json,sys; json.load(sys.stdin)' < "$DIR/p1.json" \
    || fail "profile json parses"
fi
"$LOBTOOL" profile "$DIR/demo.ops" esm --format=folded \
  --out="$DIR/flame_esm.folded" > "$DIR/out.stdout" || fail "profile --out"
[ -s "$DIR/flame_esm.folded" ] || fail "profile --out wrote file"
[ -s "$DIR/out.stdout" ] && fail "profile --out also wrote stdout"

# bench-diff: self-diff is zero drift (exit 0); a gated regression exits
# 1; unreadable input exits 2.
printf '{"metrics": {"cells_per_sec": 100.0}, "metrics_snapshot": {"ops": {"eos.read": {"p99_ms": 50.0}}}}\n' \
  > "$DIR/base.json"
"$LOBTOOL" bench-diff "$DIR/base.json" "$DIR/base.json" > "$DIR/diff.txt" \
  || fail "bench-diff self-diff exit"
grep -q 'zero drift' "$DIR/diff.txt" || fail "bench-diff zero drift"
printf '{"gates": [{"name": "tput", "metric": "metrics.cells_per_sec", "direction": "higher", "max_regression": 0.20}]}\n' \
  > "$DIR/gates.json"
printf '{"metrics": {"cells_per_sec": 10.0}, "metrics_snapshot": {"ops": {"eos.read": {"p99_ms": 50.0}}}}\n' \
  > "$DIR/slow.json"
set +e
"$LOBTOOL" bench-diff "$DIR/base.json" "$DIR/slow.json" \
  --gate="$DIR/gates.json" >/dev/null 2>&1
rc=$?
set -e
[ "$rc" -eq 1 ] || fail "bench-diff gate violation should exit 1 (got $rc)"
set +e
"$LOBTOOL" bench-diff "$DIR/base.json" "$DIR/absent.json" >/dev/null 2>&1
rc=$?
set -e
[ "$rc" -eq 2 ] || fail "bench-diff bad input should exit 2 (got $rc)"

# bench-diff --format=json must stay valid JSON for any metric name: a
# key with a tab (escaped in the input) and a 600-character key.
if command -v python3 > /dev/null 2>&1; then
  long_key="$(printf 'k%.0s' $(seq 600))"
  printf '{"m\\tx": 1.0, "%s": 2.0}\n' "$long_key" > "$DIR/odd.json"
  "$LOBTOOL" bench-diff "$DIR/odd.json" "$DIR/odd.json" --format=json \
    > "$DIR/odd_diff.json" || fail "bench-diff odd keys exit"
  python3 -c 'import json,sys; json.load(sys.stdin)' < "$DIR/odd_diff.json" \
    || fail "bench-diff --format=json output parses"
  grep -q "$long_key" "$DIR/odd_diff.json" || fail "bench-diff kept the long key"
fi

"$LOBTOOL" "$DB" rm idx >/dev/null || fail "rm"
"$LOBTOOL" "$DB" info | grep -q 'objects: *2' || fail "info after rm"

# error paths: unknown object, unknown command, missing db
"$LOBTOOL" "$DB" cat nosuch >/dev/null 2>&1 && fail "cat nosuch should fail"
"$LOBTOOL" "$DB" frobnicate >/dev/null 2>&1 && fail "unknown cmd should fail"
"$LOBTOOL" "$DIR/absent.lobdb" ls >/dev/null 2>&1 && fail "missing db should fail"

# Malformed numbers are rejected, not truncated or guessed: exit 1 (2 for
# bench-diff, whose bad-input code is 2) and nothing is changed or run.
expect_rc() {
  local want="$1" what="$2"
  shift 2
  set +e
  "$@" >/dev/null 2>&1
  local rc=$?
  set -e
  [ "$rc" -eq "$want" ] || fail "$what should exit $want (got $rc)"
}
expect_rc 1 "create with a param above 2^32" \
  "$LOBTOOL" "$DB" create big esm 4294967297
"$LOBTOOL" "$DB" ls | grep -q '^big ' && fail "create with a bad param created"
expect_rc 1 "cat with a non-numeric offset" "$LOBTOOL" "$DB" cat doc abc 10
expect_rc 1 "delete with a suffixed offset" "$LOBTOOL" "$DB" delete doc 1x 10
[ "$("$LOBTOOL" "$DB" cat doc)" = "hello large objects" ] \
  || fail "delete with a bad offset changed the object"
"$LOBTOOL" profile "$DIR/demo.ops" eos 4 >/dev/null || fail "profile eos 4"
expect_rc 1 "profile with a negative param" \
  "$LOBTOOL" profile "$DIR/demo.ops" eos -5
expect_rc 1 "profile with a misspelled flag" \
  "$LOBTOOL" profile "$DIR/demo.ops" --fromat=json
expect_rc 1 "profile with an unknown format" \
  "$LOBTOOL" profile "$DIR/demo.ops" --format=svg
expect_rc 2 "bench-diff with a non-numeric band" \
  "$LOBTOOL" bench-diff "$DIR/base.json" "$DIR/base.json" --neutral-band=abc

echo "lobtool_test: PASS"
