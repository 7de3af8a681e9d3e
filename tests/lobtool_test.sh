#!/usr/bin/env bash
# End-to-end test of the lobtool CLI: exercises every subcommand against a
# scratch database image and verifies the bytes that come back.
# Usage: lobtool_test.sh <lobtool> [python3]
set -euo pipefail
LOBTOOL="$1"
PY="${2:-python3}"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT
DB="$DIR/t.lobdb"

fail() { echo "lobtool_test: FAIL: $1"; exit 1; }

# expect_rc <code> <what> <command...>: the command exits with <code>.
expect_rc() {
  local want="$1" what="$2"
  shift 2
  set +e
  "$@" >/dev/null 2>&1
  local rc=$?
  set -e
  [ "$rc" -eq "$want" ] || fail "$what should exit $want (got $rc)"
}

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

# stats json is the schema-v2 snapshot alone, one JSON document: quantile
# columns per op label, pool hit/miss counters, buddy area stats.
"$LOBTOOL" "$DB" stats doc json > "$DIR/stats.json" || fail "stats json run"
"$PY" -c 'import json, sys
s = json.load(open(sys.argv[1]))
assert s["schema_version"] == 2, s["schema_version"]
assert "p99_ms" in s["ops"]["eos.read"], s["ops"]
assert {"areas", "faults", "pool"} <= set(s), sorted(s)' "$DIR/stats.json" \
  || fail "stats json parses as a schema-v2 snapshot with an eos.read p99_ms"
! grep -q '"registry"' "$DIR/stats.json" || fail "stats json registry block"
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
"$PY" -c 'import json,sys; json.load(sys.stdin)' < "$DIR/p1.json" \
  || fail "profile json parses"
"$LOBTOOL" profile "$DIR/demo.ops" esm --format=folded \
  --out="$DIR/flame_esm.folded" > "$DIR/out.stdout" || fail "profile --out"
[ -s "$DIR/flame_esm.folded" ] || fail "profile --out wrote file"
[ -s "$DIR/out.stdout" ] && fail "profile --out also wrote stdout"

# A range whose end passes 2^64 is out of range on every engine: exit 1
# and the image unchanged (the check must not wrap offset + bytes).
"$LOBTOOL" "$DB" put idx "$DIR/b.bin" >/dev/null || fail "put esm"
cp "$DB" "$DIR/before.lobdb"
for obj in doc pic idx; do
  expect_rc 1 "cat $obj past 2^64" \
    "$LOBTOOL" "$DB" cat "$obj" 1 18446744073709551615
  expect_rc 1 "delete $obj past 2^64" \
    "$LOBTOOL" "$DB" delete "$obj" 1 18446744073709551615
  cmp -s "$DB" "$DIR/before.lobdb" || fail "a range past 2^64 changed $obj"
done
"$LOBTOOL" "$DB" cat pic > "$DIR/b.out" || fail "cat after the range checks"
cmp -s "$DIR/b.bin" "$DIR/b.out" || fail "pic changed by the range checks"

"$LOBTOOL" "$DB" rm idx >/dev/null || fail "rm"
"$LOBTOOL" "$DB" info | grep -q 'objects: *2' || fail "info after rm"

# error paths: unknown object, unknown command, missing db
"$LOBTOOL" "$DB" cat nosuch >/dev/null 2>&1 && fail "cat nosuch should fail"
"$LOBTOOL" "$DB" frobnicate >/dev/null 2>&1 && fail "unknown cmd should fail"
"$LOBTOOL" "$DIR/absent.lobdb" ls >/dev/null 2>&1 && fail "missing db should fail"

# Malformed numbers are rejected, not truncated or guessed: exit 1, and
# nothing is changed or run.
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

echo "lobtool_test: PASS"
