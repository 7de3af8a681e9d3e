#!/usr/bin/env bash
# Acceptance guard for the LOB_GUARDED_BY annotation on the campaign's
# progress counter, the tree's last guarded member: removing it must
# demonstrably break the build gate.
#
# Under Clang, *deleting* an annotation only relaxes the analysis (the
# compiler cannot miss what is no longer claimed), so the enforced side of
# the contract is lob_lint's LOB009 member check: every mutable member of
# a mutex-holding class must carry a guard annotation. This test strips
# each LOB_GUARDED_BY from a copy of src/exec/campaign.cc, one at a
# time, and asserts the linter reports the now-unguarded member.
#
# Usage: guard_strip_test.sh <repo-root>

set -u
ROOT="$1"
SRC="$ROOT/src/exec/campaign.cc"
LINT="$ROOT/tools/lob_lint.py"
PY="${PYTHON:-python3}"

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

n=$(grep -c "LOB_GUARDED_BY" "$SRC")
if [ "$n" -lt 1 ]; then
  echo "FAIL: no LOB_GUARDED_BY annotations found in $SRC"
  exit 1
fi
echo "stripping each of $n LOB_GUARDED_BY annotation(s) in turn"

# Baseline: the unmodified source (re-pinned to its real path) is clean.
base="$TMP/baseline.cc"
{
  echo "// LOBLINT-FIXTURE-PATH: src/exec/campaign.cc"
  cat "$SRC"
} >"$base"
if ! "$PY" "$LINT" --root "$ROOT" "$base" >"$TMP/baseline.out" 2>&1; then
  echo "FAIL: pristine campaign.cc is not lint-clean:"
  cat "$TMP/baseline.out"
  exit 1
fi

fail=0
for i in $(seq 1 "$n"); do
  stripped="$TMP/stripped_$i.cc"
  {
    echo "// LOBLINT-FIXTURE-PATH: src/exec/campaign.cc"
    awk -v k="$i" '
      {
        line = $0
        out = ""
        while (match(line, /LOB_GUARDED_BY\([^)]*\)/)) {
          ++c
          if (c == k) {
            out = out substr(line, 1, RSTART - 1)
          } else {
            out = out substr(line, 1, RSTART + RLENGTH - 1)
          }
          line = substr(line, RSTART + RLENGTH)
        }
        print out line
      }' "$SRC"
  } >"$stripped"
  if "$PY" "$LINT" --root "$ROOT" "$stripped" >"$TMP/out_$i" 2>&1; then
    echo "FAIL: stripping annotation #$i went undetected"
    fail=1
  elif ! grep -q "LOB009" "$TMP/out_$i"; then
    echo "FAIL: stripping annotation #$i tripped something other than" \
         "LOB009:"
    cat "$TMP/out_$i"
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  exit 1
fi
echo "guard-strip: all $n annotation removals were caught by LOB009"
