#!/usr/bin/env bash
# Verdicts of the perf-smoke gate, scripts/check_perf.py, on synthetic
# profiles: one case per outcome of the cells/sec gate (20% tolerance),
# the exact per-op p99 gate, input errors and the jobs-scaling check.
# Exit codes: 0 clean, 1 violation, 2 missing or unparseable input.
# Usage: check_perf_test.sh <python3> <check_perf.py>
set -euo pipefail
PY="$1"
SCRIPT="$2"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

fail() { echo "check_perf_test: FAIL: $1"; exit 1; }

# base.json has two op labels; every other profile is one edit of it.
"$PY" - "$DIR" <<'EOF'
import copy, json, sys

d = sys.argv[1]
base = {"metrics": {"cells_per_sec": 100.0},
        "metrics_snapshot": {"ops": {"eos.read": {"p99_ms": 50.0},
                                     "esm.append": {"p99_ms": 133.0}}}}

def write(name, doc):
    with open(f"{d}/{name}.json", "w") as f:
        json.dump(doc, f)

def edit(name, fn):
    doc = copy.deepcopy(base)
    fn(doc)
    write(name, doc)

write("base", base)
edit("slow79", lambda p: p["metrics"].update(cells_per_sec=79.0))
edit("slow81", lambda p: p["metrics"].update(cells_per_sec=81.0))
edit("p99_up", lambda p: p["metrics_snapshot"]["ops"]["eos.read"]
     .update(p99_ms=50.01))
edit("fewer_ops", lambda p: p["metrics_snapshot"]["ops"].pop("esm.append"))
edit("more_ops", lambda p: p["metrics_snapshot"]["ops"]
     .update({"eos.insert": {"p99_ms": 1.0}}))
edit("no_ops", lambda p: p["metrics_snapshot"]["ops"].clear())
write("suite_1core", {"hardware_threads": 1, "jobs": 4,
                      "suite_speedup": 0.91})
write("suite_flat", {"hardware_threads": 4, "jobs": 4, "suite_speedup": 1.0})
write("suite_fast", {"hardware_threads": 4, "jobs": 4, "suite_speedup": 2.0})
EOF
printf '{"metrics": {"cells_per_sec": ' > "$DIR/torn.json"

# expect <exit code> <output pattern> <case> <baseline> <fresh> [suite]
expect() {
  local want="$1" pattern="$2" what="$3" base="$4" fresh="$5"
  local suite="${6:-absent}" rc=0
  "$PY" "$SCRIPT" --baseline="$DIR/$base.json" --fresh="$DIR/$fresh.json" \
    --suite="$DIR/$suite.json" > "$DIR/out.txt" 2>&1 || rc=$?
  [ "$rc" -eq "$want" ] || { cat "$DIR/out.txt"; fail "$what: exit $rc, not $want"; }
  grep -q -- "$pattern" "$DIR/out.txt" \
    || { cat "$DIR/out.txt"; fail "$what: no \"$pattern\" in the output"; }
  echo "ok: $what (exit $rc)"
}

expect 0 'check_perf: OK' "a profile against itself" base base
expect 0 '^metrics_snapshot.ops.esm.append.p99_ms ' "every label is a row" \
  base base
expect 1 'VIOLATION: metrics.cells_per_sec 100 -> 79' \
  "cells_per_sec x 0.79" base slow79
expect 0 'check_perf: OK' "cells_per_sec x 0.81" base slow81
expect 1 'VIOLATION: metrics_snapshot.ops.eos.read.p99_ms 50 -> 50.01' \
  "one p99_ms up by 0.01" base p99_up
expect 1 'esm.append.p99_ms missing from the fresh run' \
  "a label only in the baseline" base fewer_ops
expect 1 'eos.insert.p99_ms missing from the baseline' \
  "a label only in the fresh run" base more_ops
expect 1 'rotted gate' "no op label on either side" no_ops no_ops
expect 2 'cannot read .*/absent.json' "a missing fresh profile" base absent
expect 2 'cannot read .*/torn.json' "an unparseable fresh profile" base torn
expect 0 'SKIP jobs-scaling gate: no ' "no suite profile" base base
expect 0 'SKIP jobs-scaling gate: single-core host' "a 1-thread suite" \
  base base suite_1core
expect 1 'suite_speedup 1.00 < 1.05' "speedup 1.0 on 4 threads" \
  base base suite_flat
expect 0 'jobs-scaling OK (suite_speedup 2.00' "speedup 2.0 on 4 threads" \
  base base suite_fast

echo "check_perf_test: PASS"
