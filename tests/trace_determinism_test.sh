#!/usr/bin/env bash
# Determinism gate for the modeled-clock trace exporters: the span trace
# and the timeline CSV are deterministic functions of the workload, so
# the exported bytes must be identical for any worker count (the harness
# keeps one TraceSession/TimelineSampler per cell and merges them in
# submission order). Also validates the exported JSON against the
# checked-in schema (tests/trace_schema.json) when python3 is available.
# Usage: trace_determinism_test.sh <fig9_binary> <schema_path>
set -euo pipefail

FIG9="$1"
SCHEMA="$2"

fail() {
  echo "FAIL: $1" >&2
  exit 1
}

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

# 1. --trace bytes must be identical for --jobs 0 (inline), 1 and 4.
for j in 0 1 4; do
  "$FIG9" --quick --csv --jobs="$j" --trace="$tmpdir/trace_j$j.json" \
    --timeline="$tmpdir/timeline_j$j.csv" > "$tmpdir/stdout_j$j.csv"
done
for j in 0 4; do
  cmp "$tmpdir/trace_j1.json" "$tmpdir/trace_j$j.json" \
    || fail "--trace bytes differ between --jobs=1 and --jobs=$j"
  cmp "$tmpdir/timeline_j1.csv" "$tmpdir/timeline_j$j.csv" \
    || fail "--timeline bytes differ between --jobs=1 and --jobs=$j"
  cmp "$tmpdir/stdout_j1.csv" "$tmpdir/stdout_j$j.csv" \
    || fail "stdout differs between --jobs=1 and --jobs=$j with exporters on"
done

# 2. Exporting a trace must not perturb the measured results: stdout with
#    the exporters attached equals stdout without them. That includes the
#    --obs ledger: the timeline sampler's ops run unmetered and are not
#    counted.
"$FIG9" --quick --csv --jobs=4 > "$tmpdir/stdout_plain.csv"
cmp "$tmpdir/stdout_plain.csv" "$tmpdir/stdout_j4.csv" \
  || fail "--trace/--timeline changed the bench results"
"$FIG9" --quick --obs --jobs=4 > "$tmpdir/obs_plain.txt"
"$FIG9" --quick --obs --jobs=4 --trace="$tmpdir/trace_obs.json" \
  --timeline="$tmpdir/timeline_obs.csv" > "$tmpdir/obs_exported.txt"
cmp "$tmpdir/obs_plain.txt" "$tmpdir/obs_exported.txt" \
  || fail "--trace/--timeline changed the --obs ledger"

# 3. The timeline CSV has the shared header and one config column per
#    (mean_op x engine) cell.
head -1 "$tmpdir/timeline_j1.csv" | grep -q '^config,ops,modeled_ms' \
  || fail "timeline CSV header missing"
[ "$(wc -l < "$tmpdir/timeline_j1.csv")" -gt 1 ] \
  || fail "timeline CSV has no sample rows"

# 4. The trace is valid JSON and matches the checked-in schema shape.
if command -v python3 > /dev/null 2>&1; then
  python3 - "$tmpdir/trace_j1.json" "$SCHEMA" <<'EOF' \
    || fail "trace JSON does not match tests/trace_schema.json"
import json, sys

trace = json.load(open(sys.argv[1]))
schema = json.load(open(sys.argv[2]))  # keeps the schema itself valid JSON

assert trace["displayTimeUnit"] == "ms", "displayTimeUnit"
events = trace["traceEvents"]
assert isinstance(events, list) and events, "traceEvents empty"
cats = set()
pids = set()
with_io = 0
for e in events:
    pids.add(e["pid"])
    if e["ph"] == "M":
        assert e["name"] == "process_name", e
        assert isinstance(e["args"]["name"], str) and e["args"]["name"], e
    elif e["ph"] == "X":
        assert e["cat"] in ("op", "phase"), e
        assert e["ts"] >= 0 and e["dur"] >= 0, e
        assert isinstance(e["name"], str) and e["name"], e
        cats.add(e["cat"])
        # A span that did I/O carries its calls and pages; its duration is
        # exactly their modeled cost (33 ms seek + 4 ms per page).
        if "args" in e:
            a = e["args"]
            assert set(a) == {"reads", "writes", "pages"}, e
            calls = a["reads"] + a["writes"]
            assert calls > 0 and a["pages"] >= calls, e
            assert abs(e["dur"] - 1000 * (33 * calls + 4 * a["pages"])) < 1e-3, e
            with_io += 1
        else:
            assert e["dur"] == 0, e
    else:
        raise AssertionError(f"unexpected ph {e['ph']}")
# A mix-figure run exercises ops and sub-phases in every cell.
assert cats == {"op", "phase"}, cats
assert with_io > 0, "no span carries I/O"
assert len(pids) > 1, "expected one pid per merged cell"
EOF
else
  echo "note: python3 unavailable, skipping JSON schema validation" >&2
fi

echo "PASS: trace/timeline exports are byte-deterministic and well-formed"
