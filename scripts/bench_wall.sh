#!/usr/bin/env bash
# Wall-clock profile of the bench suite: runs every converted bench at
# --jobs=1 and --jobs=$JOBS, collects each bench's --bench-json profile
# (per-configuration wall ms next to modeled ms), and assembles
# BENCH_suite.json — the repo's perf-trajectory record.
#
# Usage: scripts/bench_wall.sh [--full]
#   default is --quick scale; JOBS=<n> overrides the parallel worker
#   count (default: number of cores, floor 4 so the speedup comparison is
#   meaningful even on small CI machines). LOB_BENCH_HOST_NOTE=<text>
#   annotates every BENCH_*.json and the suite file with a host
#   description, so committed artifacts are self-explaining.
set -euo pipefail
cd "$(dirname "$0")/.."

SCALE="--quick"
if [ "${1:-}" = "--full" ]; then SCALE=""; fi
JOBS="${JOBS:-$(nproc)}"
if [ "$JOBS" -lt 4 ]; then JOBS=4; fi
HOST_NOTE="${LOB_BENCH_HOST_NOTE:-}"

# Single-core hosts cannot measure parallel speedup: --jobs=N still runs
# every cell on the one hardware thread, so wall_ms_jobsN ~= wall_ms_jobs1
# and the "speedup" column reads ~1.0x without any real regression. Say
# so loudly in the artifact itself (host_note) instead of letting the
# suite profile masquerade as a scaling problem; check_perf.py reads
# hardware_threads and explicitly SKIPs its jobs-scaling gate here.
if [ "$(nproc)" -eq 1 ]; then
  WARN="single-core host: jobs-scaling numbers are not meaningful"
  echo "warning: $WARN" >&2
  if [ -n "$HOST_NOTE" ]; then
    HOST_NOTE="$HOST_NOTE; $WARN"
  else
    HOST_NOTE="$WARN"
  fi
fi
export LOB_BENCH_HOST_NOTE="$HOST_NOTE"

if [ ! -f build/CMakeCache.txt ]; then
  cmake -B build -G Ninja > /dev/null
fi
cmake --build build -j "$(nproc)" > /dev/null
mkdir -p results

# Every bench converted to the parallel experiment engine.
BENCHES=(
  fig5_build_time
  fig6_seq_scan
  fig7_esm_utilization
  fig8_eos_utilization
  fig9_esm_read_cost
  fig10_eos_read_cost
  fig11_esm_insert_cost
  fig12_eos_insert_cost
  ext_delete_cost
  ext_build_scaling
  ext_update_scaling
  ext_pool_ablation
  ext_shadowing_ablation
  ext_esm_insert_ablation
  ext_summary_comparison
  ext_multi_object
)

now_ms() { echo $(( $(date +%s%N) / 1000000 )); }

total_j1=0
total_jn=0
bench_entries=""

for b in "${BENCHES[@]}"; do
  bin="build/bench/$b"
  [ -x "$bin" ] || { echo "missing $bin" >&2; exit 1; }

  t0=$(now_ms)
  "$bin" $SCALE --jobs=1 > /dev/null
  t1=$(now_ms)
  wall_j1=$(( t1 - t0 ))

  t0=$(now_ms)
  "$bin" $SCALE --jobs="$JOBS" --bench-json="results/BENCH_${b}.json" \
    > /dev/null
  t1=$(now_ms)
  wall_jn=$(( t1 - t0 ))

  total_j1=$(( total_j1 + wall_j1 ))
  total_jn=$(( total_jn + wall_jn ))
  speedup=$(awk -v a="$wall_j1" -v b="$wall_jn" \
    'BEGIN { printf "%.2f", (b > 0 ? a / b : 0) }')
  echo "== $b: jobs=1 ${wall_j1} ms, jobs=$JOBS ${wall_jn} ms (${speedup}x)"

  profile=$(cat "results/BENCH_${b}.json")
  entry=$(printf \
    '{"wall_ms_jobs1": %s, "wall_ms_jobsN": %s, "speedup": %s, "profile": %s}' \
    "$wall_j1" "$wall_jn" "$speedup" "$profile")
  if [ -n "$bench_entries" ]; then bench_entries+=$',\n'; fi
  bench_entries+="$entry"
done

suite_speedup=$(awk -v a="$total_j1" -v b="$total_jn" \
  'BEGIN { printf "%.2f", (b > 0 ? a / b : 0) }')

# Single-thread cell throughput (cells/sec, modeled pages/sec): the
# machine-checkable number behind the perf trajectory, emitted under
# "metrics" in BENCH_micro_substrates.json and compared against
# results/BENCH_micro_baseline.json by scripts/check_perf.py (CI
# perf-smoke gate).
build/bench/micro_substrates --cells=6 \
  --bench-json=results/BENCH_micro_substrates.json
cells_per_sec=$(python3 -c "import json; \
print(json.load(open('results/BENCH_micro_substrates.json'))['metrics']['cells_per_sec'])")
micro_profile=$(cat results/BENCH_micro_substrates.json)

{
  printf '{\n'
  printf '  "suite": "lobstore reproduction benches",\n'
  printf '  "scale": "%s",\n' "${SCALE:---full}"
  printf '  "jobs": %s,\n' "$JOBS"
  printf '  "hardware_threads": %s,\n' "$(nproc)"
  printf '  "host_note": "%s",\n' "$HOST_NOTE"
  printf '  "wall_ms_jobs1_total": %s,\n' "$total_j1"
  printf '  "wall_ms_jobsN_total": %s,\n' "$total_jn"
  printf '  "suite_speedup": %s,\n' "$suite_speedup"
  printf '  "cells_per_sec": %s,\n' "$cells_per_sec"
  printf '  "micro_substrates": %s,\n' "$micro_profile"
  printf '  "benches": [\n%s\n  ]\n' "$bench_entries"
  printf '}\n'
} > BENCH_suite.json

echo
echo "suite: jobs=1 ${total_j1} ms, jobs=$JOBS ${total_jn} ms" \
     "(${suite_speedup}x), ${cells_per_sec} cells/sec -> BENCH_suite.json"
