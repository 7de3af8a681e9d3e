#!/usr/bin/env bash
# Golden gate for modeled output: reruns every bench at --quick and diffs
# its stdout against the committed tests/golden/<bench>.txt. The output is
# the same for any --jobs, so the gate runs them at --jobs=4. The benches
# are the executables given on the command line (bench/CMakeLists.txt
# passes every bench target). Each of them except micro_substrates
# (wall-clock output) must have a golden, each golden must name one of
# them, and each of them must be named in EXPERIMENTS.md. A change that
# moves modeled output regenerates the goldens in the same diff and says
# why (CONTRIBUTING.md "Golden output").
# Usage: bench_golden_test.sh <golden-dir> <EXPERIMENTS.md> <bench-exe>...
set -euo pipefail
GOLDEN_DIR="$1"
EXPERIMENTS="$2"
shift 2
OUT="$(mktemp -d)"
trap 'rm -rf "$OUT"' EXIT

failed=0
declare -A is_bench
for exe in "$@"; do
  name="$(basename "$exe")"
  is_bench[$name]=1
  if ! grep -qw -- "$name" "$EXPERIMENTS"; then
    echo "bench_golden: FAIL: $name is not named in EXPERIMENTS.md"
    failed=1
  fi
done

for golden in "$GOLDEN_DIR"/*.txt; do
  name="$(basename "$golden" .txt)"
  if [[ -z "${is_bench[$name]:-}" ]]; then
    echo "bench_golden: FAIL: golden $name.txt has no bench"
    failed=1
  fi
done

checked=0
for exe in "$@"; do
  name="$(basename "$exe")"
  [[ "$name" == micro_substrates ]] && continue
  golden="$GOLDEN_DIR/$name.txt"
  if [[ ! -f "$golden" ]]; then
    echo "bench_golden: FAIL: no golden for $name"
    failed=1
    continue
  fi
  if ! "$exe" --quick --jobs=4 > "$OUT/$name.txt"; then
    echo "bench_golden: FAIL: $name --quick exited non-zero"
    failed=1
    continue
  fi
  if ! diff -u "$golden" "$OUT/$name.txt" > "$OUT/$name.diff"; then
    echo "bench_golden: FAIL: $name --quick differs from its golden:"
    head -n 40 "$OUT/$name.diff"
    failed=1
  fi
  checked=$((checked + 1))
done

[[ "$checked" -gt 0 ]] || { echo "bench_golden: FAIL: no benches"; exit 1; }
[[ "$failed" -eq 0 ]] || exit 1
echo "bench_golden: $checked benches match their goldens"
