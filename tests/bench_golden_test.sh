#!/usr/bin/env bash
# Golden gate for modeled output: reruns every bench at --quick and diffs
# its stdout against the committed tests/golden/<bench>.txt. The output is
# the same for any --jobs, so the gate runs them at --jobs=4. Every bench
# executable except micro_substrates (wall-clock output) must have a
# golden. A change that moves modeled output regenerates the goldens in
# the same diff and says why (CONTRIBUTING.md "Golden output").
# Usage: bench_golden_test.sh <bench-dir> <golden-dir>
set -euo pipefail
BENCH_DIR="$1"
GOLDEN_DIR="$2"
OUT="$(mktemp -d)"
trap 'rm -rf "$OUT"' EXIT

failed=0
for exe in "$BENCH_DIR"/*; do
  [[ -f "$exe" && -x "$exe" ]] || continue
  name="$(basename "$exe")"
  [[ "$name" == micro_substrates ]] && continue
  if [[ ! -f "$GOLDEN_DIR/$name.txt" ]]; then
    echo "bench_golden: FAIL: no golden for $name"
    failed=1
  fi
done

checked=0
for golden in "$GOLDEN_DIR"/*.txt; do
  name="$(basename "$golden" .txt)"
  if ! "$BENCH_DIR/$name" --quick --jobs=4 > "$OUT/$name.txt"; then
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

[[ "$checked" -gt 0 ]] || { echo "bench_golden: FAIL: no goldens"; exit 1; }
[[ "$failed" -eq 0 ]] || exit 1
echo "bench_golden: $checked benches match their goldens"
