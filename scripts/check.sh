#!/usr/bin/env bash
# Sanitizer gate, three passes:
#  1. ASan+UBSan (-DLOB_SANITIZE=ON): the full test suite, Debug build so
#     the LOB_CHECK underflow guards in IoStats::operator- are active too.
#  2. TSan (-DLOB_SANITIZE=thread): the FULL test suite minus the `death`
#     label — gtest death tests fork(), which TSan cannot follow; every
#     other test (including the fault campaign, bench/trace determinism
#     gates, the thread-confined storage layer and the lock-free,
#     job-owned obs/trace/timeline recorders) runs under the race
#     detector.
#  3. Zero-overhead proof (-DLOB_TRACING=OFF): with tracing compiled out,
#     a bench run must produce byte-identical output to the tracing-ON
#     build — the hooks are free when the feature is off.
# Usage: scripts/check.sh [ctest-args...]
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build-sanitize -G Ninja \
  -DCMAKE_BUILD_TYPE=Debug \
  -DLOB_SANITIZE=ON
cmake --build build-sanitize
ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
  ctest --test-dir build-sanitize --output-on-failure "$@"

cmake -B build-tsan -G Ninja \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DLOB_SANITIZE=thread
cmake --build build-tsan
TSAN_OPTIONS=halt_on_error=1 \
  ctest --test-dir build-tsan --output-on-failure -LE death "$@"

# Pass 3: tracing compiled out must be invisible to the benches.
cmake -B build-notrace -G Ninja \
  -DCMAKE_BUILD_TYPE=Release \
  -DLOB_TRACING=OFF
cmake --build build-notrace --target fig9_esm_read_cost fig5_build_time
cmake -B build-trace-on -G Ninja \
  -DCMAKE_BUILD_TYPE=Release \
  -DLOB_TRACING=ON
cmake --build build-trace-on --target fig9_esm_read_cost fig5_build_time
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
build-trace-on/bench/fig9_esm_read_cost --quick --csv --jobs=4 \
  > "$tmpdir/fig9_on.csv"
build-notrace/bench/fig9_esm_read_cost --quick --csv --jobs=4 \
  > "$tmpdir/fig9_off.csv"
cmp "$tmpdir/fig9_on.csv" "$tmpdir/fig9_off.csv" || {
  echo "FAIL: LOB_TRACING=OFF changed fig9 bench output" >&2
  exit 1
}
build-trace-on/bench/fig5_build_time --quick --jobs=1 > "$tmpdir/fig5_on.txt"
build-notrace/bench/fig5_build_time --quick --jobs=1 > "$tmpdir/fig5_off.txt"
cmp "$tmpdir/fig5_on.txt" "$tmpdir/fig5_off.txt" || {
  echo "FAIL: LOB_TRACING=OFF changed fig5 bench output" >&2
  exit 1
}
echo "PASS: LOB_TRACING=OFF reproduces tracing-ON bench output byte-for-byte"
