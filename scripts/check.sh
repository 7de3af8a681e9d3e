#!/usr/bin/env bash
# Sanitizer gate, two passes:
#  1. ASan+UBSan (-DLOB_SANITIZE=ON): the full test suite, Debug build so
#     the LOB_CHECK underflow guards in IoStats::operator- are active too.
#  2. TSan (-DLOB_SANITIZE=thread): the FULL test suite minus the `death`
#     label — gtest death tests fork(), which TSan cannot follow; every
#     other test (including the fault campaign, bench/trace determinism
#     gates, the thread-confined storage layer and the lock-free,
#     job-owned obs/trace/timeline recorders) runs under the race
#     detector.
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

