// Small integer helpers shared across modules.

#ifndef LOB_COMMON_MATH_UTIL_H_
#define LOB_COMMON_MATH_UTIL_H_

#include <bit>
#include <cstdint>

#include "common/logging.h"

namespace lob {

/// ceil(a / b) for non-negative a, positive b.
constexpr uint64_t CeilDiv(uint64_t a, uint64_t b) { return (a + b - 1) / b; }

/// True iff the byte range [offset, offset + n) lies within [0, size).
/// Unlike `offset + n <= size`, the test cannot wrap past 2^64.
constexpr bool RangeWithin(uint64_t offset, uint64_t n, uint64_t size) {
  return offset <= size && n <= size - offset;
}

/// True iff `x` is a power of two (0 is not).
constexpr bool IsPowerOfTwo(uint64_t x) { return x != 0 && (x & (x - 1)) == 0; }

/// Smallest power of two >= x (x >= 1).
constexpr uint64_t RoundUpPowerOfTwo(uint64_t x) {
  return x <= 1 ? 1 : std::bit_ceil(x);
}

/// floor(log2(x)) for x >= 1.
constexpr uint32_t FloorLog2(uint64_t x) {
  return static_cast<uint32_t>(63 - std::countl_zero(x));
}

/// ceil(log2(x)) for x >= 1; i.e. the buddy order whose block count covers x.
constexpr uint32_t CeilLog2(uint64_t x) {
  return x <= 1 ? 0 : FloorLog2(x - 1) + 1;
}

}  // namespace lob

#endif  // LOB_COMMON_MATH_UTIL_H_
