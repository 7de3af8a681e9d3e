// Substrate configuration shared by all three large object managers.
//
// Defaults correspond to Table 1 of the paper (Biliris, SIGMOD '92):
// 4K-byte pages, a 12-page buffer pool, at most 4 physically adjacent pages
// read into the pool with one I/O call. The paper fixes its disk (33 ms
// seek, 1 K-byte/ms transfer) and Starburst's copy buffer, so those are
// constants rather than fields.

#ifndef LOB_COMMON_CONFIG_H_
#define LOB_COMMON_CONFIG_H_

#include <cstdint>

namespace lob {

/// Cost of one disk seek, including rotational delay, in milliseconds
/// (Table 1). Charged once per I/O call regardless of the call's size.
inline constexpr double kSeekMs = 33.0;

/// Disk transfer rate in K-bytes per millisecond (Table 1).
inline constexpr double kTransferKbPerMs = 1.0;

/// Size of the staging buffer Starburst copies long-field segments through
/// during inserts and deletes (paper 3.5: a 512 K-byte virtual memory
/// space).
inline constexpr uint32_t kCopyBufferBytes = 512 * 1024;

/// Configuration of the simulated storage substrate.
struct StorageConfig {
  /// Disk block (page) size in bytes. The smallest unit of I/O.
  uint32_t page_size = 4096;

  /// Number of page frames in the buffer pool.
  uint32_t buffer_pool_pages = 12;

  /// Largest segment (in pages) that may be read into the pool in one step;
  /// larger segments bypass the pool (paper 3.2).
  uint32_t max_pool_segment_pages = 4;

  /// log2 of the number of data blocks per buddy space. The default 2^14
  /// blocks = 64 M-bytes per space with 4K pages, each preceded by a 1-block
  /// directory; segments of up to half a space (32 M-bytes) can be allocated,
  /// matching the paper's 3.1.
  uint32_t buddy_space_order = 14;

  /// Whole-segment shadowing for recovery (paper 3.3). When true, any update
  /// that overwrites useful bytes of a segment or an index page (except the
  /// root) relocates it to freshly allocated space; pure appends happen in
  /// place. When false, all updates happen in place (ablation switch).
  bool shadowing = true;

  /// Zero-copy page access: buffer pool frames borrow clean page bytes
  /// directly from the simulated disk image and copy-on-write into their
  /// private frame only when modified. Purely a wall-clock optimization —
  /// modeled costs, call sequences and disk images are identical either
  /// way (tests/zero_copy_test.cc runs both modes differentially). Turn
  /// off to force the historical always-copy behavior.
  bool pool_zero_copy = true;

  /// Transfer cost of one page in milliseconds.
  double PageTransferMs() const {
    return static_cast<double>(page_size) / 1024.0 / kTransferKbPerMs;
  }

  /// Bytes per buddy space (excluding its directory block).
  uint64_t BuddySpaceBytes() const {
    return (uint64_t{1} << buddy_space_order) * page_size;
  }
};

}  // namespace lob

#endif  // LOB_COMMON_CONFIG_H_
