// BufferPool: the paper's hybrid buffering scheme for large objects (3.2).
//
// A small pool of page frames (12 pages in the study) backed by SimDisk.
// Single pages are fixed/unfixed with pin counts and an LRU policy that
// frees least-recently-used *clean* pages before dirty ones. Multi-block
// segments of up to `max_pool_segment_pages` (4 in the study) physically
// adjacent pages can be read into contiguous frames with one I/O call.
// Larger segments bypass the pool: byte ranges that do not match block
// boundaries use the 3-step I/O of Figure 4 — the partial first and last
// blocks travel through the pool, the full middle blocks move directly
// between disk and the caller's buffer.
//
// Writes mirror reads: small runs are written into frames, marked dirty and
// flushed by the caller at operation end (one sequential I/O call per
// contiguous dirty run); large runs go directly to disk in one call.
//
// Zero-copy contract: clean frames *borrow* the SimDisk page image instead
// of holding a private copy (Frame::borrow; page images are stable for the
// life of the disk). A frame materializes — copies the image into its pool
// slot — the moment a caller takes a mutable view (PageGuard::mutable_data
// or MarkDirty), so dirty content lives only in the pool until flushed and
// an injected fault can never leak unflushed bytes into the disk image.
// Invariant: a borrowing frame is never dirty. `StorageConfig::
// pool_zero_copy = false` materializes every fetch immediately (the
// differential tests run both modes and demand identical images and
// modeled costs). None of this changes the metered call sequence: borrow
// vs copy is a wall-clock concern only.

#ifndef LOB_BUFFER_BUFFER_POOL_H_
#define LOB_BUFFER_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/arena.h"
#include "common/config.h"
#include "common/status.h"
#include "buffer/page_table.h"
#include "iomodel/sim_disk.h"

namespace lob {

class BufferPool;

/// RAII pin on one page frame. Movable, not copyable; unpins on destruction.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(BufferPool* pool, uint32_t slot);
  PageGuard(PageGuard&& other) noexcept;
  PageGuard& operator=(PageGuard&& other) noexcept;
  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  ~PageGuard();

  bool valid() const { return pool_ != nullptr; }

  /// Read-only view of the page. May point directly at the disk image
  /// (borrowed frame); valid while the pin is held.
  const char* data() const;

  /// Mutable view of the page; materializes a borrowed frame first so
  /// writes land in the pool, not the disk image. Does not mark dirty —
  /// call MarkDirty once the modification is real.
  char* mutable_data();

  /// Marks the pinned page dirty (materializing it if borrowed); it will
  /// be written back on flush/eviction.
  void MarkDirty();

  /// Explicitly unpins; the guard becomes invalid.
  void Release();

 private:
  BufferPool* pool_ = nullptr;
  uint32_t slot_ = 0;
};

/// How a page is fixed.
enum class FixMode {
  kRead,  ///< load from disk on miss
  kNew,   ///< do not load: caller will overwrite the whole page
};

/// Buffer pool over a SimDisk.
///
/// Confinement contract: a pool — and with it the StorageSystem around
/// it, whose trees, allocators, catalog and engines all reach the disk
/// through the pool (lint rule LOB004) — belongs to one thread, so it
/// holds no lock. The pool binds to the first thread that calls a
/// mutating entry point (fix, unpin, PageGuard::mutable_data/MarkDirty,
/// segment I/O, flush, invalidate, RestoreState); if any other thread
/// calls one later, the process aborts with a diagnostic naming both
/// threads. The check is always on, in every build type. Const
/// inspection (IsCached/IsDirty, counters, CachedPagesSorted, SaveState,
/// PageGuard::data) is not checked. Frame pointers handed out via
/// PageGuard stay valid while the pin is held.
class BufferPool {
 public:
  BufferPool(SimDisk* disk, const StorageConfig& config);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Pins `page` of `area` in the pool. With kRead the page is fetched on a
  /// miss (one 1-page I/O call); with kNew the frame is zero-initialized.
  [[nodiscard]]
  StatusOr<PageGuard> FixPage(AreaId area, PageId page, FixMode mode);

  /// Reads `n_bytes` starting `byte_off` bytes into the segment that begins
  /// at page `seg_first`, into `dst`, applying the hybrid policy above.
  /// `seg_valid_bytes` is the number of meaningful bytes in the segment
  /// (bytes past it read as zero without validation).
  [[nodiscard]] Status ReadSegmentRange(AreaId area, PageId seg_first,
                          uint64_t seg_valid_bytes, uint64_t byte_off,
                          uint64_t n_bytes, char* dst);

  /// Writes `n_bytes` at `byte_off` into the segment starting at
  /// `seg_first`. Boundary pages that intersect `seg_valid_bytes` and are
  /// only partially overwritten are read-modified-written; pages entirely
  /// past the valid bytes are not read. Small runs stay dirty in the pool
  /// (flush with FlushRun at operation end); large runs are written to disk
  /// immediately in one call.
  [[nodiscard]] Status WriteSegmentRange(AreaId area, PageId seg_first,
                           uint64_t seg_valid_bytes, uint64_t byte_off,
                           uint64_t n_bytes, const char* src);

  /// Writes `n_bytes` into a freshly allocated segment starting at `first`
  /// with a single I/O call, bypassing the pool (zero-padding the last
  /// page). Cached copies of the covered pages are refreshed. Use for
  /// shadow copies and newly created segments: "copy, update, flush" with
  /// one sequential write (paper 3.3/3.4).
  [[nodiscard]]
  Status WriteFreshSegment(AreaId area, PageId first, const char* data,
                           uint64_t n_bytes);

  /// Writes back every dirty cached page in [first, first+n_pages) using one
  /// I/O call per maximal contiguous dirty run; pages stay cached clean.
  [[nodiscard]] Status FlushRun(AreaId area, PageId first, uint32_t n_pages);

  /// Writes back all dirty pages (one call per page run per area).
  [[nodiscard]] Status FlushAll();

  /// Drops cached copies of [first, first+n_pages): dirty pages are *not*
  /// written back (their content is superseded); pinned pages are an error.
  [[nodiscard]] Status Invalidate(AreaId area, PageId first, uint32_t n_pages);

  /// True if the page currently resides in the pool.
  bool IsCached(AreaId area, PageId page) const;
  bool IsDirty(AreaId area, PageId page) const;

  uint32_t pool_pages() const { return config_.buffer_pool_pages; }
  uint32_t page_size() const { return config_.page_size; }
  SimDisk* disk() const { return disk_; }

  /// Number of FixPage calls served without disk I/O (for tests/metrics).
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  /// Number of valid frames evicted to make room (dirty or clean).
  uint64_t evictions() const { return evictions_; }

  /// One entry of the ordered cached-page enumeration below.
  struct CachedPage {
    AreaId area = 0;
    PageId page = kInvalidPage;
    bool dirty = false;

    bool operator==(const CachedPage& o) const {
      return area == o.area && page == o.page && dirty == o.dirty;
    }
  };

  /// Ordered enumeration of the cached pages, sorted by (area, page).
  ///
  /// This is the only sanctioned way to walk the pool's contents for
  /// stats/timeline/trace output: the internal lookup table is an
  /// open-addressing hash table whose bucket order is hash- and history-
  /// dependent, so enumerating it directly would leak nondeterministic
  /// ordering into exporters (tools/lob_lint.py rule LOB002/unordered-iter
  /// rejects such iteration; the buffer_pool_test permutation test pins
  /// this function's insertion-order independence).
  std::vector<CachedPage> CachedPagesSorted() const;

 private:
  friend class PageGuard;

  struct Frame {
    AreaId area = 0;
    PageId page = kInvalidPage;
    /// Borrowed disk page image backing a clean frame; nullptr when the
    /// frame's pool slot holds the bytes. Never set while dirty.
    const char* borrow = nullptr;
    bool valid = false;
    bool dirty = false;
    uint32_t pins = 0;
    uint64_t lru = 0;
  };

  /// Binds the pool to the calling thread on first use and aborts when
  /// any other thread calls later (see the class comment).
  void CheckOwner();

  char* SlotData(uint32_t slot) {
    return arena_.data() + static_cast<size_t>(slot) * config_.page_size;
  }
  const char* SlotData(uint32_t slot) const {
    return arena_.data() + static_cast<size_t>(slot) * config_.page_size;
  }

  /// The frame's current bytes: the borrowed image or the pool slot.
  const char* FrameData(uint32_t slot) const {
    const Frame& f = frames_[slot];
    return f.borrow != nullptr ? f.borrow : SlotData(slot);
  }

  /// Copies a borrowed image into the frame's pool slot (no-op when
  /// already materialized) and returns the now-private slot bytes.
  char* MaterializeSlot(uint32_t slot);

  static uint64_t Key(AreaId area, PageId page) {
    return (static_cast<uint64_t>(area) << 32) | page;
  }

  int FindSlot(AreaId area, PageId page) const;

  /// Picks a victim frame (unpinned; clean preferred, then LRU), writing a
  /// dirty victim back. Returns slot or error if everything is pinned.
  [[nodiscard]] StatusOr<uint32_t> GetFreeSlot();

  /// Evicts whatever lives in `slot` (must be unpinned), flushing if dirty.
  [[nodiscard]] Status EvictSlot(uint32_t slot);

  /// Flushes (if dirty) and drops any cached pages within the range.
  /// Fails if one of them is pinned.
  [[nodiscard]]
  Status FlushAndDropRange(AreaId area, PageId first, uint32_t n_pages);

  void Unpin(uint32_t slot);

  /// The owning thread; empty until the first mutating call binds it.
  std::atomic<std::thread::id> owner_{};
  SimDisk* const disk_;
  const StorageConfig config_;
  std::vector<char> arena_;
  std::vector<Frame> frames_;
  PageTable map_;
  /// Staging for run I/O gather/scatter arrays.
  ScratchArena scratch_;
  uint64_t tick_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;

 public:
  /// Opaque snapshot of the cached state: page contents, frame table,
  /// lookup map, LRU clock and hit/miss counters. Audit walks (e.g.
  /// timeline sampling, which reads index pages through the pool inside
  /// an UnmeteredSection) bracket themselves with SaveState/RestoreState
  /// so inspecting storage state cannot perturb the eviction order — and
  /// therefore the measured cost — of the operations that follow. Both
  /// calls require every frame to be unpinned. Borrowed frames snapshot
  /// by pointer: page images never move or disappear, and a read-only
  /// walk can only write a page image by evicting a dirty frame for it —
  /// which cannot coexist with a borrowed frame for the same page.
  struct State {
   private:
    friend class BufferPool;
    std::vector<char> arena;
    std::vector<Frame> frames;
    PageTable map;
    uint64_t tick = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
  };
  State SaveState() const;
  void RestoreState(const State& state);
};

}  // namespace lob

#endif  // LOB_BUFFER_BUFFER_POOL_H_
