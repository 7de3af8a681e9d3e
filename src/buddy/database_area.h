// DatabaseArea: a disk area whose space is managed by the buddy system
// (paper 3.1).
//
// An area consists of a number of buddy spaces. Each space is a fixed-length
// sequence of physically adjacent blocks preceded by a 1-block directory
// holding the space's allocation bitmap. A main-memory *superdirectory*
// records (an upper bound on) the largest free segment in each space so
// that allocation requests skip spaces that cannot possibly satisfy them;
// in steady state an allocation or deallocation touches at most one
// directory block, regardless of the database size.
//
// Directory blocks are accessed through the buffer pool, so their I/O cost
// emerges naturally: a hot directory costs nothing, a cold one costs one
// page read, and modified directories are written back on eviction or
// flush.
//
// The area holds no lock: like the rest of a StorageSystem it is confined
// to one thread, which the buffer pool its directory blocks go through
// checks (see buffer/buffer_pool.h).

#ifndef LOB_BUDDY_DATABASE_AREA_H_
#define LOB_BUDDY_DATABASE_AREA_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "buddy/buddy_tree.h"
#include "buffer/buffer_pool.h"
#include "common/config.h"
#include "common/status.h"
#include "iomodel/sim_disk.h"

namespace lob {

/// A run of physically adjacent pages returned by the allocator.
struct Segment {
  PageId first_page = kInvalidPage;  ///< area-relative page number
  uint32_t pages = 0;
};

/// Buddy-managed database area. Grows by appending buddy spaces on demand.
class DatabaseArea {
 public:
  /// `area` must be an id obtained from disk->CreateArea(). The pool is
  /// used for directory-block I/O.
  DatabaseArea(BufferPool* pool, AreaId area, const StorageConfig& config);

  DatabaseArea(const DatabaseArea&) = delete;
  DatabaseArea& operator=(const DatabaseArea&) = delete;

  /// Allocates a segment of exactly `n_pages` physically adjacent pages
  /// (internally a power-of-two chunk with the tail trimmed).
  [[nodiscard]] StatusOr<Segment> Allocate(uint32_t n_pages);

  /// Frees any sub-range of previously allocated pages.
  ///
  /// Free is *infallible under I/O faults*: the authoritative in-memory
  /// buddy tree is updated first, and a failure to rewrite the on-disk
  /// directory block is absorbed (the space is marked dirty and re-synced
  /// by the next successful Allocate/Free touching it, or explicitly by
  /// SyncDirectories). This is what lets error-path rollback release
  /// already-acquired extents unconditionally: if Free could fail midway
  /// through a rollback, a torn update would leak the extent forever.
  /// Misuse (double free, range outside any space, freeing a directory
  /// block) still returns an error.
  [[nodiscard]] Status Free(PageId first_page, uint32_t n_pages);

  /// Frees a whole segment.
  [[nodiscard]]
  Status Free(const Segment& seg) { return Free(seg.first_page, seg.pages); }

  /// Rewrites the on-disk directory of every space whose bitmap write was
  /// absorbed by a fault-tolerant Free (or a fault-tolerant AddSpace).
  /// Call before persisting the area (Database::Save does).
  [[nodiscard]] Status SyncDirectories();

  AreaId id() const { return area_; }

  /// Largest segment this area can ever allocate, in pages.
  uint32_t max_segment_pages() const { return 1u << config_.buddy_space_order; }

  /// Data blocks per buddy space (each space additionally owns one
  /// directory block, so spaces repeat with stride blocks_per_space()+1).
  uint32_t blocks_per_space() const { return blocks_per_space_; }

  /// True iff the area-relative page is a space's directory block.
  bool IsDirectoryPage(PageId page) const {
    return page % (blocks_per_space_ + 1) == 0;
  }

  uint32_t num_spaces() const { return static_cast<uint32_t>(spaces_.size()); }

  /// Pages currently allocated to segments (excludes directory blocks).
  uint64_t allocated_pages() const;

  /// Superdirectory entry for space `i` (largest free chunk, in blocks).
  uint32_t SuperdirectoryHint(uint32_t i) const { return hints_[i]; }

  /// Free blocks across every space (the area's free-page total).
  uint64_t free_pages() const;

  /// Largest free aligned chunk in any space, in blocks (0 when full).
  uint32_t LargestFreeExtent() const;

  /// Accumulates the area's maximal free aligned chunks into `acc`
  /// (chunk size in blocks -> count). This is the fragmentation histogram
  /// the timeline sampler snapshots: a heavily fragmented area shows many
  /// small chunks where a fresh one shows a single space-sized chunk.
  /// Pure in-memory walk of the buddy trees; no I/O.
  void AccumulateFreeChunks(std::map<uint32_t, uint64_t>* acc) const;

  /// True iff the area-relative page is currently allocated (test helper).
  bool IsAllocated(PageId page) const;

  /// Verifies every space's buddy tree invariants (test helper).
  bool CheckInvariants() const;

  /// Rebuilds allocator state from the directory blocks already present on
  /// the underlying disk (used when reopening a saved database image).
  /// Must be called on a freshly constructed area.
  [[nodiscard]] Status RecoverSpaces(const SimDisk& disk);

 private:
  PageId DirectoryPage(uint32_t space) const {
    return space * (blocks_per_space_ + 1);
  }
  PageId DataBase(uint32_t space) const { return DirectoryPage(space) + 1; }

  /// Creates space `spaces_.size()` with a fresh all-free directory.
  /// Infallible under I/O faults: a failed directory write is absorbed
  /// like in Free (an all-free bitmap is all zeros, which is exactly what
  /// an unwritten page reads back as, so recovery stays consistent).
  void AddSpace();

  BufferPool* pool_;
  AreaId area_;
  StorageConfig config_;
  uint32_t blocks_per_space_;
  std::vector<std::unique_ptr<BuddyTree>> spaces_;
  std::vector<uint32_t> hints_;  ///< superdirectory (main-memory only)
  std::vector<bool> needs_sync_;  ///< spaces with a lagging disk directory
};

}  // namespace lob

#endif  // LOB_BUDDY_DATABASE_AREA_H_
