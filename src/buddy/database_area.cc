#include "buddy/database_area.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "common/math_util.h"
#include "trace/trace_span.h"

namespace lob {

DatabaseArea::DatabaseArea(BufferPool* pool, AreaId area,
                           const StorageConfig& config)
    : pool_(pool),
      area_(area),
      config_(config),
      blocks_per_space_(1u << config.buddy_space_order) {
  // The allocation bitmap of a full space must fit in the 1-block directory.
  LOB_CHECK_LE(blocks_per_space_ / 8, config_.page_size);
}

void DatabaseArea::AddSpace() {
  LOB_TRACE_SPAN(pool_->disk(), "buddy.add_space");
  const uint32_t space = static_cast<uint32_t>(spaces_.size());
  spaces_.push_back(std::make_unique<BuddyTree>(config_.buddy_space_order));
  hints_.push_back(blocks_per_space_);
  needs_sync_.push_back(false);
  // Initialize the on-disk directory (an all-free bitmap). A failure here
  // (e.g. an injected fault on the eviction write that frees a frame) is
  // absorbed: an all-free bitmap is all zeros, which is what an unwritten
  // page reads back as, and the space is re-synced on its next use.
  auto guard = pool_->FixPage(area_, DirectoryPage(space), FixMode::kNew);
  if (!guard.ok()) {
    LOB_LOG_WARN("buddy directory init deferred (space %u): %s", space,
                 guard.status().ToString().c_str());
    needs_sync_[space] = true;
    return;
  }
  spaces_[space]->SerializeBitmap(guard->mutable_data());
  guard->MarkDirty();
}

StatusOr<Segment> DatabaseArea::Allocate(uint32_t n_pages) {
  LOB_TRACE_SPAN(pool_->disk(), "buddy.alloc");
  if (n_pages == 0) return Status::InvalidArgument("zero-page segment");
  if (n_pages > blocks_per_space_) {
    return Status::NoSpace("segment exceeds buddy space capacity");
  }
  const uint32_t chunk = static_cast<uint32_t>(RoundUpPowerOfTwo(n_pages));
  for (uint32_t s = 0; s < spaces_.size(); ++s) {
    // Superdirectory check: skip spaces that cannot satisfy the request
    // without touching their directory block.
    if (hints_[s] < chunk) continue;
    // Visit the directory block (through the pool; cost emerges here).
    auto guard = pool_->FixPage(area_, DirectoryPage(s), FixMode::kRead);
    if (!guard.ok()) return guard.status();
    auto start_or = spaces_[s]->Allocate(n_pages);
    hints_[s] = spaces_[s]->LargestFree();
    if (!start_or.ok()) {
      // Wrong superdirectory guess; the hint is now corrected.
      continue;
    }
    spaces_[s]->SerializeBitmap(guard->mutable_data());
    guard->MarkDirty();
    needs_sync_[s] = false;
    return Segment{DataBase(s) + *start_or, n_pages};
  }
  // No existing space can hold the segment: extend the area.
  AddSpace();
  const uint32_t s = static_cast<uint32_t>(spaces_.size() - 1);
  auto guard = pool_->FixPage(area_, DirectoryPage(s), FixMode::kRead);
  if (!guard.ok()) return guard.status();
  auto start_or = spaces_[s]->Allocate(n_pages);
  if (!start_or.ok()) return start_or.status();
  hints_[s] = spaces_[s]->LargestFree();
  spaces_[s]->SerializeBitmap(guard->mutable_data());
  guard->MarkDirty();
  needs_sync_[s] = false;
  return Segment{DataBase(s) + *start_or, n_pages};
}

Status DatabaseArea::Free(PageId first_page, uint32_t n_pages) {
  LOB_TRACE_SPAN(pool_->disk(), "buddy.free");
  if (n_pages == 0) return Status::InvalidArgument("zero-page free");
  const uint32_t stride = blocks_per_space_ + 1;
  const uint32_t space = first_page / stride;
  if (space >= spaces_.size()) {
    return Status::InvalidArgument("free outside any buddy space");
  }
  if (first_page % stride == 0) {
    return Status::InvalidArgument("cannot free a directory block");
  }
  const uint32_t block = first_page - DataBase(space);
  if (block + n_pages > blocks_per_space_) {
    return Status::InvalidArgument("free range crosses buddy spaces");
  }
  // Update the authoritative in-memory tree first; a misuse error (double
  // free) surfaces here, before any I/O can interfere.
  LOB_RETURN_IF_ERROR(spaces_[space]->Free(block, n_pages));
  hints_[space] = spaces_[space]->LargestFree();
  // Best-effort directory rewrite: absorb I/O faults so rollback paths can
  // rely on Free never failing (see header contract). The lagging
  // directory self-heals on the space's next successful bitmap write or
  // via SyncDirectories.
  auto guard = pool_->FixPage(area_, DirectoryPage(space), FixMode::kRead);
  if (!guard.ok()) {
    LOB_LOG_WARN("buddy directory update deferred (space %u): %s", space,
                 guard.status().ToString().c_str());
    needs_sync_[space] = true;
    return Status::OK();
  }
  spaces_[space]->SerializeBitmap(guard->mutable_data());
  guard->MarkDirty();
  needs_sync_[space] = false;
  return Status::OK();
}

Status DatabaseArea::SyncDirectories() {
  Status first;
  for (uint32_t s = 0; s < spaces_.size(); ++s) {
    if (!needs_sync_[s]) continue;
    auto guard = pool_->FixPage(area_, DirectoryPage(s), FixMode::kRead);
    if (!guard.ok()) {
      if (first.ok()) first = guard.status();
      continue;
    }
    spaces_[s]->SerializeBitmap(guard->mutable_data());
    guard->MarkDirty();
    needs_sync_[s] = false;
  }
  return first;
}

Status DatabaseArea::RecoverSpaces(const SimDisk& disk) {
  if (!spaces_.empty()) {
    return Status::Internal("recover requires a fresh area");
  }
  const uint32_t stride = blocks_per_space_ + 1;
  const PageId high = disk.AreaHighWater(area_);
  const uint32_t n_spaces = (high + stride - 1) / stride;
  for (uint32_t s = 0; s < n_spaces; ++s) {
    auto guard = pool_->FixPage(area_, DirectoryPage(s), FixMode::kRead);
    if (!guard.ok()) return guard.status();
    spaces_.push_back(std::make_unique<BuddyTree>(
        BuddyTree::FromBitmap(config_.buddy_space_order, guard->data())));
    hints_.push_back(spaces_.back()->LargestFree());
    needs_sync_.push_back(false);
  }
  return Status::OK();
}

uint64_t DatabaseArea::allocated_pages() const {
  uint64_t used = 0;
  for (const auto& space : spaces_) {
    used += space->total_blocks() - space->free_blocks();
  }
  return used;
}

bool DatabaseArea::IsAllocated(PageId page) const {
  const uint32_t stride = blocks_per_space_ + 1;
  const uint32_t space = page / stride;
  if (space >= spaces_.size()) return false;
  if (page % stride == 0) return true;  // directory block
  return !spaces_[space]->IsFree(page - DataBase(space));
}

uint64_t DatabaseArea::free_pages() const {
  uint64_t free = 0;
  for (const auto& space : spaces_) free += space->free_blocks();
  return free;
}

uint32_t DatabaseArea::LargestFreeExtent() const {
  uint32_t largest = 0;
  for (const auto& space : spaces_) {
    largest = std::max(largest, space->LargestFree());
  }
  return largest;
}

void DatabaseArea::AccumulateFreeChunks(
    std::map<uint32_t, uint64_t>* acc) const {
  for (const auto& space : spaces_) space->AccumulateFreeChunks(acc);
}

bool DatabaseArea::CheckInvariants() const {
  for (const auto& space : spaces_) {
    if (!space->CheckInvariants()) return false;
  }
  return true;
}

}  // namespace lob
