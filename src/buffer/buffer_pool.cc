#include "buffer/buffer_pool.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "common/logging.h"
#include "common/math_util.h"
#include "trace/trace_span.h"

namespace lob {

// ---------------------------------------------------------------- PageGuard

PageGuard::PageGuard(BufferPool* pool, uint32_t slot)
    : pool_(pool), slot_(slot) {}

PageGuard::PageGuard(PageGuard&& other) noexcept
    : pool_(other.pool_), slot_(other.slot_) {
  other.pool_ = nullptr;
}

PageGuard& PageGuard::operator=(PageGuard&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    slot_ = other.slot_;
    other.pool_ = nullptr;
  }
  return *this;
}

PageGuard::~PageGuard() { Release(); }

const char* PageGuard::data() const {
  LOB_CHECK(pool_ != nullptr);
  // Frame slots and borrowed page images are stable while the pin count
  // is non-zero.
  return pool_->FrameData(slot_);
}

char* PageGuard::mutable_data() {
  LOB_CHECK(pool_ != nullptr);
  pool_->CheckOwner();
  return pool_->MaterializeSlot(slot_);
}

void PageGuard::MarkDirty() {
  LOB_CHECK(pool_ != nullptr);
  pool_->CheckOwner();
  pool_->MaterializeSlot(slot_);
  pool_->frames_[slot_].dirty = true;
}

void PageGuard::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(slot_);
    pool_ = nullptr;
  }
}

// --------------------------------------------------------------- BufferPool

BufferPool::BufferPool(SimDisk* disk, const StorageConfig& config)
    : disk_(disk), config_(config) {
  LOB_CHECK_GE(config_.buffer_pool_pages, 2u);
  LOB_CHECK_LE(config_.max_pool_segment_pages, config_.buffer_pool_pages);
  arena_.resize(static_cast<size_t>(config_.buffer_pool_pages) *
                config_.page_size);
  frames_.resize(config_.buffer_pool_pages);
}

namespace {

[[noreturn]] void OwnerViolation(std::thread::id self, std::thread::id owner) {
  std::ostringstream msg;
  msg << "BufferPool owner check: thread " << self
      << " called a pool owned by thread " << owner
      << "; a StorageSystem is confined to one thread (see "
         "buffer/buffer_pool.h)";
  std::fprintf(stderr, "%s\n", msg.str().c_str());
  std::abort();
}

}  // namespace

void BufferPool::CheckOwner() {
  const std::thread::id self = std::this_thread::get_id();
  std::thread::id owner = owner_.load();
  if (owner == self) return;
  // First mutating call: bind. A failed exchange leaves the winner of a
  // racing bind in `owner`, which is then reported.
  if (owner == std::thread::id() &&
      owner_.compare_exchange_strong(owner, self)) {
    return;
  }
  OwnerViolation(self, owner);
}

int BufferPool::FindSlot(AreaId area, PageId page) const {
  return map_.Find(Key(area, page));
}

char* BufferPool::MaterializeSlot(uint32_t slot) {
  Frame& f = frames_[slot];
  if (f.borrow != nullptr) {
    std::memcpy(SlotData(slot), f.borrow, config_.page_size);
    f.borrow = nullptr;
  }
  return SlotData(slot);
}

void BufferPool::Unpin(uint32_t slot) {
  CheckOwner();
  Frame& f = frames_[slot];
  LOB_CHECK_GT(f.pins, 0u);
  f.pins--;
}

Status BufferPool::EvictSlot(uint32_t slot) {
  Frame& f = frames_[slot];
  if (!f.valid) return Status::OK();
  if (f.pins != 0) return Status::Internal("evicting pinned page");
  evictions_++;
  if (f.dirty) {
    LOB_TRACE_SPAN(disk_, "pool.evict");
    const char* src = SlotData(slot);
    LOB_RETURN_IF_ERROR(disk_->WriteRun(f.area, f.page, 1, &src));
  }
  map_.Erase(Key(f.area, f.page));
  f.valid = false;
  f.dirty = false;
  f.borrow = nullptr;
  return Status::OK();
}

StatusOr<uint32_t> BufferPool::GetFreeSlot() {
  // Invalid frame first; then LRU among unpinned clean frames; then LRU
  // among unpinned dirty frames (paper 3.2: free least recently used clean
  // pages followed by dirty pages).
  int best_invalid = -1;
  int best_clean = -1;
  int best_dirty = -1;
  for (uint32_t i = 0; i < frames_.size(); ++i) {
    const Frame& f = frames_[i];
    if (!f.valid) {
      best_invalid = static_cast<int>(i);
      break;
    }
    if (f.pins != 0) continue;
    if (!f.dirty) {
      if (best_clean < 0 || f.lru < frames_[static_cast<uint32_t>(
                                         best_clean)].lru) {
        best_clean = static_cast<int>(i);
      }
    } else {
      if (best_dirty < 0 || f.lru < frames_[static_cast<uint32_t>(
                                         best_dirty)].lru) {
        best_dirty = static_cast<int>(i);
      }
    }
  }
  int victim = best_invalid >= 0 ? best_invalid
               : best_clean >= 0 ? best_clean
                                 : best_dirty;
  if (victim < 0) return Status::NoSpace("all buffer frames are pinned");
  LOB_RETURN_IF_ERROR(EvictSlot(static_cast<uint32_t>(victim)));
  return static_cast<uint32_t>(victim);
}

StatusOr<PageGuard> BufferPool::FixPage(AreaId area, PageId page,
                                        FixMode mode) {
  CheckOwner();
  int existing = FindSlot(area, page);
  if (existing >= 0) {
    uint32_t slot = static_cast<uint32_t>(existing);
    Frame& f = frames_[slot];
    f.pins++;
    f.lru = ++tick_;
    hits_++;
    return PageGuard(this, slot);
  }
  auto slot_or = GetFreeSlot();
  if (!slot_or.ok()) return slot_or.status();
  uint32_t slot = *slot_or;
  Frame& f = frames_[slot];
  if (mode == FixMode::kRead) {
    PageRef ref;
    {
      LOB_TRACE_SPAN(disk_, "pool.miss");
      LOB_RETURN_IF_ERROR(disk_->ReadRun(area, page, 1, &ref));
    }
    if (ref.data != nullptr && config_.pool_zero_copy) {
      f.borrow = ref.data;
    } else if (ref.data != nullptr) {
      std::memcpy(SlotData(slot), ref.data, config_.page_size);
      f.borrow = nullptr;
    } else {
      // Never-written page: reads as zeros.
      std::memset(SlotData(slot), 0, config_.page_size);
      f.borrow = nullptr;
    }
    misses_++;
  } else {
    std::memset(SlotData(slot), 0, config_.page_size);
    f.borrow = nullptr;
  }
  f.area = area;
  f.page = page;
  f.valid = true;
  f.dirty = false;
  f.pins = 1;
  f.lru = ++tick_;
  map_.Insert(Key(area, page), slot);
  return PageGuard(this, slot);
}

Status BufferPool::FlushAndDropRange(AreaId area, PageId first,
                                     uint32_t n_pages) {
  for (uint32_t i = 0; i < n_pages; ++i) {
    int s = FindSlot(area, first + i);
    if (s < 0) continue;
    Frame& f = frames_[static_cast<uint32_t>(s)];
    if (f.pins != 0) return Status::Internal("page pinned during drop");
    LOB_RETURN_IF_ERROR(EvictSlot(static_cast<uint32_t>(s)));
  }
  return Status::OK();
}

Status BufferPool::ReadSegmentRange(AreaId area, PageId seg_first,
                                    uint64_t seg_valid_bytes,
                                    uint64_t byte_off, uint64_t n_bytes,
                                    char* dst) {
  if (n_bytes == 0) return Status::OK();
  if (byte_off + n_bytes > seg_valid_bytes) {
    return Status::OutOfRange("read past segment valid bytes");
  }
  CheckOwner();
  const uint64_t P = config_.page_size;
  const PageId p0 = seg_first + static_cast<PageId>(byte_off / P);
  const PageId p1 =
      seg_first + static_cast<PageId>((byte_off + n_bytes - 1) / P);
  const uint32_t np = p1 - p0 + 1;

  if (np <= config_.max_pool_segment_pages) {
    // Buffered path: make sure the run is cached. If any page misses, the
    // whole run is (re)fetched with a single I/O call into a contiguous
    // frame window; if no window can be freed, fall back to page-at-a-time.
    bool all_cached = true;
    for (PageId p = p0; p <= p1; ++p) {
      if (FindSlot(area, p) < 0) {
        all_cached = false;
        break;
      }
    }
    if (!all_cached) {
      Status loaded = Status::NoSpace("");
      // Find a window of np contiguous unpinned slots. (Borrowed frames
      // no longer need slot contiguity, but the window search — and so
      // the eviction sequence — is kept identical to the copying pool.)
      for (uint32_t w = 0; w + np <= frames_.size(); ++w) {
        bool usable = true;
        for (uint32_t i = 0; i < np; ++i) {
          if (frames_[w + i].pins != 0) {
            usable = false;
            break;
          }
        }
        if (!usable) continue;
        LOB_RETURN_IF_ERROR(FlushAndDropRange(area, p0, np));
        for (uint32_t i = 0; i < np; ++i) {
          LOB_RETURN_IF_ERROR(EvictSlot(w + i));
        }
        ScratchMark sm(&scratch_);
        PageRef* refs = scratch_.AllocArray<PageRef>(np);
        {
          LOB_TRACE_SPAN(disk_, "pool.refetch");
          LOB_RETURN_IF_ERROR(disk_->ReadRun(area, p0, np, refs));
        }
        misses_++;
        for (uint32_t i = 0; i < np; ++i) {
          Frame& f = frames_[w + i];
          if (refs[i].data != nullptr && config_.pool_zero_copy) {
            f.borrow = refs[i].data;
          } else if (refs[i].data != nullptr) {
            std::memcpy(SlotData(w + i), refs[i].data, config_.page_size);
            f.borrow = nullptr;
          } else {
            std::memset(SlotData(w + i), 0, config_.page_size);
            f.borrow = nullptr;
          }
          f.area = area;
          f.page = p0 + i;
          f.valid = true;
          f.dirty = false;
          f.pins = 0;
          f.lru = ++tick_;
          map_.Insert(Key(area, p0 + i), w + i);
        }
        loaded = Status::OK();
        break;
      }
      if (!loaded.ok()) {
        // Degenerate fallback: everything else is pinned; fetch page by
        // page (one seek each), copying while the pin is held since a
        // later fetch may evict an earlier page again.
        uint64_t copied = 0;
        for (PageId p = p0; p <= p1; ++p) {
          auto g = FixPage(area, p, FixMode::kRead);
          if (!g.ok()) return g.status();
          const uint64_t page_begin =
              static_cast<uint64_t>(p - seg_first) * P;
          const uint64_t lo = std::max(byte_off, page_begin);
          const uint64_t hi = std::min(byte_off + n_bytes, page_begin + P);
          std::memcpy(dst + (lo - byte_off), g->data() + (lo - page_begin),
                      hi - lo);
          copied += hi - lo;
        }
        LOB_CHECK_EQ(copied, n_bytes);
        return Status::OK();
      }
    }
    // Copy the requested bytes out of the frames.
    uint64_t copied = 0;
    for (PageId p = p0; p <= p1; ++p) {
      int s = FindSlot(area, p);
      LOB_CHECK_GE(s, 0);
      frames_[static_cast<uint32_t>(s)].lru = ++tick_;
      const uint64_t page_begin = static_cast<uint64_t>(p - seg_first) * P;
      const uint64_t lo = std::max(byte_off, page_begin);
      const uint64_t hi = std::min(byte_off + n_bytes, page_begin + P);
      std::memcpy(dst + (lo - byte_off),
                  FrameData(static_cast<uint32_t>(s)) + (lo - page_begin),
                  hi - lo);
      copied += hi - lo;
    }
    LOB_CHECK_EQ(copied, n_bytes);
    return Status::OK();
  }

  // Unbuffered path with 3-step boundary handling (paper Figure 4).
  uint64_t remaining = n_bytes;
  char* out = dst;
  PageId mid_first = p0;
  PageId mid_last = p1;
  if (byte_off % P != 0) {
    // Partial first block travels through the pool.
    const uint64_t in_page = byte_off % P;
    const uint64_t take = std::min(P - in_page, remaining);
    {
      auto g = FixPage(area, p0, FixMode::kRead);
      if (!g.ok()) return g.status();
      std::memcpy(out, g->data() + in_page, take);
    }
    out += take;
    remaining -= take;
    mid_first = p0 + 1;
  }
  const bool tail_partial = (byte_off + n_bytes) % P != 0 && remaining > 0;
  uint64_t tail_take = 0;
  if (tail_partial) {
    tail_take = (byte_off + n_bytes) % P;
    mid_last = p1 - 1;
  }
  if (mid_first <= mid_last && remaining > tail_take) {
    const uint32_t count = mid_last - mid_first + 1;
    // Keep direct I/O coherent with the pool: write back any dirty cached
    // copies first (clean cached copies already match the disk image).
    for (uint32_t i = 0; i < count; ++i) {
      int s = FindSlot(area, mid_first + i);
      if (s >= 0 && frames_[static_cast<uint32_t>(s)].dirty) {
        Frame& f = frames_[static_cast<uint32_t>(s)];
        const char* src = SlotData(static_cast<uint32_t>(s));
        LOB_RETURN_IF_ERROR(disk_->WriteRun(f.area, f.page, 1, &src));
        f.dirty = false;
      }
    }
    ScratchMark sm(&scratch_);
    PageRef* refs = scratch_.AllocArray<PageRef>(count);
    {
      LOB_TRACE_SPAN(disk_, "pool.read_run");
      LOB_RETURN_IF_ERROR(disk_->ReadRun(area, mid_first, count, refs));
    }
    for (uint32_t i = 0; i < count; ++i) {
      // Never-written pages read as zeros.
      if (refs[i].data != nullptr) {
        std::memcpy(out + static_cast<size_t>(i) * P, refs[i].data, P);
      } else {
        std::memset(out + static_cast<size_t>(i) * P, 0, P);
      }
    }
    const uint64_t moved = static_cast<uint64_t>(count) * P;
    out += moved;
    remaining -= moved;
  }
  if (remaining > 0) {
    // Partial last block through the pool.
    LOB_CHECK_EQ(remaining, tail_take);
    auto g = FixPage(area, p1, FixMode::kRead);
    if (!g.ok()) return g.status();
    std::memcpy(out, g->data(), remaining);
  }
  return Status::OK();
}

Status BufferPool::WriteSegmentRange(AreaId area, PageId seg_first,
                                     uint64_t seg_valid_bytes,
                                     uint64_t byte_off, uint64_t n_bytes,
                                     const char* src) {
  if (n_bytes == 0) return Status::OK();
  CheckOwner();
  const uint64_t P = config_.page_size;
  const PageId p0 = seg_first + static_cast<PageId>(byte_off / P);
  const PageId p1 =
      seg_first + static_cast<PageId>((byte_off + n_bytes - 1) / P);
  const uint32_t np = p1 - p0 + 1;

  // Does page p (absolute) hold valid bytes outside the written interval?
  auto needs_read = [&](PageId p) {
    const uint64_t page_begin = static_cast<uint64_t>(p - seg_first) * P;
    const uint64_t valid_hi = std::min(seg_valid_bytes, page_begin + P);
    if (valid_hi <= page_begin) return false;  // no valid bytes on the page
    const uint64_t w_lo = std::max(byte_off, page_begin);
    const uint64_t w_hi = std::min(byte_off + n_bytes, page_begin + P);
    return page_begin < w_lo || w_hi < valid_hi;
  };

  if (np <= config_.max_pool_segment_pages) {
    // Buffered: stage into frames; the caller flushes at operation end.
    for (PageId p = p0; p <= p1; ++p) {
      auto g = FixPage(area, p,
                       needs_read(p) ? FixMode::kRead : FixMode::kNew);
      if (!g.ok()) return g.status();
      const uint64_t page_begin = static_cast<uint64_t>(p - seg_first) * P;
      const uint64_t lo = std::max(byte_off, page_begin);
      const uint64_t hi = std::min(byte_off + n_bytes, page_begin + P);
      std::memcpy(g->mutable_data() + (lo - page_begin),
                  src + (lo - byte_off), hi - lo);
      g->MarkDirty();
    }
    return Status::OK();
  }

  // Unbuffered: gather-write the full run with one I/O call. Middle pages
  // are fully covered by `src` and go straight from the caller's buffer;
  // boundary pages that keep valid bytes outside the write travel through
  // the pool (3-step I/O, paper Figure 4) into an arena staging page.
  ScratchMark sm(&scratch_);
  const char** srcs = scratch_.AllocArray<const char*>(np);
  for (PageId p = p0; p <= p1; ++p) {
    const uint64_t page_begin = static_cast<uint64_t>(p - seg_first) * P;
    const uint32_t i = p - p0;
    if (page_begin >= byte_off && page_begin + P <= byte_off + n_bytes) {
      srcs[i] = src + (page_begin - byte_off);
      continue;
    }
    char* stage = scratch_.Allocate(P);
    if (needs_read(p)) {
      auto g = FixPage(area, p, FixMode::kRead);
      if (!g.ok()) return g.status();
      std::memcpy(stage, g->data(), P);
    } else {
      std::memset(stage, 0, P);
    }
    const uint64_t lo = std::max(byte_off, page_begin);
    const uint64_t hi = std::min(byte_off + n_bytes, page_begin + P);
    std::memcpy(stage + (lo - page_begin), src + (lo - byte_off), hi - lo);
    srcs[i] = stage;
  }
  MutPageRef* imgs = scratch_.AllocArray<MutPageRef>(np);
  {
    LOB_TRACE_SPAN(disk_, "pool.write_run");
    LOB_RETURN_IF_ERROR(disk_->WriteRun(area, p0, np, srcs, imgs));
  }
  // Refresh any cached copies so the pool stays coherent: re-borrow the
  // freshly written images instead of copying them back.
  for (PageId p = p0; p <= p1; ++p) {
    int s = FindSlot(area, p);
    if (s < 0) continue;
    Frame& f = frames_[static_cast<uint32_t>(s)];
    if (config_.pool_zero_copy) {
      f.borrow = imgs[p - p0].data;
    } else {
      std::memcpy(SlotData(static_cast<uint32_t>(s)), imgs[p - p0].data, P);
      f.borrow = nullptr;
    }
    f.dirty = false;
  }
  return Status::OK();
}

Status BufferPool::WriteFreshSegment(AreaId area, PageId first,
                                     const char* data, uint64_t n_bytes) {
  if (n_bytes == 0) return Status::OK();
  CheckOwner();
  const uint64_t P = config_.page_size;
  const uint32_t np = static_cast<uint32_t>((n_bytes + P - 1) / P);
  // Full pages gather straight from the caller's buffer; only a partial
  // last page is staged (zero-padded) in the arena.
  ScratchMark sm(&scratch_);
  const char** srcs = scratch_.AllocArray<const char*>(np);
  const uint32_t full_pages = static_cast<uint32_t>(n_bytes / P);
  for (uint32_t i = 0; i < full_pages; ++i) {
    srcs[i] = data + static_cast<size_t>(i) * P;
  }
  if (full_pages < np) {
    char* stage = scratch_.Allocate(P);
    const uint64_t tail = n_bytes - static_cast<uint64_t>(full_pages) * P;
    std::memcpy(stage, data + static_cast<size_t>(full_pages) * P, tail);
    std::memset(stage + tail, 0, P - tail);
    srcs[full_pages] = stage;
  }
  MutPageRef* imgs = scratch_.AllocArray<MutPageRef>(np);
  {
    LOB_TRACE_SPAN(disk_, "pool.write_fresh");
    LOB_RETURN_IF_ERROR(disk_->WriteRun(area, first, np, srcs, imgs));
  }
  for (uint32_t i = 0; i < np; ++i) {
    int s = FindSlot(area, first + i);
    if (s < 0) continue;
    Frame& f = frames_[static_cast<uint32_t>(s)];
    if (config_.pool_zero_copy) {
      f.borrow = imgs[i].data;
    } else {
      std::memcpy(SlotData(static_cast<uint32_t>(s)), imgs[i].data, P);
      f.borrow = nullptr;
    }
    f.dirty = false;
  }
  return Status::OK();
}

Status BufferPool::FlushRun(AreaId area, PageId first, uint32_t n_pages) {
  CheckOwner();
  uint32_t i = 0;
  while (i < n_pages) {
    int s = FindSlot(area, first + i);
    if (s < 0 || !frames_[static_cast<uint32_t>(s)].dirty) {
      ++i;
      continue;
    }
    // Maximal contiguous dirty run starting at first + i, gathered
    // directly from the frames (dirty frames are never borrows, so their
    // bytes live in the pool slots).
    ScratchMark sm(&scratch_);
    ArenaVec<uint32_t> slots(&scratch_);
    slots.push_back(static_cast<uint32_t>(s));
    uint32_t j = i + 1;
    while (j < n_pages) {
      int sj = FindSlot(area, first + j);
      if (sj < 0 || !frames_[static_cast<uint32_t>(sj)].dirty) break;
      slots.push_back(static_cast<uint32_t>(sj));
      ++j;
    }
    const uint32_t count = j - i;
    const char** srcs = scratch_.AllocArray<const char*>(count);
    for (uint32_t k = 0; k < count; ++k) {
      LOB_CHECK(frames_[slots[k]].borrow == nullptr);
      srcs[k] = SlotData(slots[k]);
    }
    {
      LOB_TRACE_SPAN(disk_, "pool.flush");
      LOB_RETURN_IF_ERROR(disk_->WriteRun(area, first + i, count, srcs));
    }
    for (uint32_t k = 0; k < count; ++k) {
      frames_[slots[k]].dirty = false;
    }
    i = j;
  }
  return Status::OK();
}

Status BufferPool::FlushAll() {
  CheckOwner();
  // Collect dirty pages, sorted, and flush maximal contiguous runs.
  std::vector<std::pair<uint64_t, uint32_t>> dirty;  // (key, slot)
  for (uint32_t i = 0; i < frames_.size(); ++i) {
    const Frame& f = frames_[i];
    if (f.valid && f.dirty) dirty.emplace_back(Key(f.area, f.page), i);
  }
  std::sort(dirty.begin(), dirty.end());
  size_t i = 0;
  while (i < dirty.size()) {
    size_t j = i + 1;
    while (j < dirty.size() && dirty[j].first == dirty[j - 1].first + 1) ++j;
    const Frame& f0 = frames_[dirty[i].second];
    LOB_RETURN_IF_ERROR(
        FlushRun(f0.area, f0.page, static_cast<uint32_t>(j - i)));
    i = j;
  }
  return Status::OK();
}

Status BufferPool::Invalidate(AreaId area, PageId first, uint32_t n_pages) {
  CheckOwner();
  for (uint32_t i = 0; i < n_pages; ++i) {
    int s = FindSlot(area, first + i);
    if (s < 0) continue;
    Frame& f = frames_[static_cast<uint32_t>(s)];
    if (f.pins != 0) return Status::Internal("invalidating pinned page");
    map_.Erase(Key(f.area, f.page));
    f.valid = false;
    f.dirty = false;
    f.borrow = nullptr;
  }
  return Status::OK();
}

std::vector<BufferPool::CachedPage> BufferPool::CachedPagesSorted() const {
  // Walk the frame table (a vector, slot order) rather than the hash
  // lookup table, then pin the ordering explicitly: the result must be a
  // pure function of *which* pages are cached, never of insertion order
  // or hash seeding.
  std::vector<CachedPage> out;
  out.reserve(frames_.size());
  for (const Frame& f : frames_) {
    if (f.valid) out.push_back({f.area, f.page, f.dirty});
  }
  std::sort(out.begin(), out.end(),
            [](const CachedPage& a, const CachedPage& b) {
              return a.area != b.area ? a.area < b.area : a.page < b.page;
            });
  return out;
}

bool BufferPool::IsCached(AreaId area, PageId page) const {
  return FindSlot(area, page) >= 0;
}

bool BufferPool::IsDirty(AreaId area, PageId page) const {
  int s = FindSlot(area, page);
  return s >= 0 && frames_[static_cast<uint32_t>(s)].dirty;
}

BufferPool::State BufferPool::SaveState() const {
  for (const Frame& f : frames_) LOB_CHECK_EQ(f.pins, 0u);
  State state;
  state.arena = arena_;
  state.frames = frames_;
  state.map = map_;
  state.tick = tick_;
  state.hits = hits_;
  state.misses = misses_;
  state.evictions = evictions_;
  return state;
}

void BufferPool::RestoreState(const State& state) {
  CheckOwner();
  for (const Frame& f : frames_) LOB_CHECK_EQ(f.pins, 0u);
  // A read-only walk can still have *written* to disk (evicting a dirty
  // victim); restoring the frame's dirty bit afterwards is safe because
  // the content did not change, so the eventual re-write is identical.
  arena_ = state.arena;
  frames_ = state.frames;
  map_ = state.map;
  tick_ = state.tick;
  hits_ = state.hits;
  misses_ = state.misses;
  evictions_ = state.evictions;
}

}  // namespace lob
