#include "core/object_catalog.h"

#include <cstring>

#include "buddy/scoped_extent.h"

namespace lob {

namespace {

constexpr uint32_t kCatalogMagic = 0x4C4F4243;  // "LOBC"
constexpr uint32_t kHeaderBytes = 12;

uint32_t LoadU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
void StoreU32(char* p, uint32_t v) { std::memcpy(p, &v, 4); }
uint16_t LoadU16(const char* p) {
  uint16_t v;
  std::memcpy(&v, p, 2);
  return v;
}
void StoreU16(char* p, uint16_t v) { std::memcpy(p, &v, 2); }

/// Bytes an entry occupies on the page.
size_t EntryBytes(std::string_view name) { return 1 + name.size() + 4; }

/// Writes a page header whose entries end at offset `end`.
void StoreHeader(char* p, PageId next, size_t count, size_t end) {
  StoreU32(p, kCatalogMagic);
  StoreU32(p + 4, next);
  StoreU16(p + 8, static_cast<uint16_t>(count));
  StoreU16(p + 10, static_cast<uint16_t>(end - kHeaderBytes));
}

/// For walks that only validate a page and follow its chain link.
constexpr auto kNoVisit = [](std::string_view, ObjectId, size_t, size_t) {};

/// Fixes one catalog page for the length of the walk, validates it in
/// place and calls visit(name, id, offset, bytes) for each entry in page
/// order; `name` points into the pinned frame and dies with the walk. The
/// magic, `used` against the page size, and every entry - its length byte
/// included - against `used` are checked, so reads never leave the page.
/// A visitor only notes what it sees: the caller acts on it once the whole
/// page has walked OK, so a damaged entry after a match still fails the
/// op. On success `*next` is the page's successor in the chain.
template <typename Visit>
Status WalkPage(StorageSystem* sys, PageId page, PageId* next, Visit&& visit) {
  auto g = sys->pool()->FixPage(sys->meta_area()->id(), page, FixMode::kRead);
  if (!g.ok()) return g.status();
  const char* p = g->data();
  if (LoadU32(p) != kCatalogMagic) {
    return Status::Corruption("bad catalog magic");
  }
  *next = LoadU32(p + 4);
  const uint16_t count = LoadU16(p + 8);
  const size_t limit = kHeaderBytes + LoadU16(p + 10);
  if (limit > sys->config().page_size) {
    return Status::Corruption("catalog page overflows");
  }
  size_t at = kHeaderBytes;
  for (uint16_t i = 0; i < count; ++i) {
    // The length byte is the entry's first byte: it must lie inside `used`
    // before it is loaded, or a full page with an overstated count reads
    // one byte past the frame.
    if (at >= limit) return Status::Corruption("catalog entry truncated");
    const size_t len = static_cast<uint8_t>(p[at]);
    const size_t bytes = 1 + len + 4;
    if (at + bytes > limit) {
      return Status::Corruption("catalog entry truncated");
    }
    visit(std::string_view(p + at + 1, len), LoadU32(p + at + 1 + len), at,
          bytes);
    at += bytes;
  }
  return Status::OK();
}

/// Walks the chain from `head` a page at a time: step(page, &next) walks
/// one page and sets its successor. A chain cannot hold more pages than
/// the meta area has allocated, so a longer walk has met a `next` link
/// that loops, and it ends with Corruption instead of going round forever.
template <typename Step>
Status WalkChain(StorageSystem* sys, PageId head, Step&& step) {
  const uint64_t bound = sys->meta_area()->allocated_pages();
  uint64_t walked = 0;
  for (PageId page = head; page != kInvalidPage; ++walked) {
    if (walked == bound) {
      return Status::Corruption("catalog chain longer than the meta area");
    }
    LOB_RETURN_IF_ERROR(step(page, &page));
  }
  return Status::OK();
}

/// Fixes a catalog page the caller has walked, lets `edit` rewrite it in
/// the frame, and flushes it with the pin still held. Catalog updates are
/// flushed immediately: they are rare and must not be lost behind
/// large-object traffic evictions. A failed flush would leave the edit in
/// the dirty frame, where every later fix sees it, so the frame gets the
/// page's old bytes back: a failed update changes nothing.
template <typename Edit>
Status RewritePage(StorageSystem* sys, PageId page, Edit&& edit) {
  auto g = sys->pool()->FixPage(sys->meta_area()->id(), page, FixMode::kRead);
  if (!g.ok()) return g.status();
  const size_t page_size = sys->config().page_size;
  ScratchMark mark(sys->arena());
  char* saved = sys->arena()->AllocArray<char>(page_size);
  char* p = g->mutable_data();
  std::memcpy(saved, p, page_size);
  edit(p);
  g->MarkDirty();
  Status flushed = sys->pool()->FlushRun(sys->meta_area()->id(), page, 1);
  if (!flushed.ok()) std::memcpy(p, saved, page_size);
  return flushed;
}

}  // namespace

ObjectCatalog::ObjectCatalog(StorageSystem* sys) : sys_(sys) {}

StatusOr<PageId> ObjectCatalog::Create() {
  auto ext = ScopedExtent::Allocate(sys_->meta_area(), sys_->pool(), 1);
  if (!ext.ok()) return ext.status();
  auto g = sys_->pool()->FixPage(area_id(), ext->first_page(), FixMode::kNew);
  if (!g.ok()) return g.status();  // guard reclaims the head page
  StoreHeader(g->mutable_data(), kInvalidPage, 0, kHeaderBytes);
  g->MarkDirty();
  ext->Commit();
  head_ = ext->first_page();
  index_ = Index{};
  index_.pages.push_back({head_, 0});
  return head_;
}

Status ObjectCatalog::Scan(PageId head, Index* index) {
  return WalkChain(sys_, head, [&](PageId page, PageId* next) -> Status {
    const size_t slot = index->pages.size();
    size_t end = kHeaderBytes;
    bool duplicate = false;
    auto note = [&](std::string_view name, ObjectId, size_t at,
                    size_t bytes) {
      duplicate = !index->names.try_emplace(std::string(name), slot).second ||
                  duplicate;
      end = at + bytes;
    };
    LOB_RETURN_IF_ERROR(WalkPage(sys_, page, next, note));
    if (duplicate) return Status::Corruption("duplicate catalog name");
    index->pages.push_back({page, static_cast<uint32_t>(end - kHeaderBytes)});
    return Status::OK();
  });
}

Status ObjectCatalog::Open(PageId head) {
  Index index;
  LOB_RETURN_IF_ERROR(Scan(head, &index));
  head_ = head;
  index_ = std::move(index);
  return Status::OK();
}

template <typename Visit>
Status ObjectCatalog::WalkIndexed(size_t slot, PageId* next, Visit&& visit) {
  const IndexedPage& indexed = index_.pages[slot];
  size_t end = kHeaderBytes;
  auto visit_and_end = [&](std::string_view n, ObjectId id, size_t at,
                           size_t bytes) {
    visit(n, id, at, bytes);
    end = at + bytes;
  };
  LOB_RETURN_IF_ERROR(WalkPage(sys_, indexed.page, next, visit_and_end));
  if (end != kHeaderBytes + indexed.used) {
    return Status::Corruption("catalog page disagrees with the name index");
  }
  return Status::OK();
}

Status ObjectCatalog::Grow() {
  const size_t tail = index_.pages.size() - 1;
  PageId next;
  LOB_RETURN_IF_ERROR(WalkIndexed(tail, &next, kNoVisit));
  if (next != kInvalidPage) {
    return Status::Corruption("catalog tail links to another page");
  }
  // The fresh page is committed only once the current tail's next pointer
  // durably references it (RewritePage flushes).
  auto ext = ScopedExtent::Allocate(sys_->meta_area(), sys_->pool(), 1);
  if (!ext.ok()) return ext.status();
  {
    auto g =
        sys_->pool()->FixPage(area_id(), ext->first_page(), FixMode::kNew);
    if (!g.ok()) return g.status();
    StoreHeader(g->mutable_data(), kInvalidPage, 0, kHeaderBytes);
    g->MarkDirty();
  }
  const size_t end = kHeaderBytes + index_.pages[tail].used;
  auto link = [&](char* p) {
    StoreHeader(p, ext->first_page(), LoadU16(p + 8), end);
  };
  LOB_RETURN_IF_ERROR(RewritePage(sys_, index_.pages[tail].page, link));
  ext->Commit();
  index_.pages.push_back({ext->first_page(), 0});
  return Status::OK();
}

Status ObjectCatalog::Put(std::string_view name, ObjectId id) {
  if (head_ == kInvalidPage) return Status::Internal("catalog not open");
  if (name.empty() || name.size() > 255) {
    return Status::InvalidArgument("catalog names are 1..255 bytes");
  }
  if (index_.names.contains(name)) {
    return Status::InvalidArgument("name already bound");
  }
  // First fit, in chain order.
  const size_t need = EntryBytes(name);
  size_t slot = 0;
  while (slot < index_.pages.size() &&
         kHeaderBytes + index_.pages[slot].used + need >
             sys_->config().page_size) {
    ++slot;
  }
  if (slot == index_.pages.size()) LOB_RETURN_IF_ERROR(Grow());
  PageId next;
  LOB_RETURN_IF_ERROR(WalkIndexed(slot, &next, kNoVisit));
  const size_t end = kHeaderBytes + index_.pages[slot].used;
  auto append = [&](char* p) {
    p[end] = static_cast<char>(name.size());
    std::memcpy(p + end + 1, name.data(), name.size());
    StoreU32(p + end + 1 + name.size(), id);
    StoreHeader(p, next, LoadU16(p + 8) + 1u, end + need);
  };
  LOB_RETURN_IF_ERROR(RewritePage(sys_, index_.pages[slot].page, append));
  index_.pages[slot].used += static_cast<uint32_t>(need);
  index_.names.try_emplace(std::string(name), slot);
  return Status::OK();
}

StatusOr<ObjectId> ObjectCatalog::Get(std::string_view name) {
  if (head_ == kInvalidPage) return Status::Internal("catalog not open");
  auto it = index_.names.find(name);
  if (it == index_.names.end()) {
    return Status::NotFound("no such object name");
  }
  bool found = false;
  ObjectId found_id = 0;
  auto match = [&](std::string_view n, ObjectId id, size_t, size_t) {
    if (!found && n == name) {
      found = true;
      found_id = id;
    }
  };
  PageId next;
  LOB_RETURN_IF_ERROR(WalkIndexed(it->second, &next, match));
  if (!found) return Status::Corruption("catalog page lost an indexed name");
  return found_id;
}

StatusOr<bool> ObjectCatalog::Contains(std::string_view name) {
  auto id = Get(name);
  if (id.ok()) return true;
  if (id.status().code() == StatusCode::kNotFound) return false;
  return id.status();
}

Status ObjectCatalog::Remove(std::string_view name) {
  if (head_ == kInvalidPage) return Status::Internal("catalog not open");
  auto it = index_.names.find(name);
  if (it == index_.names.end()) {
    return Status::NotFound("no such object name");
  }
  const size_t slot = it->second;
  size_t hit = 0;  // offset of the first match; entries start past 0
  size_t hit_bytes = 0;
  auto match = [&](std::string_view n, ObjectId, size_t at, size_t bytes) {
    if (hit == 0 && n == name) {
      hit = at;
      hit_bytes = bytes;
    }
  };
  PageId next;
  LOB_RETURN_IF_ERROR(WalkIndexed(slot, &next, match));
  if (hit == 0) return Status::Corruption("catalog page lost an indexed name");
  // Compact: slide the entries after the match over it.
  const size_t end = kHeaderBytes + index_.pages[slot].used;
  auto cut = [&](char* p) {
    std::memmove(p + hit, p + hit + hit_bytes, end - hit - hit_bytes);
    StoreHeader(p, next, LoadU16(p + 8) - 1u, end - hit_bytes);
  };
  LOB_RETURN_IF_ERROR(RewritePage(sys_, index_.pages[slot].page, cut));
  index_.pages[slot].used -= static_cast<uint32_t>(hit_bytes);
  index_.names.erase(it);
  return Status::OK();
}

StatusOr<std::vector<std::pair<std::string, ObjectId>>>
ObjectCatalog::List() {
  if (head_ == kInvalidPage) return Status::Internal("catalog not open");
  std::vector<std::pair<std::string, ObjectId>> out;
  auto copy = [&](std::string_view n, ObjectId id, size_t, size_t) {
    out.emplace_back(std::string(n), id);
  };
  LOB_RETURN_IF_ERROR(WalkChain(sys_, head_, [&](PageId page, PageId* next) {
    return WalkPage(sys_, page, next, copy);
  }));
  return out;
}

StatusOr<uint64_t> ObjectCatalog::Size() {
  if (head_ == kInvalidPage) return Status::Internal("catalog not open");
  uint64_t n = 0;
  auto count = [&](std::string_view, ObjectId, size_t, size_t) { ++n; };
  LOB_RETURN_IF_ERROR(WalkChain(sys_, head_, [&](PageId page, PageId* next) {
    return WalkPage(sys_, page, next, count);
  }));
  return n;
}

StatusOr<std::vector<PageId>> ObjectCatalog::Pages() {
  if (head_ == kInvalidPage) return Status::Internal("catalog not open");
  std::vector<PageId> out;
  LOB_RETURN_IF_ERROR(WalkChain(sys_, head_, [&](PageId page, PageId* next) {
    out.push_back(page);
    return WalkPage(sys_, page, next, kNoVisit);
  }));
  return out;
}

Status ObjectCatalog::CheckIndex() {
  if (head_ == kInvalidPage) return Status::Internal("catalog not open");
  Index scanned;
  LOB_RETURN_IF_ERROR(Scan(head_, &scanned));
  if (scanned.pages != index_.pages) {
    return Status::Corruption(
        "catalog index: chain pages or their used bytes differ");
  }
  if (scanned.names != index_.names) {
    return Status::Corruption("catalog index: names or their pages differ");
  }
  return Status::OK();
}

Status ObjectCatalog::Drop() {
  if (head_ == kInvalidPage) return Status::OK();
  auto pages = Pages();
  if (!pages.ok()) return pages.status();
  for (PageId page : *pages) {
    LOB_RETURN_IF_ERROR(sys_->pool()->Invalidate(area_id(), page, 1));
    LOB_RETURN_IF_ERROR(sys_->meta_area()->Free(page, 1));
  }
  head_ = kInvalidPage;
  index_ = Index{};
  return Status::OK();
}

}  // namespace lob
