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

/// Fixes a catalog page the caller has walked, lets `edit` rewrite it in
/// the frame, and flushes it with the pin still held. Catalog updates are
/// flushed immediately: they are rare and must not be lost behind
/// large-object traffic evictions.
template <typename Edit>
Status RewritePage(StorageSystem* sys, PageId page, Edit&& edit) {
  auto g = sys->pool()->FixPage(sys->meta_area()->id(), page, FixMode::kRead);
  if (!g.ok()) return g.status();
  edit(g->mutable_data());
  g->MarkDirty();
  return sys->pool()->FlushRun(sys->meta_area()->id(), page, 1);
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
  return head_;
}

Status ObjectCatalog::Open(PageId head) {
  auto g = sys_->pool()->FixPage(area_id(), head, FixMode::kRead);
  if (!g.ok()) return g.status();
  if (LoadU32(g->data()) != kCatalogMagic) {
    return Status::Corruption("not a catalog page");
  }
  head_ = head;
  return Status::OK();
}

Status ObjectCatalog::Put(std::string_view name, ObjectId id) {
  if (head_ == kInvalidPage) return Status::Internal("catalog not open");
  if (name.empty() || name.size() > 255) {
    return Status::InvalidArgument("catalog names are 1..255 bytes");
  }
  const size_t need = EntryBytes(name);
  bool bound = false;
  size_t end = kHeaderBytes;  // where the entries of the walked page end
  auto check = [&](std::string_view n, ObjectId, size_t, size_t) {
    bound = bound || n == name;
  };
  auto check_and_end = [&](std::string_view n, ObjectId, size_t at,
                           size_t bytes) {
    bound = bound || n == name;
    end = at + bytes;
  };
  PageId page = head_;
  while (true) {
    PageId next;
    end = kHeaderBytes;
    LOB_RETURN_IF_ERROR(WalkPage(sys_, page, &next, check_and_end));
    if (bound) return Status::InvalidArgument("name already bound");
    if (end + need <= sys_->config().page_size) {
      // Fits here; but the name may still exist further down the chain.
      for (PageId scan = next; scan != kInvalidPage;) {
        LOB_RETURN_IF_ERROR(WalkPage(sys_, scan, &scan, check));
        if (bound) return Status::InvalidArgument("name already bound");
      }
      auto append = [&](char* p) {
        p[end] = static_cast<char>(name.size());
        std::memcpy(p + end + 1, name.data(), name.size());
        StoreU32(p + end + 1 + name.size(), id);
        StoreHeader(p, next, LoadU16(p + 8) + 1u, end + need);
      };
      return RewritePage(sys_, page, append);
    }
    if (next == kInvalidPage) {
      // Grow the chain. The fresh page is committed only once the current
      // tail's next pointer durably references it (RewritePage flushes).
      auto ext = ScopedExtent::Allocate(sys_->meta_area(), sys_->pool(), 1);
      if (!ext.ok()) return ext.status();
      {
        auto g = sys_->pool()->FixPage(area_id(), ext->first_page(),
                                       FixMode::kNew);
        if (!g.ok()) return g.status();
        StoreHeader(g->mutable_data(), kInvalidPage, 0, kHeaderBytes);
        g->MarkDirty();
      }
      auto link = [&](char* p) {
        StoreHeader(p, ext->first_page(), LoadU16(p + 8), end);
      };
      LOB_RETURN_IF_ERROR(RewritePage(sys_, page, link));
      ext->Commit();
      page = ext->first_page();
      continue;
    }
    page = next;
  }
}

StatusOr<ObjectId> ObjectCatalog::Get(std::string_view name) {
  if (head_ == kInvalidPage) return Status::Internal("catalog not open");
  bool found = false;
  ObjectId found_id = 0;
  auto match = [&](std::string_view n, ObjectId id, size_t, size_t) {
    if (!found && n == name) {
      found = true;
      found_id = id;
    }
  };
  for (PageId page = head_; page != kInvalidPage;) {
    LOB_RETURN_IF_ERROR(WalkPage(sys_, page, &page, match));
    if (found) return found_id;
  }
  return Status::NotFound("no such object name");
}

StatusOr<bool> ObjectCatalog::Contains(std::string_view name) {
  auto id = Get(name);
  if (id.ok()) return true;
  if (id.status().code() == StatusCode::kNotFound) return false;
  return id.status();
}

Status ObjectCatalog::Remove(std::string_view name) {
  if (head_ == kInvalidPage) return Status::Internal("catalog not open");
  size_t hit = 0;  // offset of the first match; entries start past 0
  size_t hit_bytes = 0;
  size_t end = kHeaderBytes;
  auto match_and_end = [&](std::string_view n, ObjectId, size_t at,
                           size_t bytes) {
    if (hit == 0 && n == name) {
      hit = at;
      hit_bytes = bytes;
    }
    end = at + bytes;
  };
  PageId page = head_;
  while (page != kInvalidPage) {
    PageId next;
    end = kHeaderBytes;
    LOB_RETURN_IF_ERROR(WalkPage(sys_, page, &next, match_and_end));
    if (hit != 0) {
      // Compact: slide the entries after the match over it.
      auto cut = [&](char* p) {
        std::memmove(p + hit, p + hit + hit_bytes, end - hit - hit_bytes);
        StoreHeader(p, next, LoadU16(p + 8) - 1u, end - hit_bytes);
      };
      return RewritePage(sys_, page, cut);
    }
    page = next;
  }
  return Status::NotFound("no such object name");
}

StatusOr<std::vector<std::pair<std::string, ObjectId>>>
ObjectCatalog::List() {
  if (head_ == kInvalidPage) return Status::Internal("catalog not open");
  std::vector<std::pair<std::string, ObjectId>> out;
  auto copy = [&](std::string_view n, ObjectId id, size_t, size_t) {
    out.emplace_back(std::string(n), id);
  };
  for (PageId page = head_; page != kInvalidPage;) {
    LOB_RETURN_IF_ERROR(WalkPage(sys_, page, &page, copy));
  }
  return out;
}

StatusOr<uint64_t> ObjectCatalog::Size() {
  if (head_ == kInvalidPage) return Status::Internal("catalog not open");
  uint64_t n = 0;
  auto count = [&](std::string_view, ObjectId, size_t, size_t) { ++n; };
  for (PageId page = head_; page != kInvalidPage;) {
    LOB_RETURN_IF_ERROR(WalkPage(sys_, page, &page, count));
  }
  return n;
}

StatusOr<std::vector<PageId>> ObjectCatalog::Pages() {
  if (head_ == kInvalidPage) return Status::Internal("catalog not open");
  std::vector<PageId> out;
  for (PageId page = head_; page != kInvalidPage;) {
    out.push_back(page);
    LOB_RETURN_IF_ERROR(WalkPage(sys_, page, &page, kNoVisit));
  }
  return out;
}

Status ObjectCatalog::Drop() {
  if (head_ == kInvalidPage) return Status::OK();
  PageId page = head_;
  while (page != kInvalidPage) {
    PageId next;
    LOB_RETURN_IF_ERROR(WalkPage(sys_, page, &next, kNoVisit));
    LOB_RETURN_IF_ERROR(sys_->pool()->Invalidate(area_id(), page, 1));
    LOB_RETURN_IF_ERROR(sys_->meta_area()->Free(page, 1));
    page = next;
  }
  head_ = kInvalidPage;
  return Status::OK();
}

}  // namespace lob
