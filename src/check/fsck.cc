#include "check/fsck.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <unordered_map>

#include "common/logging.h"
#include "core/database.h"

namespace lob {

namespace {

uint64_t PageKey(AreaId area, PageId page) {
  return (static_cast<uint64_t>(area) << 32) | page;
}

std::string Sprintf(const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return std::string(buf);
}

/// Claims every page of `ext` for `owner`, reporting double claims and
/// references to pages the allocator does not consider allocated.
void ClaimExtent(DatabaseArea* area_obj, AreaId area, ObjectId owner,
                 const LargeObjectManager::OwnedExtent& ext,
                 std::unordered_map<uint64_t, ObjectId>* claims,
                 std::vector<FsckIssue>* issues) {
  for (uint32_t i = 0; i < ext.pages; ++i) {
    const PageId page = ext.first_page + i;
    if (!area_obj->IsAllocated(page)) {
      issues->push_back(
          {FsckIssueKind::kUnallocatedReference, area, page, 1, owner,
           Sprintf("object %u references page %u:%u which the allocator "
                   "reports free",
                   owner, area, page)});
      continue;
    }
    auto [it, inserted] = claims->emplace(PageKey(area, page), owner);
    if (!inserted) {
      issues->push_back(
          {FsckIssueKind::kDoubleAllocated, area, page, 1, owner,
           Sprintf("page %u:%u claimed by object %u and object %u", area,
                   page, it->second, owner)});
    }
  }
}

/// Sweeps one area for allocated non-directory pages nobody claimed,
/// reporting each maximal run as one leak.
void SweepArea(DatabaseArea* area_obj, AreaId area,
               const std::unordered_map<uint64_t, ObjectId>& claims,
               std::vector<FsckIssue>* issues) {
  const uint32_t stride = area_obj->blocks_per_space() + 1;
  const PageId end = area_obj->num_spaces() * stride;
  PageId run_start = kInvalidPage;
  uint32_t run_len = 0;
  auto flush_run = [&]() {
    if (run_len == 0) return;
    issues->push_back(
        {FsckIssueKind::kLeakedExtent, area, run_start, run_len,
         kInvalidPage,
         Sprintf("pages %u:[%u,+%u) allocated but referenced by no object",
                 area, run_start, run_len)});
    run_len = 0;
  };
  for (PageId page = 0; page < end; ++page) {
    const bool leaked = !area_obj->IsDirectoryPage(page) &&
                        area_obj->IsAllocated(page) &&
                        claims.count(PageKey(area, page)) == 0;
    if (leaked) {
      if (run_len == 0) run_start = page;
      ++run_len;
    } else {
      flush_run();
    }
  }
  flush_run();
}

/// Opt-in EOS threshold audit: an adjacent segment pair with one side
/// below T pages' worth of bytes that is small enough to merge into
/// segments of at least T pages is a violation (paper 2.3).
Status AuditEosThreshold(LargeObjectManager* mgr, ObjectId id,
                         uint32_t threshold_pages, uint32_t page_size,
                         std::vector<FsckIssue>* issues) {
  std::vector<uint64_t> seg_bytes;
  LOB_RETURN_IF_ERROR(mgr->VisitSegments(
      id, [&](uint64_t bytes, uint32_t /*pages*/) {
        seg_bytes.push_back(bytes);
        return Status::OK();
      }));
  const uint64_t tp = static_cast<uint64_t>(threshold_pages) * page_size;
  for (size_t i = 0; i + 1 < seg_bytes.size(); ++i) {
    const uint64_t a = seg_bytes[i];
    const uint64_t b = seg_bytes[i + 1];
    if ((a < tp || b < tp) && a + b <= 2 * tp + 2 * page_size) {
      issues->push_back(
          {FsckIssueKind::kStructure, 0, kInvalidPage, 0, id,
           Sprintf("object %u: segments %zu (%" PRIu64 " B) and %zu "
                   "(%" PRIu64 " B) violate threshold T=%u pages",
                   id, i, a, i + 1, b, threshold_pages)});
    }
  }
  return Status::OK();
}

}  // namespace

const char* FsckIssueKindName(FsckIssueKind kind) {
  switch (kind) {
    case FsckIssueKind::kStructure:
      return "structure";
    case FsckIssueKind::kUnallocatedReference:
      return "unallocated-reference";
    case FsckIssueKind::kDoubleAllocated:
      return "double-allocated";
    case FsckIssueKind::kByteDrift:
      return "byte-drift";
    case FsckIssueKind::kLeakedExtent:
      return "leaked-extent";
  }
  return "unknown";
}

std::string FsckIssue::ToString() const {
  return std::string(FsckIssueKindName(kind)) + ": " + detail;
}

bool FsckReport::HasCorruption() const {
  return std::any_of(issues.begin(), issues.end(), [](const FsckIssue& i) {
    return i.kind != FsckIssueKind::kLeakedExtent;
  });
}

bool FsckReport::HasLeaks() const {
  return std::any_of(issues.begin(), issues.end(), [](const FsckIssue& i) {
    return i.kind == FsckIssueKind::kLeakedExtent;
  });
}

std::string FsckReport::ToString() const {
  if (issues.empty()) return "fsck: clean\n";
  std::string out;
  for (const FsckIssue& i : issues) {
    out += i.ToString();
    out += '\n';
  }
  return out;
}

StatusOr<FsckReport> FsckObjects(
    StorageSystem* sys,
    const std::vector<std::pair<ObjectId, LargeObjectManager*>>& objects,
    const std::vector<PageId>& extra_meta_pages, const FsckOptions& options) {
  // The whole walk is an audit: do not meter it, do not let it trip armed
  // fault injections (suspended sections are exempt; see sim_disk.h).
  StorageSystem::UnmeteredSection unmetered(sys);
  FsckReport report;
  std::unordered_map<uint64_t, ObjectId> claims;
  const AreaId meta = sys->meta_area()->id();
  const AreaId leaf = sys->leaf_area()->id();

  for (PageId page : extra_meta_pages) {
    ClaimExtent(sys->meta_area(), meta, kInvalidPage, {meta, page, 1},
                &claims, &report.issues);
  }

  for (const auto& [id, mgr] : objects) {
    // 1. Engine-specific structural invariants.
    Status valid = mgr->Validate(id);
    if (!valid.ok()) {
      report.issues.push_back(
          {FsckIssueKind::kStructure, 0, kInvalidPage, 0, id,
           Sprintf("object %u (%s): %s", id, EngineName(mgr->engine()),
                   valid.ToString().c_str())});
      continue;  // reference walks on a broken structure are unreliable
    }

    // 2. Every owned extent must be allocated and singly claimed.
    Status walked = mgr->VisitOwnedExtents(
        id, [&](const LargeObjectManager::OwnedExtent& ext) {
          DatabaseArea* area_obj =
              ext.area == meta ? sys->meta_area() : sys->leaf_area();
          ClaimExtent(area_obj, ext.area, id, ext, &claims, &report.issues);
          return Status::OK();
        });
    LOB_RETURN_IF_ERROR(walked);

    // 3. Byte accounting: segment bytes must sum to the logical size.
    uint64_t seg_sum = 0;
    LOB_RETURN_IF_ERROR(mgr->VisitSegments(
        id, [&](uint64_t bytes, uint32_t /*pages*/) {
          seg_sum += bytes;
          return Status::OK();
        }));
    auto size = mgr->Size(id);
    if (!size.ok()) return size.status();
    if (seg_sum != *size) {
      report.issues.push_back(
          {FsckIssueKind::kByteDrift, 0, kInvalidPage, 0, id,
           Sprintf("object %u: segments hold %" PRIu64
                   " bytes but the object claims %" PRIu64,
                   id, seg_sum, *size)});
    }

    // 4. Optional EOS threshold audit.
    if (options.eos_threshold_pages > 0 && mgr->engine() == Engine::kEos) {
      LOB_RETURN_IF_ERROR(AuditEosThreshold(mgr, id,
                                            options.eos_threshold_pages,
                                            sys->config().page_size,
                                            &report.issues));
    }
  }

  // 5. Allocator sweep: anything allocated that nobody claimed is a leak.
  SweepArea(sys->meta_area(), meta, claims, &report.issues);
  SweepArea(sys->leaf_area(), leaf, claims, &report.issues);
  return report;
}

StatusOr<FsckReport> FsckDatabase(Database* db, uint32_t parameter,
                                  const FsckOptions& options) {
  // The catalog walks and root reads below are part of the audit too, so
  // the section covers them; FsckObjects nests its own inside it.
  StorageSystem::UnmeteredSection unmetered(db->sys());
  auto catalog_pages = db->catalog()->Pages();
  if (!catalog_pages.ok()) return catalog_pages.status();
  std::vector<PageId> extra = *catalog_pages;
  extra.push_back(db->superblock());

  auto bindings = db->catalog()->List();
  if (!bindings.ok()) return bindings.status();
  std::vector<std::pair<ObjectId, LargeObjectManager*>> objects;
  for (const auto& [name, id] : *bindings) {
    auto mgr = db->ManagerForObject(id, parameter);
    if (!mgr.ok()) return mgr.status();
    objects.emplace_back(id, *mgr);
  }
  auto report = FsckObjects(db->sys(), objects, extra, options);
  if (!report.ok()) return report;

  // 6. The catalog's volatile name index must match its chain.
  Status index = db->catalog()->CheckIndex();
  if (index.code() == StatusCode::kCorruption) {
    report->issues.push_back({FsckIssueKind::kStructure, 0, kInvalidPage, 0,
                              kInvalidPage, index.message()});
  } else if (!index.ok()) {
    return index;
  }
  return report;
}

}  // namespace lob
