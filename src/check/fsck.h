// Fsck: cross-engine storage consistency checker.
//
// The paper's structures rely on shadowing for consistency, but a fault in
// the middle of a structural update can still strand state: an extent the
// allocator thinks is taken but no object references (a *leak*), a page
// two structures claim at once (*double allocation*), or an object whose
// index no longer matches its bytes (*corruption*). Fsck makes every such
// state detectable after any prefix of writes:
//
//   1. Per-object structure: the engine's own Validate() (ESM positional
//      tree counts vs. leaf contents, Starburst descriptor doubling /
//      middle-segments-full / last-trim rules, EOS no-holes), plus an
//      optional EOS segment-size-threshold audit.
//   2. Reference validity: every extent an object reports through
//      VisitOwnedExtents must be allocated in the owning DatabaseArea
//      (else the object references freed pages) and claimed by exactly
//      one owner (else two structures share pages).
//   3. Byte accounting: the sum of per-segment useful bytes reported by
//      VisitSegments must equal the object's logical size.
//   4. Allocator sweep: every allocated non-directory page of both areas
//      must be claimed by some object (or the database superblock /
//      catalog chain); an unclaimed allocated extent is a leak.
//   5. Catalog index (FsckDatabase only): a rescan of the catalog chain
//      must match the catalog's volatile name index page for page and
//      name for name; a difference is a structure issue.
//
// Both entry points run the whole walk (FsckDatabase's catalog scans and
// root reads included) inside StorageSystem::UnmeteredSection, so it
// neither perturbs measured I/O costs nor trips armed fault injections -
// fsck can examine a system whose disk still has a sticky fault armed.

#ifndef LOB_CHECK_FSCK_H_
#define LOB_CHECK_FSCK_H_

#include <string>
#include <utility>
#include <vector>

#include "core/large_object.h"
#include "core/storage_system.h"

namespace lob {

class Database;

struct FsckOptions {
  /// When non-zero, audit EOS objects against this segment size threshold
  /// T (pages): an adjacent pair of segments where one side holds fewer
  /// than T pages' worth of bytes and the pair is small enough to merge is
  /// reported as a structure issue. Opt-in because freshly appended
  /// objects legitimately carry sub-threshold doubling segments (the
  /// invariant only holds for regions EnforceThreshold has repaired).
  uint32_t eos_threshold_pages = 0;
};

enum class FsckIssueKind : uint8_t {
  kStructure,             ///< engine invariant broken (corruption)
  kUnallocatedReference,  ///< object references pages the allocator freed
  kDoubleAllocated,       ///< one page claimed by two owners
  kByteDrift,             ///< segment byte sum != logical object size
  kLeakedExtent,          ///< allocated pages no owner claims
};

const char* FsckIssueKindName(FsckIssueKind kind);

struct FsckIssue {
  FsckIssueKind kind;
  AreaId area = 0;
  PageId page = kInvalidPage;  ///< first affected page (if page-scoped)
  uint32_t pages = 0;          ///< run length (if page-scoped)
  ObjectId object = kInvalidPage;  ///< offending object (if object-scoped)
  std::string detail;

  std::string ToString() const;
};

struct FsckReport {
  std::vector<FsckIssue> issues;

  bool clean() const { return issues.empty(); }

  /// Any issue other than a leaked extent: the structures themselves are
  /// wrong, not merely wasteful.
  bool HasCorruption() const;

  /// Allocated-but-unreferenced extents exist.
  bool HasLeaks() const;

  /// One line per issue, deterministic order.
  std::string ToString() const;
};

/// Checks the given objects (each with the manager that owns it) and
/// sweeps both allocator areas. `extra_meta_pages` lists meta-area pages
/// that are legitimately allocated but belong to no object (superblock,
/// catalog chain); pass {} when checking bare StorageSystem setups.
[[nodiscard]] StatusOr<FsckReport> FsckObjects(
    StorageSystem* sys,
    const std::vector<std::pair<ObjectId, LargeObjectManager*>>& objects,
    const std::vector<PageId>& extra_meta_pages = {},
    const FsckOptions& options = FsckOptions());

/// Whole-database check: superblock + catalog chain + every cataloged
/// object (resolved to its engine's manager with `parameter`).
[[nodiscard]] StatusOr<FsckReport> FsckDatabase(
    Database* db, uint32_t parameter = 4,
    const FsckOptions& options = FsckOptions());

}  // namespace lob

#endif  // LOB_CHECK_FSCK_H_
