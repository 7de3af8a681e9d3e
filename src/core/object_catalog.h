// ObjectCatalog: a named directory of large objects.
//
// The paper's storage managers identify an object by the page number of
// its root or descriptor; real clients need a way to find that page again.
// The catalog is a chain of meta-area pages mapping UTF-8 names to object
// ids - the role the file/directory layer plays above EXODUS or Starburst.
//
// Layout of a catalog page (4 KB):
//   [0]  u32 magic 'LOBC'
//   [4]  u32 next page (kInvalidPage when last in chain)
//   [8]  u16 entry count
//   [10] u16 bytes used by entries
//   [12] entries: { u8 name_len, name bytes, u32 object id } packed
//
// Entries never span pages; a page that cannot fit a new entry links to a
// freshly allocated successor. Every page operation walks the pinned frame
// in place: Put appends after the last entry, Remove slides the entries
// after the match over it, and bytes past `used` are stale and never read.
//
// The chain is the only durable format. Create and Open also build a
// volatile name index - each chain page with its `used`, and each name
// with the chain page that holds it - and every edit keeps it current once
// the page's flush succeeds. So Get and Remove fix only the page the index
// names, Put fixes only the first page with room (first fit, as the chain
// walk chose), and an absent Get or a duplicate Put costs no I/O. The page
// an operation fixes is still validated whole, and a page that disagrees
// with the index is Corruption. List, Size, Pages and Drop walk the chain,
// the ground truth for fsck; every chain walk is bounded by the meta
// area's allocated page count, so a `next` link that loops is Corruption.

#ifndef LOB_CORE_OBJECT_CATALOG_H_
#define LOB_CORE_OBJECT_CATALOG_H_

#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/large_object.h"
#include "core/storage_system.h"

namespace lob {

/// Name -> ObjectId directory stored in the meta area.
class ObjectCatalog {
 public:
  explicit ObjectCatalog(StorageSystem* sys);

  /// Allocates and formats an empty catalog; returns its head page.
  [[nodiscard]] StatusOr<PageId> Create();

  /// Opens an existing catalog rooted at `head`: walks and validates the
  /// whole chain and builds the name index. A damaged page, a duplicate
  /// name or a chain longer than the meta area is Corruption.
  [[nodiscard]] Status Open(PageId head);

  /// Binds `name` to `id`. Fails with InvalidArgument if the name is
  /// empty, longer than 255 bytes, or already bound.
  [[nodiscard]] Status Put(std::string_view name, ObjectId id);

  /// Looks a name up.
  [[nodiscard]] StatusOr<ObjectId> Get(std::string_view name);

  /// Removes a binding (NotFound if absent). The object itself is not
  /// destroyed - the catalog only stores references.
  [[nodiscard]] Status Remove(std::string_view name);

  /// True if the name is bound.
  [[nodiscard]] StatusOr<bool> Contains(std::string_view name);

  /// All bindings, in chain order.
  [[nodiscard]] StatusOr<std::vector<std::pair<std::string, ObjectId>>> List();

  /// Number of bindings.
  [[nodiscard]] StatusOr<uint64_t> Size();

  /// Frees every catalog page (bindings only; objects survive). The whole
  /// chain is walked first, so a damaged chain frees nothing.
  [[nodiscard]] Status Drop();

  /// The meta-area pages of the catalog chain, head first. Ground truth
  /// for the consistency checker (src/check), which must account for
  /// every allocated meta page.
  [[nodiscard]] StatusOr<std::vector<PageId>> Pages();

  /// Rescans the chain as Open does and compares its pages, their `used`
  /// and every name's page with the live index; a difference is
  /// Corruption. For the consistency checker.
  [[nodiscard]] Status CheckIndex();

  PageId head() const { return head_; }

 private:
  /// One chain page: its id and the bytes its entries use.
  struct IndexedPage {
    PageId page;
    uint32_t used;
    bool operator==(const IndexedPage&) const = default;
  };
  /// Hashes std::string and std::string_view alike, so a lookup by view
  /// does not build a string.
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view name) const {
      return std::hash<std::string_view>{}(name);
    }
  };
  /// The volatile index: chain pages in order, and name -> chain position.
  struct Index {
    std::vector<IndexedPage> pages;
    std::unordered_map<std::string, size_t, NameHash, std::equal_to<>> names;
  };

  AreaId area_id() const { return sys_->meta_area()->id(); }

  /// Walks the chain from `head`, validating every page, into `index`.
  [[nodiscard]] Status Scan(PageId head, Index* index);

  /// Walks the indexed page at chain position `slot`, calling `visit` per
  /// entry, and checks that its entries still end where the index says.
  template <typename Visit>
  [[nodiscard]] Status WalkIndexed(size_t slot, PageId* next, Visit&& visit);

  /// Links a fresh, empty page after the tail and indexes it.
  [[nodiscard]] Status Grow();

  StorageSystem* sys_;
  PageId head_ = kInvalidPage;
  Index index_;
};

}  // namespace lob

#endif  // LOB_CORE_OBJECT_CATALOG_H_
