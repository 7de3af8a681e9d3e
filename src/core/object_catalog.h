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
// freshly allocated successor. Every operation walks the pinned frame in
// place: Put appends after the last entry, Remove slides the entries after
// the match over it, and bytes past `used` are stale and never read.

#ifndef LOB_CORE_OBJECT_CATALOG_H_
#define LOB_CORE_OBJECT_CATALOG_H_

#include <string>
#include <string_view>
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

  /// Opens an existing catalog rooted at `head` (validates the magic).
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

  /// Frees every catalog page (bindings only; objects survive).
  [[nodiscard]] Status Drop();

  /// The meta-area pages of the catalog chain, head first. Ground truth
  /// for the consistency checker (src/check), which must account for
  /// every allocated meta page.
  [[nodiscard]] StatusOr<std::vector<PageId>> Pages();

  PageId head() const { return head_; }

 private:
  AreaId area_id() const { return sys_->meta_area()->id(); }

  StorageSystem* sys_;
  PageId head_ = kInvalidPage;
};

}  // namespace lob

#endif  // LOB_CORE_OBJECT_CATALOG_H_
