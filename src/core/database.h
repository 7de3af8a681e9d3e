// Database: the top-level convenience wrapper - a storage system, a
// superblock, a named object catalog, and save/reopen of the whole disk
// image.
//
// The paper's storage managers are libraries inside a database system;
// Database supplies the minimal surrounding shell: create named large
// objects with any of the three engines, reopen the database later, and
// get back managers for the stored objects (each object's root records
// which engine owns it).

#ifndef LOB_CORE_DATABASE_H_
#define LOB_CORE_DATABASE_H_

#include <map>
#include <memory>
#include <string>
#include <utility>

#include "core/factory.h"
#include "core/large_object.h"
#include "core/object_catalog.h"
#include "core/storage_system.h"

namespace lob {

/// A database instance: storage system + superblock + catalog.
class Database {
 public:
  /// Creates a fresh, empty database.
  [[nodiscard]] static StatusOr<std::unique_ptr<Database>> Create(
      const StorageConfig& config = StorageConfig());

  /// Reopens a database previously saved with Save().
  [[nodiscard]] static StatusOr<std::unique_ptr<Database>> Open(
      const std::string& path, const StorageConfig& config = StorageConfig());

  /// Flushes all buffered state and writes the disk image to `path`.
  [[nodiscard]] Status Save(const std::string& path);

  /// Creates a named object with the given engine. `parameter` is the
  /// leaf size in pages for ESM, the segment size threshold for EOS, and
  /// ignored for Starburst.
  [[nodiscard]]
  StatusOr<ObjectId> CreateObject(std::string_view name, Engine engine,
                                  uint32_t parameter = 4);

  /// Looks up a named object.
  [[nodiscard]] StatusOr<ObjectId> Lookup(std::string_view name);

  /// Unbinds a name and destroys its object. If the destroy fails, the
  /// name is already gone and the object's pages leak (fsck reports them).
  [[nodiscard]] Status DropObject(std::string_view name);

  /// Which engine stores the object (read from its root/descriptor page).
  [[nodiscard]] StatusOr<Engine> ObjectEngine(ObjectId id);

  /// Manager able to operate on the given engine's objects. The manager
  /// is cached; ESM/EOS managers are instantiated per parameter value.
  [[nodiscard]] StatusOr<LargeObjectManager*> ManagerFor(Engine engine,
                                           uint32_t parameter = 4);

  /// Convenience: manager for a *named* object, resolved via its root.
  /// Note: the structural parameter (leaf size / threshold) is not stored
  /// per object; the default manager of the engine is returned. Pass the
  /// parameter explicitly for non-default configurations.
  [[nodiscard]] StatusOr<LargeObjectManager*> ManagerForObject(ObjectId id,
                                                 uint32_t parameter = 4);

  StorageSystem* sys() { return sys_.get(); }
  ObjectCatalog* catalog() { return catalog_.get(); }

  /// Meta-area page of the superblock (for consistency checks).
  PageId superblock() const { return superblock_; }

 private:
  Database() = default;

  [[nodiscard]] Status InitFresh();
  [[nodiscard]] Status InitFromImage();

  std::unique_ptr<StorageSystem> sys_;
  std::unique_ptr<ObjectCatalog> catalog_;
  PageId superblock_ = kInvalidPage;
  // Cache: key = (engine, parameter).
  std::map<std::pair<uint8_t, uint32_t>, std::unique_ptr<LargeObjectManager>>
      managers_;
};

}  // namespace lob

#endif  // LOB_CORE_DATABASE_H_
