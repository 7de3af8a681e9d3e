#include "core/database.h"

#include <cstring>

#include "buddy/scoped_extent.h"
#include "common/logging.h"
#include "iomodel/disk_image.h"

namespace lob {

namespace {

constexpr uint32_t kSuperblockMagic = 0x4C4F4253;  // "LOBS"
constexpr uint32_t kSuperblockVersion = 1;

uint32_t LoadU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
void StoreU32(char* p, uint32_t v) { std::memcpy(p, &v, 4); }

}  // namespace

StatusOr<std::unique_ptr<Database>> Database::Create(
    const StorageConfig& config) {
  std::unique_ptr<Database> db(new Database());
  db->sys_ = std::make_unique<StorageSystem>(config);
  LOB_RETURN_IF_ERROR(db->InitFresh());
  return db;
}

Status Database::InitFresh() {
  // The superblock is the very first allocation of the meta area, which
  // deterministically lands on the first data page of space 0. It stays
  // under guard until it is durably formatted: a failure while creating
  // the catalog must not strand the page.
  auto ext = ScopedExtent::Allocate(sys_->meta_area(), sys_->pool(), 1);
  if (!ext.ok()) return ext.status();
  superblock_ = ext->first_page();
  catalog_ = std::make_unique<ObjectCatalog>(sys_.get());
  auto head = catalog_->Create();
  if (!head.ok()) return head.status();
  auto g = sys_->pool()->FixPage(sys_->meta_area()->id(), superblock_,
                                 FixMode::kNew);
  if (!g.ok()) return g.status();
  char* p = g->mutable_data();
  StoreU32(p, kSuperblockMagic);
  StoreU32(p + 4, kSuperblockVersion);
  StoreU32(p + 8, *head);
  g->MarkDirty();
  LOB_RETURN_IF_ERROR(
      sys_->pool()->FlushRun(sys_->meta_area()->id(), superblock_, 1));
  ext->Commit();
  return Status::OK();
}

StatusOr<std::unique_ptr<Database>> Database::Open(
    const std::string& path, const StorageConfig& config) {
  std::unique_ptr<Database> db(new Database());
  db->sys_ = std::make_unique<StorageSystem>(config);
  // The storage system starts with two empty areas; the image is loaded
  // into them, then allocator state is recovered from the directory
  // blocks it contains.
  LOB_RETURN_IF_ERROR(LoadDiskImage(db->sys_->disk(), path));
  LOB_RETURN_IF_ERROR(db->InitFromImage());
  return db;
}

Status Database::InitFromImage() {
  LOB_RETURN_IF_ERROR(sys_->meta_area()->RecoverSpaces(*sys_->disk()));
  LOB_RETURN_IF_ERROR(sys_->leaf_area()->RecoverSpaces(*sys_->disk()));
  // Superblock = first data page of meta space 0 (page 1: page 0 is the
  // buddy directory).
  superblock_ = 1;
  auto g = sys_->pool()->FixPage(sys_->meta_area()->id(), superblock_,
                                 FixMode::kRead);
  if (!g.ok()) return g.status();
  if (LoadU32(g->data()) != kSuperblockMagic) {
    return Status::Corruption("bad superblock magic");
  }
  if (LoadU32(g->data() + 4) != kSuperblockVersion) {
    return Status::Corruption("unsupported superblock version");
  }
  const PageId head = LoadU32(g->data() + 8);
  catalog_ = std::make_unique<ObjectCatalog>(sys_.get());
  return catalog_->Open(head);
}

Status Database::Save(const std::string& path) {
  // Re-sync any buddy directory blocks whose rewrite was absorbed by an
  // infallible Free (see DatabaseArea::Free): the saved image must carry
  // allocator state an Open() can recover from.
  LOB_RETURN_IF_ERROR(sys_->meta_area()->SyncDirectories());
  LOB_RETURN_IF_ERROR(sys_->leaf_area()->SyncDirectories());
  LOB_RETURN_IF_ERROR(sys_->FlushAll());
  return SaveDiskImage(*sys_->disk(), path);
}

StatusOr<ObjectId> Database::CreateObject(std::string_view name,
                                          Engine engine, uint32_t parameter) {
  auto mgr = ManagerFor(engine, parameter);
  if (!mgr.ok()) return mgr.status();
  auto id = (*mgr)->Create();
  if (!id.ok()) return id;
  Status bound = catalog_->Put(name, *id);
  if (!bound.ok()) {
    // Best-effort rollback: the operation already fails with the catalog
    // error. A rollback failure additionally leaks the fresh object's
    // pages — survivable, but it must not pass silently.
    Status rollback = (*mgr)->Destroy(*id);
    if (!rollback.ok()) {
      LOB_LOG_WARN("CreateObject rollback failed, object %u leaked: %s",
                   *id, rollback.ToString().c_str());
    }
    return bound;
  }
  return id;
}

StatusOr<ObjectId> Database::Lookup(std::string_view name) {
  return catalog_->Get(name);
}

Status Database::DropObject(std::string_view name) {
  auto id = catalog_->Get(name);
  if (!id.ok()) return id.status();
  auto engine = ObjectEngine(*id);
  if (!engine.ok()) return engine.status();
  auto mgr = ManagerFor(*engine);
  if (!mgr.ok()) return mgr.status();
  // Unbind first: a failed Destroy then leaks the object's pages, which
  // fsck's sweep reports, but never leaves the name bound to freed pages.
  LOB_RETURN_IF_ERROR(catalog_->Remove(name));
  return (*mgr)->Destroy(*id);
}

StatusOr<Engine> Database::ObjectEngine(ObjectId id) {
  auto g = sys_->pool()->FixPage(sys_->meta_area()->id(), id, FixMode::kRead);
  if (!g.ok()) return g.status();
  const uint32_t magic = LoadU32(g->data());
  if (magic == 0x4C4F4244) return Engine::kStarburst;  // long field desc
  if (magic == 0x4C4F4252) {  // positional tree root: engine byte at 4
    const uint8_t e = static_cast<uint8_t>(g->data()[4]);
    if (e == static_cast<uint8_t>(Engine::kEsm)) return Engine::kEsm;
    if (e == static_cast<uint8_t>(Engine::kEos)) return Engine::kEos;
  }
  return Status::Corruption("page is not an object root");
}

StatusOr<LargeObjectManager*> Database::ManagerFor(Engine engine,
                                                   uint32_t parameter) {
  if (engine == Engine::kStarburst) parameter = 0;
  if (engine != Engine::kStarburst && parameter == 0) {
    return Status::InvalidArgument("leaf size / threshold must be >= 1");
  }
  const auto key = std::make_pair(static_cast<uint8_t>(engine), parameter);
  auto it = managers_.find(key);
  if (it != managers_.end()) return it->second.get();
  std::unique_ptr<LargeObjectManager> mgr;
  switch (engine) {
    case Engine::kEsm:
      mgr = CreateEsmManager(sys_.get(), parameter);
      break;
    case Engine::kStarburst:
      mgr = CreateStarburstManager(sys_.get());
      break;
    case Engine::kEos:
      mgr = CreateEosManager(sys_.get(), parameter);
      break;
  }
  if (mgr == nullptr) return Status::InvalidArgument("unknown engine");
  LargeObjectManager* raw = mgr.get();
  managers_[key] = std::move(mgr);
  return raw;
}

StatusOr<LargeObjectManager*> Database::ManagerForObject(
    ObjectId id, uint32_t parameter) {
  auto engine = ObjectEngine(id);
  if (!engine.ok()) return engine.status();
  return ManagerFor(*engine, parameter);
}

}  // namespace lob
