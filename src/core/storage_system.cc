#include "core/storage_system.h"

namespace lob {

StorageSystem::StorageSystem(const StorageConfig& config) : config_(config) {
  obs_ = std::make_unique<ObsRegistry>();
  disk_ = std::make_unique<SimDisk>(config_);
  disk_->set_obs(obs_.get());
  pool_ = std::make_unique<BufferPool>(disk_.get(), config_);
  const AreaId meta_id = disk_->CreateArea();
  const AreaId leaf_id = disk_->CreateArea();
  meta_area_ = std::make_unique<DatabaseArea>(pool_.get(), meta_id, config_);
  leaf_area_ = std::make_unique<DatabaseArea>(pool_.get(), leaf_id, config_);
}

}  // namespace lob
