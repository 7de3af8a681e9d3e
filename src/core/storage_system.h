// StorageSystem: the assembled substrate the three large object managers
// run on.
//
// Mirrors the paper's setup (4.1): one simulated disk, a buffer pool
// (Table 1 parameters), and two buddy-managed database areas - one for the
// leaf segments holding the bytes of large objects, and one for everything
// else (roots, index nodes, long field descriptors, buddy directories).

#ifndef LOB_CORE_STORAGE_SYSTEM_H_
#define LOB_CORE_STORAGE_SYSTEM_H_

#include <memory>

#include "buddy/database_area.h"
#include "buffer/buffer_pool.h"
#include "common/arena.h"
#include "buffer/op_context.h"
#include "common/config.h"
#include "iomodel/sim_disk.h"
#include "obs/obs_registry.h"
#include "obs/op_scope.h"

namespace lob {

/// Owns the simulated disk, buffer pool and the two database areas.
class StorageSystem {
 public:
  explicit StorageSystem(const StorageConfig& config = StorageConfig());

  StorageSystem(const StorageSystem&) = delete;
  StorageSystem& operator=(const StorageSystem&) = delete;

  SimDisk* disk() { return disk_.get(); }
  BufferPool* pool() { return pool_.get(); }

  /// Shared per-operation scratch arena. Engines hand it to OpContext (and
  /// any other short-lived hot-path bookkeeping) so steady-state operations
  /// allocate nothing; nested users follow mark/rewind stack discipline.
  ScratchArena* arena() { return &arena_; }

  /// Per-operation I/O ledger: one record (op count, attributed I/O, ms
  /// histogram) per OpScope label on the disk.
  ObsRegistry* obs() { return obs_.get(); }
  const ObsRegistry* obs() const { return obs_.get(); }

  /// Area for roots, index pages, descriptors ("everything else", 4.1).
  DatabaseArea* meta_area() { return meta_area_.get(); }

  /// Area for the leaf segments holding large object bytes.
  DatabaseArea* leaf_area() { return leaf_area_.get(); }

  const StorageConfig& config() const { return config_; }

  /// Accumulated modeled I/O since construction / ResetStats().
  const IoStats& stats() const { return disk_->stats(); }
  void ResetStats() { disk_->ResetStats(); }

  /// Writes back every dirty buffered page (roots included).
  [[nodiscard]] Status FlushAll() { return pool_->FlushAll(); }

  /// Bytes of disk space currently allocated to segments (leaf area plus
  /// meta area); the denominator of the paper's storage utilization metric.
  uint64_t AllocatedBytes() const {
    return (leaf_area_->allocated_pages() + meta_area_->allocated_pages()) *
           config_.page_size;
  }

  /// RAII helper: restores the I/O counters on destruction so audits and
  /// validation walks do not perturb measured costs. Attribution is
  /// suspended for the section's duration: the restored global stats and
  /// the untouched per-op ledger stay consistent, preserving the
  /// conservation invariant (sum of attributed stats == global stats).
  class UnmeteredSection {
   public:
    explicit UnmeteredSection(StorageSystem* sys)
        : sys_(sys), saved_(sys->stats()) {
      sys_->disk()->SuspendAttribution();
    }
    ~UnmeteredSection() {
      sys_->disk()->ResumeAttribution();
      sys_->disk()->SetStats(saved_);
    }
    UnmeteredSection(const UnmeteredSection&) = delete;
    UnmeteredSection& operator=(const UnmeteredSection&) = delete;

   private:
    StorageSystem* sys_;
    IoStats saved_;
  };

 private:
  StorageConfig config_;
  ScratchArena arena_;
  std::unique_ptr<ObsRegistry> obs_;
  std::unique_ptr<SimDisk> disk_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<DatabaseArea> meta_area_;
  std::unique_ptr<DatabaseArea> leaf_area_;
};

}  // namespace lob

#endif  // LOB_CORE_STORAGE_SYSTEM_H_
