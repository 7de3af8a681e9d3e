// LargeObjectManager: the public byte-level interface all three storage
// structures implement.
//
// The paper's requirement list (1): create/destroy objects of virtually
// unlimited size; read or replace a random byte range; insert or delete
// bytes at arbitrary positions; append bytes at the end. Objects are
// identified by the page number of their root / descriptor page, which
// lives alone in its own page of the meta area.

#ifndef LOB_CORE_LARGE_OBJECT_H_
#define LOB_CORE_LARGE_OBJECT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "common/status.h"
#include "iomodel/sim_disk.h"

namespace lob {

/// Object identity: the meta-area page holding its root or descriptor.
using ObjectId = PageId;

/// The storage structure behind a manager.
enum class Engine : uint8_t {
  kEsm = 1,        ///< EXODUS: fixed-size leaves under a positional tree
  kStarburst = 2,  ///< Starburst: doubling extents, descriptor array
  kEos = 3,        ///< EOS: variable-size segments under a positional tree
};

const char* EngineName(Engine engine);

/// Per-object storage accounting (the paper's utilization metric).
struct ObjectStorageStats {
  uint64_t object_bytes = 0;  ///< logical size
  uint64_t leaf_pages = 0;    ///< pages allocated to data segments
  uint64_t index_pages = 0;   ///< root/descriptor plus internal nodes
  uint32_t segments = 0;      ///< number of leaf segments
  uint16_t tree_height = 1;

  /// object size / space required to store it, index pages included.
  double Utilization(uint32_t page_size) const {
    const uint64_t total = (leaf_pages + index_pages) * page_size;
    return total == 0 ? 1.0
                      : static_cast<double>(object_bytes) /
                            static_cast<double>(total);
  }
};

/// Abstract large object manager. Implementations are not thread-safe (the
/// study simulates a single-user system).
class LargeObjectManager {
 public:
  virtual ~LargeObjectManager() = default;

  /// Creates an empty object and returns its id.
  [[nodiscard]] virtual StatusOr<ObjectId> Create() = 0;

  /// Destroys the object, freeing every page it owns.
  [[nodiscard]] virtual Status Destroy(ObjectId id) = 0;

  /// Logical size in bytes.
  [[nodiscard]] virtual StatusOr<uint64_t> Size(ObjectId id) = 0;

  /// Reads `n` bytes at `offset` into `out`. On success *out holds exactly
  /// those `n` bytes, whatever it held before; on any failure it is empty.
  /// A range that does not lie within the object is OutOfRange.
  [[nodiscard]] virtual Status Read(ObjectId id, uint64_t offset, uint64_t n,
                      std::string* out) = 0;

  /// Appends `data` at the end of the object.
  [[nodiscard]] virtual Status Append(ObjectId id, std::string_view data) = 0;

  /// Inserts `data` before byte `offset` (offset == size appends).
  [[nodiscard]] virtual Status Insert(ObjectId id, uint64_t offset,
                        std::string_view data) = 0;

  /// Deletes `n` bytes starting at `offset`. A range that does not lie
  /// within the object is OutOfRange, and the object is left unchanged.
  [[nodiscard]]
  virtual Status Delete(ObjectId id, uint64_t offset, uint64_t n) = 0;

  /// Overwrites bytes [offset, offset + data.size()) without changing the
  /// object length. A range that does not lie within the object is
  /// OutOfRange, and the object is left unchanged.
  [[nodiscard]] virtual Status Replace(ObjectId id, uint64_t offset,
                         std::string_view data) = 0;

  /// Walks the object's structure and reports storage accounting. Intended
  /// for audits/tests; wrap in StorageSystem::UnmeteredSection when the
  /// walk must not count toward measured I/O.
  [[nodiscard]]
  virtual StatusOr<ObjectStorageStats> GetStorageStats(ObjectId id) = 0;

  /// Structural self-check (invariants of the specific engine).
  [[nodiscard]] virtual Status Validate(ObjectId id) = 0;

  /// Calls `fn(bytes, pages)` for every data segment of the object, left
  /// to right (`bytes` = useful bytes, `pages` = allocated pages). Useful
  /// for analyzing how updates degrade segment sizes (paper 4.4.2).
  [[nodiscard]] virtual Status VisitSegments(
      ObjectId id,
      const std::function<Status(uint64_t bytes, uint32_t pages)>& fn) = 0;

  /// One extent the object owns, as reported by VisitOwnedExtents.
  struct OwnedExtent {
    AreaId area = 0;
    PageId first_page = kInvalidPage;
    uint32_t pages = 0;
  };

  /// Calls `fn` for every extent of every area the object owns: its data
  /// segments (with their *allocated* page counts, slack included) and its
  /// index/descriptor pages, the root page included. This is the ground
  /// truth the consistency checker (src/check) cross-references against
  /// the allocator: a page allocated but never reported is a leak; a page
  /// reported twice or reported-but-free is corruption.
  [[nodiscard]] virtual Status VisitOwnedExtents(
      ObjectId id, const std::function<Status(const OwnedExtent&)>& fn) = 0;

  /// Releases growth slack: frees allocated-but-unused whole pages at the
  /// right end of the object ("the last segment is trimmed", paper 2.2).
  /// A no-op for engines without over-allocation (ESM).
  [[nodiscard]] virtual Status Trim(ObjectId id) = 0;

  virtual Engine engine() const = 0;
};

}  // namespace lob

#endif  // LOB_CORE_LARGE_OBJECT_H_
