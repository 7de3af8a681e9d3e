// The benchmark's workloads: a seeded generator that turns (workload, seed,
// op count) into a plan of set-up and timed ops plus the oracle that checks
// them, and the stores that execute a plan through the library's public API
// (LargeObjectManager, Database).
//
// Ops and bytes come only from this file's generator. Nothing here uses
// src/workload or src/common/rng.h, so a change there cannot shift the load.
// Every payload is a slice of one seeded byte pool, made before any timing
// starts, so byte-making is outside every timed window and outside setup_s.

#ifndef PERFBENCH_LOBBENCH_WORKLOADS_H_
#define PERFBENCH_LOBBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "check/fsck.h"
#include "core/large_object.h"
#include "core/storage_system.h"

namespace perfbench {

/// SplitMix64: small, fast and fully specified, so a seed names the same
/// load on every platform and in every later version of the library.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Uniform in [lo, hi].
  uint64_t Between(uint64_t lo, uint64_t hi) { return lo + Below(hi - lo + 1); }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Seeded random bytes. Every payload the benchmark writes is a slice of
/// the pool at a random offset, so the oracle stores (offset, length) pairs
/// instead of bytes.
class BytePool {
 public:
  static constexpr uint64_t kSliceMax = uint64_t{1} << 20;
  BytePool(uint64_t seed, uint64_t span);
  std::string_view Slice(uint64_t off, uint64_t n) const {
    return std::string_view(bytes_).substr(off, n);
  }
  /// Offset at which any slice of up to kSliceMax bytes fits.
  uint64_t RandomOffset(Rng& rng) const { return rng.Below(span_); }

 private:
  uint64_t span_;
  std::string bytes_;
};

/// 64-bit content hash for checking reads against the oracle.
uint64_t Hash(std::string_view bytes);

/// A run of byte-pool bytes.
struct Piece {
  uint64_t src = 0;
  uint64_t len = 0;
};

/// Oracle of one object's bytes: the byte-pool slices it is made of.
class Content {
 public:
  uint64_t size() const { return size_; }
  void Clear() { blocks_.clear(); size_ = 0; }
  void Append(Piece p);
  void Insert(uint64_t pos, Piece p);
  void Erase(uint64_t pos, uint64_t n);
  /// Bytes [pos, pos + n) into *out.
  void Gather(const BytePool& pool, uint64_t pos, uint64_t n,
              std::string* out) const;

 private:
  static constexpr size_t kBlockPieces = 256;
  struct Block {
    std::vector<Piece> pieces;
    uint64_t bytes = 0;
  };
  struct Cursor {
    size_t block;
    size_t piece;
  };

  /// Splits the piece containing `pos` so that a piece starts there and
  /// returns it; {blocks_.size(), 0} when pos == size().
  Cursor SplitAt(uint64_t pos);
  void SplitBlockIfLong(size_t b);

  std::vector<Block> blocks_;
  uint64_t size_ = 0;
};

enum class OpKind : uint8_t {
  kRead,       ///< bytes [off, off + len) of object `target`
  kReadWhole,  ///< catalog: lookup, size, read all
  kInsert,     ///< insert len pool bytes at src before byte off
  kDelete,     ///< delete [off, off + len)
  kAppend,     ///< append len pool bytes at src
  kCreate,     ///< create object `target` (catalog: and fill it)
  kDrop,       ///< catalog: drop the object of slot `target`
  kTrim,       ///< seal: release growth slack
  kRotate,     ///< media: seal `target`, destroy `drop`, create `create`
};

inline bool IsRead(OpKind k) {
  return k == OpKind::kRead || k == OpKind::kReadWhole;
}

struct Op {
  OpKind kind = OpKind::kRead;
  bool sampled = false;  ///< read output is hashed and checked
  uint32_t target = 0;   ///< object serial or catalog slot
  uint32_t drop = 0;     ///< kRotate only
  uint32_t create = 0;   ///< kRotate only
  uint64_t off = 0;
  uint64_t len = 0;
  uint64_t src = 0;  ///< byte-pool offset of the payload
};

/// Engine and structural parameter (ESM leaf pages / EOS threshold).
struct EngineSpec {
  lob::Engine engine = lob::Engine::kEsm;
  uint32_t param = 4;
};

/// Everything one run of a workload replays, round after round.
struct Plan {
  bool uses_database = false;
  std::vector<EngineSpec> engines;  ///< per object serial / catalog slot
  std::vector<Op> setup;
  std::vector<Op> ops;
  std::vector<uint64_t> expected;  ///< hash of each sampled read, in order
  std::vector<Content> final_content;  ///< per serial/slot after the ops
  std::vector<bool> live_at_end;
  uint64_t live_bytes_at_end = 0;
};

/// Names of the workloads, in the order the benchmark documents them.
const std::vector<std::string>& WorkloadNames();

/// Timed ops per round when the caller does not override it.
uint64_t DefaultOpsPerRound(const std::string& workload);

/// Builds the plan of one of WorkloadNames().
Plan MakePlan(const std::string& workload, uint64_t seed, uint64_t ops,
              const BytePool& pool);

/// A fresh store executing one plan through the public API.
class Store {
 public:
  Store() = default;
  virtual ~Store() = default;
  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;
  virtual lob::StorageSystem* sys() = 0;
  /// Runs one op; a read's bytes land in *out.
  [[nodiscard]] virtual lob::Status Execute(const Op& op, std::string* out) = 0;
  /// Reads the whole object of serial/slot `target` (untimed checks).
  [[nodiscard]] virtual lob::Status ReadAll(uint32_t target,
                                            std::string* out) = 0;
  [[nodiscard]] virtual lob::StatusOr<lob::FsckReport> Fsck() = 0;
  /// Tallest positional tree among the live objects.
  [[nodiscard]] virtual lob::StatusOr<uint16_t> MaxTreeHeight() = 0;
  /// Pages of the name catalog chain (0 without a Database).
  [[nodiscard]] virtual lob::StatusOr<uint64_t> CatalogPages() = 0;
};

[[nodiscard]] lob::StatusOr<std::unique_ptr<Store>> MakeStore(
    const Plan& plan, const BytePool& pool);

}  // namespace perfbench

#endif  // PERFBENCH_LOBBENCH_WORKLOADS_H_
