// MetricsSnapshot: one unified, sorted-key JSON block of everything the
// simulator knows about a cell's health — the per-op percentile table
// (p50/p90/p99/max modeled ms from each ledger record's histogram),
// buffer-pool hit/miss/eviction rates, buddy-allocator free-extent
// stats for both areas, and the fault-model fire counters.
//
// This is schema v2 of the bench metrics story and the registry's only
// JSON view: BenchProfile embeds one snapshot per cell (and bench drivers
// one aggregate) in BENCH_*.json, `lobtool stats json` prints one, and
// scripts/check_perf.py gates the aggregate's per-op p99_ms
// ("metrics_snapshot.ops.esm.append.p99_ms"). Every field derives from
// modeled state only, so a snapshot is byte-identical for any --jobs.
//
// The JSON writer iterates std::map exclusively (lob_lint LOB002 covers
// this file); keys appear in sorted order at every nesting level.

#ifndef LOB_CORE_METRICS_SNAPSHOT_H_
#define LOB_CORE_METRICS_SNAPSHOT_H_

#include <cstdint>
#include <map>
#include <string>

#include "iomodel/io_stats.h"
#include "obs/obs_registry.h"

namespace lob {

class StorageSystem;

struct MetricsSnapshot {
  /// Percentile row for one op label, derived from its ledger record.
  struct OpStats {
    uint64_t count = 0;
    IoStats io;          ///< exclusive attributed I/O
    double mean_ms = 0;  ///< io.ms / count (exact)
    double p50_ms = 0, p90_ms = 0, p99_ms = 0;
    uint64_t max_ms = 0;
  };

  /// Buddy-allocator state of one database area.
  struct AreaStats {
    uint64_t allocated_pages = 0;
    uint64_t free_pages = 0;
    uint32_t num_spaces = 0;
    uint32_t largest_free_extent = 0;
    /// Free-chunk size histogram: chunk size in pages -> count.
    std::map<uint32_t, uint64_t> free_chunks;
  };

  struct PoolStats {
    uint64_t hits = 0, misses = 0, evictions = 0;
    /// hits / (hits + misses); 0 when no fixes happened.
    double HitRate() const;
  };

  struct FaultStats {
    uint32_t armed = 0;
    uint64_t fired = 0;
    uint64_t foreground_calls = 0;
  };

  std::map<std::string, OpStats> ops;
  /// Filled by Collect; an aggregate sums its cells' pools into it.
  PoolStats pool;
  FaultStats faults;
  std::map<std::string, AreaStats> areas;  ///< "leaf", "meta"
  /// True when faults/areas were populated (Collect); a registry-only
  /// snapshot (FromRegistry) leaves them out of the JSON.
  bool has_substrate = false;

  /// Full snapshot of a live system: ops, pool, allocator and fault
  /// state.
  static MetricsSnapshot Collect(StorageSystem* sys);

  /// Ops only, from a bare registry (used for aggregate views merged
  /// across cells, where no single substrate exists).
  static MetricsSnapshot FromRegistry(const ObsRegistry& obs);

  /// Sorted-key JSON object. `indent` is the base indentation prefixed
  /// to every line but the first, so the block can be embedded at any
  /// nesting depth; the text never ends with a newline.
  std::string ToJson(const std::string& indent = "") const;
};

}  // namespace lob

#endif  // LOB_CORE_METRICS_SNAPSHOT_H_
