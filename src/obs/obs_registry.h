// ObsRegistry: the per-operation I/O ledger.
//
// The paper's methodology is per-operation modeled I/O cost (one 33 ms seek
// per I/O call plus 4 ms per 4K page, 4.1). The registry turns that from a
// hand-subtracted global counter into an attributed ledger: an OpScope (see
// op_scope.h) tags the current logical operation ("esm.append",
// "eos.insert", ...) on the SimDisk, and every metered SimDisk call is
// charged to exactly one operation label. I/O issued outside any scope is
// charged to kUnattributed, so the conservation invariant
//
//   sum over labels of attributed IoStats == SimDisk global IoStats
//
// holds at every point outside an UnmeteredSection (tests/obs_test.cc
// enforces it across a mixed workload for all three engines).
//
// Each label owns one OpRecord: its finished-op count, the I/O charged to
// it, and a log2 histogram of each finished op's modeled ms. Nothing is
// recorded inside an UnmeteredSection. MetricsSnapshot is the JSON view of
// the records (with percentiles); ToCsv serves `lobtool stats csv`.

#ifndef LOB_OBS_OBS_REGISTRY_H_
#define LOB_OBS_OBS_REGISTRY_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "iomodel/io_stats.h"

namespace lob {

/// Power-of-two bucketed histogram of non-negative integer samples.
/// Bucket 0 holds value 0; bucket i >= 1 holds values in [2^(i-1), 2^i).
class Histogram {
 public:
  static constexpr int kBuckets = 34;  // 0 plus exponents up to 2^32 and over

  void Add(uint64_t value);

  uint64_t count() const { return count_; }
  uint64_t max() const { return max_; }

  /// Interpolated quantile, q in [0, 1] (clamped). Uses the continuous
  /// rank q*(count-1); interpolates linearly inside the containing log2
  /// bucket and clamps the result to [min, max], so q=0, q=1 and
  /// single-sample histograms are exact. Buckets 0 and 1 each hold one
  /// value, so a rank that lands in either returns that value. Returns 0
  /// on an empty histogram.
  /// Deterministic: pure integer/IEEE arithmetic over the bucket table.
  double Quantile(double q) const;

  /// Adds every sample of `other` into this histogram.
  void MergeFrom(const Histogram& other);

  /// Bucket a value falls into.
  static int BucketIndex(uint64_t value);

  /// Smallest value belonging to bucket `i`.
  static uint64_t BucketLowerBound(int i);

 private:
  uint64_t buckets_[kBuckets] = {};
  uint64_t count_ = 0;
  uint64_t min_ = UINT64_MAX;
  uint64_t max_ = 0;
};

/// The per-operation I/O ledger: one OpRecord per operation label.
///
/// A registry holds no lock. It belongs to the thread that owns its
/// StorageSystem (or bench job), like the rest of that system, so the
/// recording entry points, the reference-returning accessors and the
/// exporters are all plain member accesses. Registries of different jobs
/// meet only in MergeFrom, after the jobs have finished.
class ObsRegistry {
 public:
  /// Label charged for I/O issued outside any OpScope.
  static constexpr const char* kUnattributed = "(unattributed)";

  /// Everything recorded for one operation label.
  struct OpRecord {
    uint64_t count = 0;  ///< finished operations (OpScope destructions)
    IoStats io;          ///< I/O charged to the label by SimDisk
    Histogram ms;        ///< modeled ms of each finished op, nested included
  };

  /// Ledger record for `label` (created on first use). SimDisk caches the
  /// returned pointer for the duration of an operation and adds each
  /// metered call to its `io`, so attribution is one map lookup per op
  /// instead of one per call; the pointer is map-node-stable until the
  /// ledger is reset, which bumps the generation below.
  OpRecord* AttributionRecord(std::string_view label);

  /// Incremented whenever the ledger is cleared; invalidates cached
  /// AttributionRecord pointers.
  uint64_t attribution_generation() const { return attr_gen_; }

  /// Records the end of one operation: bumps the label's count and adds
  /// the op's modeled ms to its histogram. `op_delta` is the global-IoStats
  /// delta across the operation (nested scopes included). Called by
  /// OpScope.
  ///
  /// The trailing `bool` is unused. It stays only to keep the mangled
  /// symbol `_ZN3lob11ObsRegistry11RecordOpEndEPKcRKNS_7IoStatsEb`, which
  /// perfbench's traced build wraps by name (perfbench/lobbench/wrap.cc);
  /// dropping it would rename the symbol and break that build.
  void RecordOpEnd(const char* label, const IoStats& op_delta, bool = false);

  const std::map<std::string, OpRecord, std::less<>>& ops() const {
    return ops_;
  }

  /// Sum of attributed I/O over every label (the conservation invariant
  /// compares this against the SimDisk global stats).
  IoStats AttributedTotal() const;

  /// True when the attributed total matches `global` exactly (counters) and
  /// within rounding (modeled ms).
  bool ConservationHolds(const IoStats& global) const;

  /// Drops every record (SimDisk::ResetStats calls this so the
  /// conservation invariant survives stats resets).
  void ResetAttribution() {
    ops_.clear();
    ++attr_gen_;
  }

  /// Adds another registry's records into this one (counts and I/O
  /// accumulate; histograms MergeFrom). Used to aggregate per-cell
  /// registries into one suite-level view once the cells have finished.
  void MergeFrom(const ObsRegistry& other);

  /// Exports the per-op ledger as CSV
  /// (op,count,read_calls,write_calls,pages_read,pages_written,seeks,pages,ms).
  std::string ToCsv() const;

 private:
  std::map<std::string, OpRecord, std::less<>> ops_;
  uint64_t attr_gen_ = 0;
};

}  // namespace lob

#endif  // LOB_OBS_OBS_REGISTRY_H_
