// TimelineSampler: periodic storage-state snapshots on the modeled clock.
//
// Sears & van Ingen show that fragmentation and performance cliffs in
// large-object repositories are trajectories over a workload, not
// endpoints. The sampler turns the paper's Figure 7/8 endpoint
// utilization numbers into continuous per-engine timelines: every N
// operations of the update mix (and at the final op), RunUpdateMix
// snapshots utilization, the free-extent histogram from the buddy trees,
// the object's segment count/size distribution and the cumulative modeled
// ms, all gathered inside an UnmeteredSection so sampling never perturbs
// the measured costs.
//
// Sampling only happens when a sampler is attached (MixSpec::timeline),
// which only the --timeline bench flag does.
//
// The CSV exporter shares RFC-4180 escaping with ObsRegistry::ToCsv; the
// free-extent histogram serializes as "pages:count;pages:count;...".

#ifndef LOB_TRACE_TIMELINE_H_
#define LOB_TRACE_TIMELINE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace lob {

/// One snapshot of storage state after `ops_done` mix operations.
struct TimelineSample {
  uint32_t ops_done = 0;
  double modeled_ms = 0;        ///< cumulative modeled I/O ms so far
  uint64_t object_bytes = 0;    ///< logical object size
  uint64_t allocated_bytes = 0; ///< disk bytes held by both areas
  double utilization = 0;       ///< object_bytes / allocated_bytes
  uint64_t segments = 0;        ///< leaf segments of the object
  uint64_t seg_bytes_min = 0;
  double seg_bytes_mean = 0;
  uint64_t seg_bytes_max = 0;
  uint64_t free_pages = 0;            ///< free blocks across all spaces
  uint64_t largest_free_extent = 0;   ///< largest free aligned chunk, pages
  /// Maximal free aligned chunks by size: (chunk pages -> count).
  std::map<uint32_t, uint64_t> free_extents;
};

/// Collects samples for one configuration run and exports them as CSV.
/// Holds no lock: one sampler per bench job, owned like JobOutput and
/// exported by the harness after the fan-out joins.
class TimelineSampler {
 public:
  /// Samples every `every_n` operations (plus the final op).
  explicit TimelineSampler(uint32_t every_n) : every_n_(every_n) {}

  TimelineSampler(const TimelineSampler&) = delete;
  TimelineSampler& operator=(const TimelineSampler&) = delete;

  /// True when a sample is due after `ops_done` operations. The driver
  /// additionally samples at op 0 (post-build baseline) and the final op.
  bool WantsSample(uint32_t ops_done) const {
    return every_n_ > 0 && ops_done % every_n_ == 0;
  }

  void Add(const TimelineSample& sample) { samples_.push_back(sample); }

  const std::vector<TimelineSample>& samples() const { return samples_; }
  uint32_t every_n() const { return every_n_; }

  /// Column header shared by every timeline CSV file.
  static std::string CsvHeader();

  /// Appends one row per sample, tagged with `label` (RFC-4180 escaped).
  void AppendCsv(const std::string& label, std::string* out) const;

 private:
  const uint32_t every_n_;
  std::vector<TimelineSample> samples_;
};

}  // namespace lob

#endif  // LOB_TRACE_TIMELINE_H_
