// Experiment driver implementing the paper's measurement methodology (4).
//
// * Object build: a 10 M-byte object created by successive fixed-size
//   appends (4.2).
// * Sequential scan: the object read from beginning to end in fixed-size
//   chunks (4.3).
// * Random update mix: 40% reads, 30% inserts, 30% deletes; operation
//   sizes uniform within +/-50% of the mean; positions uniform over the
//   object; each delete is sized like the immediately preceding insert so
//   the object size stays stable; costs are averaged per window of
//   operations and storage utilization is sampled at each mark (4.4).

#ifndef LOB_WORKLOAD_WORKLOAD_H_
#define LOB_WORKLOAD_WORKLOAD_H_

#include <cctype>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <system_error>
#include <type_traits>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/large_object.h"
#include "core/storage_system.h"

namespace lob {

class TimelineSampler;  // trace/timeline.h

/// Cost of one phase of an experiment.
struct PhaseResult {
  IoStats io;
  double Ms() const { return io.ms; }
  double Seconds() const { return io.ms / 1000.0; }
};

/// Fills `out` with `n` deterministic pseudo-random bytes.
void FillBytes(Rng* rng, uint64_t n, std::string* out);

/// Tag selecting the fill path that skips value-initialization: growth
/// beyond out->size() is appended from filled blocks instead of being
/// zeroed by resize() and then overwritten. Byte-for-byte the same output
/// (and the same Rng consumption) as the plain overload; capacity is
/// retained across calls, so a hoisted per-phase buffer settles at the
/// phase's maximum chunk size and never reallocates or re-zeroes.
struct NoZeroInit {};

/// Same result as FillBytes(rng, n, out) without zero-filling the tail.
void FillBytes(Rng* rng, uint64_t n, std::string* out, NoZeroInit);

/// Builds an object of `total_bytes` by appending `append_bytes` chunks.
[[nodiscard]]
StatusOr<PhaseResult> BuildObject(StorageSystem* sys, LargeObjectManager* mgr,
                                  ObjectId id, uint64_t total_bytes,
                                  uint64_t append_bytes, uint64_t seed = 1);

/// Scans the whole object from the beginning in `scan_bytes` chunks.
[[nodiscard]] StatusOr<PhaseResult> SequentialScan(StorageSystem* sys,
                                     LargeObjectManager* mgr, ObjectId id,
                                     uint64_t scan_bytes);

/// Parameters of the random read/insert/delete mix (paper 4.4).
struct MixSpec {
  double read_frac = 0.4;
  double insert_frac = 0.3;  // remainder = deletes
  uint64_t mean_op_bytes = 10000;
  uint32_t total_ops = 20000;
  uint32_t window_ops = 2000;  ///< one mark per window
  uint64_t seed = 1;
  /// Optional storage-state sampler (trace/timeline.h): when set,
  /// RunUpdateMix snapshots utilization, fragmentation and segment
  /// distributions at op 0 (post-build baseline), every
  /// timeline->every_n() ops and at the final op — inside an
  /// UnmeteredSection, so sampling never perturbs the measured costs.
  /// The final sample's utilization equals the last MixPoint's.
  TimelineSampler* timeline = nullptr;
};

/// One mark of the update-mix experiment: averages over the window that
/// ended here plus a utilization sample.
struct MixPoint {
  uint32_t ops_done = 0;
  double avg_read_ms = 0;
  double avg_insert_ms = 0;
  double avg_delete_ms = 0;
  uint32_t reads = 0;
  uint32_t inserts = 0;
  uint32_t deletes = 0;
  double utilization = 0;  ///< object bytes / allocated bytes, with index
};

/// Runs the update mix over an already-built object.
[[nodiscard]] StatusOr<std::vector<MixPoint>> RunUpdateMix(StorageSystem* sys,
                                             LargeObjectManager* mgr,
                                             ObjectId id,
                                             const MixSpec& spec);

/// Storage utilization right now: object size over all allocated bytes of
/// both database areas (valid while the system hosts this single object).
[[nodiscard]] StatusOr<double> CurrentUtilization(StorageSystem* sys,
                                    LargeObjectManager* mgr, ObjectId id);

/// Takes one TimelineSample of the system's storage state after
/// `ops_done` mix operations and appends it to `sampler`. The walk
/// (object size, VisitSegments, buddy free-extent histogram) runs inside
/// an UnmeteredSection; the sample's modeled_ms is the clock value
/// *before* the walk, i.e. the workload's own cumulative cost.
[[nodiscard]]
Status CollectTimelineSample(StorageSystem* sys, LargeObjectManager* mgr,
                             ObjectId id, uint32_t ops_done,
                             TimelineSampler* sampler);

/// The one parser for numeric arguments: the whole of `text` must be a
/// plain decimal number (it starts with a digit; no sign, space or
/// suffix) that fits in T.
template <typename T>
StatusOr<T> ParseNumber(const std::string& text, const char* what) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0])) ||
      ec != std::errc() || stop != end) {
    return Status::InvalidArgument(std::string("bad ") + what + " '" + text +
                                   "'");
  }
  return value;
}

/// Tiny command line helper: returns the value of --name=value parsed as
/// T (see ParseNumber), or `def` when the flag is absent. A malformed
/// value, or one outside the inclusive range [lo, hi], prints
/// "bad --name 'value'" and exits with status 2.
template <typename T>
T FlagValue(int argc, char** argv, const std::string& name,
            std::type_identity_t<T> def,
            std::type_identity_t<T> lo = std::numeric_limits<T>::lowest(),
            std::type_identity_t<T> hi = std::numeric_limits<T>::max()) {
  const std::string flag = "--" + name;
  const std::string prefix = flag + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) != 0) continue;
    const std::string text = arg.substr(prefix.size());
    auto value = ParseNumber<T>(text, flag.c_str());
    if (!value.ok() || *value < lo || *value > hi) {
      std::fprintf(stderr, "bad %s '%s'\n", flag.c_str(), text.c_str());
      std::exit(2);
    }
    return *value;
  }
  return def;
}

bool FlagPresent(int argc, char** argv, const std::string& name);

/// String-valued flag: returns the text after --name= or `def`.
std::string FlagValueString(int argc, char** argv, const std::string& name,
                            const std::string& def);

}  // namespace lob

#endif  // LOB_WORKLOAD_WORKLOAD_H_
