// Fault-injection campaign engine.
//
// For a workload trace and each fault point k in 0..N-1 (N = number of
// attributed foreground I/O calls of the fault-free baseline), replay the
// trace on a fresh system with a one-shot fault armed to fire on the
// (k+1)-th I/O call, then run fsck (src/check) over the wreckage and
// classify the cell:
//
//   clean-pass  the operation absorbed the fault (e.g. a directory write
//               deferred by an infallible Free) and the trace completed
//   clean-fail  an error surfaced and fsck found nothing wrong
//   leak        structures consistent but allocated extents are orphaned
//   corrupt     an engine invariant or cross-reference check is broken
//
// Every cell owns a private StorageSystem, so cells fan out through
// ParallelRunner with byte-identical results for any worker count. The
// resulting (engine, op, k) matrix is the repo's regression instrument:
// the ctest gate holds every future change to "zero corrupt and zero leak
// cells on the standard trace".

#ifndef LOB_EXEC_CAMPAIGN_H_
#define LOB_EXEC_CAMPAIGN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/status.h"
#include "workload/trace.h"

namespace lob {

struct CampaignOptions {
  /// Worker threads for the cell fan-out, the calling thread included
  /// (0 and 1 both run every cell on the calling thread).
  uint32_t jobs = 1;

  /// Sample every `stride`-th fault point (1 = exhaustive). The matrix is
  /// identical to the exhaustive run restricted to the sampled rows.
  uint32_t stride = 1;

  /// When set, workers report "campaign: <done>/<total> cells" on stderr
  /// as cells finish, counting through one shared std::atomic (lines may
  /// come out of order; each count is printed once). Off by default:
  /// completion order is wall-clock-dependent, so progress stays off the
  /// deterministic stdout formats and off by default for byte-compare
  /// runs.
  bool progress = false;

  /// Structural parameters of the three engines under test.
  uint32_t esm_leaf_pages = 4;
  uint32_t eos_threshold_pages = 4;

  /// Per-cell storage configuration.
  StorageConfig config;
};

enum class CellOutcome : uint8_t {
  kCleanPass,
  kCleanFail,
  kLeak,
  kCorrupt,
};

const char* CellOutcomeName(CellOutcome outcome);

/// One (engine, fail-at-k) experiment.
struct CampaignCell {
  Engine engine;
  uint64_t fail_after = 0;   ///< k: I/O calls that succeed before the fault
  std::string failed_op;     ///< "create", "op<i>", or "-" when none failed
  std::string op_kind;       ///< trace op kind of the failing op, or "-"
  CellOutcome outcome = CellOutcome::kCleanPass;
  std::string detail;        ///< first fsck issue / error text, or "-"
};

struct CampaignResult {
  std::vector<CampaignCell> cells;  ///< sorted by (engine, fail_after)

  /// Fault-free baseline I/O call count per engine, in run order
  /// (esm, starburst, eos).
  std::vector<std::pair<Engine, uint64_t>> baselines;

  uint64_t CountOutcome(CellOutcome outcome) const;
  bool HasLeaks() const { return CountOutcome(CellOutcome::kLeak) > 0; }
  bool HasCorruption() const {
    return CountOutcome(CellOutcome::kCorrupt) > 0;
  }

  /// Deterministic CSV: header + one row per cell, sorted. Commas inside
  /// details are replaced so rows stay machine-splittable.
  std::string ToCsv() const;

  /// Deterministic JSON with baselines, outcome totals and cells.
  std::string ToJson() const;
};

/// Runs the campaign for all three engines over `trace`.
[[nodiscard]]
StatusOr<CampaignResult> RunCampaign(const Trace& trace,
                                     const CampaignOptions& options);

/// The small built-in trace the smoke test and `lob_campaign --demo` use:
/// a doubling build phase plus an insert/read/delete/replace update mix
/// touching every structural path (overflow appends, splits, merges).
Trace DemoCampaignTrace();

}  // namespace lob

#endif  // LOB_EXEC_CAMPAIGN_H_
