// BenchProfile: wall-clock self-profiling of a bench run.
//
// Every converted bench records, for each grid cell it executed, the
// measured wall milliseconds next to the cost-model milliseconds the cell
// simulated, plus the worker count used for the fan-out. The profile
// exports as BENCH_<name>.json (via --bench-json=PATH); scripts/
// bench_wall.sh assembles the per-bench files into BENCH_suite.json, the
// repo's perf trajectory record.

#ifndef LOB_EXEC_BENCH_PROFILE_H_
#define LOB_EXEC_BENCH_PROFILE_H_

#include <string>
#include <utility>
#include <vector>

namespace lob {

/// Collects per-cell wall/modeled timings for one bench run and exports
/// them as JSON. Single-threaded: the harness records cells on the main
/// thread after the fan-out completes, in submission order.
class BenchProfile {
 public:
  /// BENCH_*.json schema version. v2 added "schema_version" itself plus
  /// the optional embedded metrics-snapshot blocks (per cell and
  /// profile-level); v1 files simply lack those keys, so v1 consumers
  /// keep working. scripts/check_perf.py gates the profile-level block's
  /// per-op p99_ms, so it fails a v1 profile.
  static constexpr int kSchemaVersion = 2;

  struct Cell {
    std::string config;  ///< e.g. "mean_op=10000/ESM leaf=4"
    double wall_ms = 0;
    double modeled_ms = 0;
    /// Raw MetricsSnapshot::ToJson output (optional; "" = absent).
    /// Purely modeled state: byte-identical for any --jobs.
    std::string snapshot_json;
  };

  /// `hardware_concurrency` and the optional host note (from the
  /// LOB_BENCH_HOST_NOTE environment variable, see MakeHostNote) are
  /// embedded in the JSON so committed BENCH_*.json artifacts are
  /// self-explaining: a 0.94x single-core suite result carries the
  /// machine context that produced it.
  BenchProfile(std::string bench, unsigned jobs, unsigned hardware_concurrency,
               std::string host_note)
      : bench_(std::move(bench)),
        jobs_(jobs),
        hardware_concurrency_(hardware_concurrency),
        host_note_(std::move(host_note)) {}

  /// Host note for the current process: the LOB_BENCH_HOST_NOTE
  /// environment variable, or "" when unset.
  static std::string MakeHostNote();

  void AddCell(std::string config, double wall_ms, double modeled_ms) {
    cells_.push_back(Cell{std::move(config), wall_ms, modeled_ms, ""});
  }

  /// Attaches a metrics-snapshot JSON block to cell `index` (as added,
  /// in submission order). The string must be a complete JSON value.
  void SetCellSnapshot(size_t index, std::string snapshot_json) {
    cells_[index].snapshot_json = std::move(snapshot_json);
  }

  /// Profile-level aggregate snapshot (e.g. all cells' registries merged).
  void set_snapshot_json(std::string snapshot_json) {
    snapshot_json_ = std::move(snapshot_json);
  }

  /// Named scalar metric (e.g. "cells_per_sec") emitted under "metrics".
  /// Profiles with no metrics keep their prior JSON shape byte-for-byte.
  void AddMetric(std::string name, double value) {
    metrics_.emplace_back(std::move(name), value);
  }

  /// Total wall clock of the whole bench process (flag parsing, fan-out,
  /// table printing), as opposed to the sum of cell walls.
  void set_suite_wall_ms(double ms) { suite_wall_ms_ = ms; }

  const std::vector<Cell>& cells() const { return cells_; }
  unsigned jobs() const { return jobs_; }
  unsigned hardware_concurrency() const { return hardware_concurrency_; }
  const std::string& host_note() const { return host_note_; }

  double CellWallMsTotal() const;
  double CellModeledMsTotal() const;

  /// {"bench":..., "jobs":..., "hardware_concurrency":..., "host_note":...,
  ///  "suite_wall_ms":..., totals, "cells":[...]}
  std::string ToJson() const;

  /// Writes ToJson() to `path`; returns false (with a diagnostic on
  /// stderr) when the file cannot be written.
  bool WriteJson(const std::string& path) const;

 private:
  std::string bench_;
  unsigned jobs_;
  unsigned hardware_concurrency_ = 0;
  std::string host_note_;
  double suite_wall_ms_ = 0;
  std::vector<Cell> cells_;
  std::vector<std::pair<std::string, double>> metrics_;
  std::string snapshot_json_;
};

}  // namespace lob

#endif  // LOB_EXEC_BENCH_PROFILE_H_
