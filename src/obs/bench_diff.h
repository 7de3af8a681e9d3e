// Cross-run regression analysis over two BENCH_*.json profiles (or any
// pair of JSON documents with numeric leaves).
//
// Both documents are flattened to dotted metric paths
// ("metrics.cells_per_sec", "metrics_snapshot.ops.esm.append.p99_ms",
// array elements by index), every numeric leaf present in either side
// becomes one row with absolute and relative delta, and each row is
// classified regression / improvement / neutral from the metric's
// direction (gated direction wins; otherwise a name heuristic: *_ms /
// misses / evictions / fired are lower-better, *per_sec / hits /
// hit_rate / utilization are higher-better). An optional gate file
//
//   {"gates": [{"name": "cell-throughput",
//               "metric": "metrics.cells_per_sec",
//               "direction": "higher",        // or "lower"
//               "max_regression": 0.20}]}
//
// turns the report into a CI gate: a gated metric moving against its
// direction by more than max_regression is a violation, and a gate
// pattern ('*' matches any characters, dots included) matching no
// metric at all is a violation too — a gate that silently stops
// matching is a rotted gate, not a passing one.
//
// Wall-clock metrics (*wall_ms*, *_per_sec, host fields) differ between
// runs on real hardware; modeled metrics are deterministic. Diffing a
// run against itself therefore reports zero drift on every row, which
// tests/lobtool_test.sh pins. All output iterates sorted containers
// (LOB002): byte-identical report for byte-identical inputs.

#ifndef LOB_OBS_BENCH_DIFF_H_
#define LOB_OBS_BENCH_DIFF_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/status.h"

namespace lob {

/// Flattens every numeric leaf of `v` into dotted paths under `prefix`.
/// Booleans count as 0/1 numerics; strings and nulls are skipped.
void FlattenJsonNumbers(const JsonValue& v, const std::string& prefix,
                        std::map<std::string, double>* out);

/// Glob match where '*' matches any run of characters (including '.')
/// and '?' any single character. No character classes.
bool GlobMatch(const std::string& pattern, const std::string& text);

/// The drift report.
class BenchDiff {
 public:
  enum class Direction { kHigherBetter, kLowerBetter, kUnknown };
  enum class Class { kNeutral, kImprovement, kRegression };

  struct Row {
    std::string metric;
    bool in_a = false, in_b = false;
    double a = 0, b = 0;
    double abs_delta = 0;  ///< b - a
    double rel_delta = 0;  ///< (b - a) / |a|; capped at +/-999.999 when a==0
    Direction direction = Direction::kUnknown;
    Class cls = Class::kNeutral;
    bool gated = false;
    bool violation = false;
    std::string gate_name;  ///< name of the matching gate, if any
  };

  /// Compares two parsed documents. `gates` may be null (report only).
  /// `neutral_band` is the fractional |rel delta| below which a known-
  /// direction metric still classifies as neutral (default 1%).
  static StatusOr<BenchDiff> Compare(const JsonValue& a, const JsonValue& b,
                                     const JsonValue* gates,
                                     double neutral_band = 0.01);

  const std::vector<Row>& rows() const { return rows_; }  ///< sorted by metric
  int gates_checked() const { return gates_checked_; }
  const std::vector<std::string>& violations() const { return violations_; }
  bool HasViolations() const { return !violations_.empty(); }
  /// True when every row has abs_delta == 0 (a run diffed against itself).
  bool ZeroDrift() const;

  /// Human-readable table plus a summary line.
  std::string ToTable() const;
  /// metric,in_a,in_b,a,b,abs_delta,rel_delta,class,gate,violation
  std::string ToCsv() const;
  /// Full machine-readable report.
  std::string ToJson() const;

  static const char* ClassName(Class c);

 private:
  std::vector<Row> rows_;
  int gates_checked_ = 0;
  std::vector<std::string> violations_;
};

}  // namespace lob

#endif  // LOB_OBS_BENCH_DIFF_H_
