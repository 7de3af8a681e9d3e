#include "obs/bench_diff.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/csv.h"
#include "common/json.h"

namespace lob {

namespace {

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Direction heuristic from the metric name (used when no gate covers
/// the metric). Wall-clock throughput and hit counters are higher-
/// better; latencies, misses and failure counters are lower-better.
BenchDiff::Direction GuessDirection(const std::string& metric) {
  if (metric.find("per_sec") != std::string::npos ||
      EndsWith(metric, "hits") || EndsWith(metric, "hit_rate") ||
      EndsWith(metric, "utilization")) {
    return BenchDiff::Direction::kHigherBetter;
  }
  if (EndsWith(metric, "_ms") || EndsWith(metric, ".ms") ||
      EndsWith(metric, "misses") || EndsWith(metric, "evictions") ||
      EndsWith(metric, "fired")) {
    return BenchDiff::Direction::kLowerBetter;
  }
  return BenchDiff::Direction::kUnknown;
}

const char* DirectionName(BenchDiff::Direction d) {
  switch (d) {
    case BenchDiff::Direction::kHigherBetter: return "higher";
    case BenchDiff::Direction::kLowerBetter: return "lower";
    case BenchDiff::Direction::kUnknown: return "unknown";
  }
  return "unknown";
}

struct Gate {
  std::string name;
  std::string pattern;
  BenchDiff::Direction direction = BenchDiff::Direction::kUnknown;
  double max_regression = 0.0;
  int matched = 0;
};

}  // namespace

void FlattenJsonNumbers(const JsonValue& v, const std::string& prefix,
                        std::map<std::string, double>* out) {
  switch (v.kind()) {
    case JsonValue::Kind::kNumber:
      (*out)[prefix] = v.as_number();
      break;
    case JsonValue::Kind::kBool:
      (*out)[prefix] = v.as_bool() ? 1.0 : 0.0;
      break;
    case JsonValue::Kind::kArray: {
      size_t i = 0;
      for (const auto& elem : v.as_array()) {
        FlattenJsonNumbers(elem, prefix + "." + std::to_string(i), out);
        ++i;
      }
      break;
    }
    case JsonValue::Kind::kObject:
      for (const auto& [key, member] : v.as_object()) {
        FlattenJsonNumbers(member, prefix.empty() ? key : prefix + "." + key,
                           out);
      }
      break;
    case JsonValue::Kind::kNull:
    case JsonValue::Kind::kString:
      break;
  }
}

bool GlobMatch(const std::string& pattern, const std::string& text) {
  // Iterative glob with single-star backtracking.
  size_t p = 0, t = 0, star = std::string::npos, mark = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '?' || pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      mark = t;
    } else if (star != std::string::npos) {
      p = star + 1;
      t = ++mark;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

StatusOr<BenchDiff> BenchDiff::Compare(const JsonValue& a, const JsonValue& b,
                                       const JsonValue* gates,
                                       double neutral_band) {
  std::map<std::string, double> flat_a;
  std::map<std::string, double> flat_b;
  FlattenJsonNumbers(a, "", &flat_a);
  FlattenJsonNumbers(b, "", &flat_b);

  std::vector<Gate> parsed_gates;
  if (gates != nullptr) {
    const JsonValue* list = gates->Find("gates");
    if (list == nullptr || !list->is_array()) {
      return Status::InvalidArgument(
          "gate file has no top-level \"gates\" array");
    }
    for (const auto& g : list->as_array()) {
      Gate gate;
      gate.pattern = g.StringOr("metric", "");
      if (gate.pattern.empty()) {
        return Status::InvalidArgument("gate entry missing \"metric\"");
      }
      gate.name = g.StringOr("name", gate.pattern);
      const std::string dir = g.StringOr("direction", "");
      if (dir == "higher") {
        gate.direction = Direction::kHigherBetter;
      } else if (dir == "lower") {
        gate.direction = Direction::kLowerBetter;
      } else {
        return Status::InvalidArgument("gate " + gate.name +
                                       ": direction must be "
                                       "\"higher\" or \"lower\"");
      }
      gate.max_regression = g.NumberOr("max_regression", 0.0);
      if (gate.max_regression < 0) {
        return Status::InvalidArgument("gate " + gate.name +
                                       ": negative max_regression");
      }
      parsed_gates.push_back(gate);
    }
  }

  // Union of metric paths, sorted (both inputs are sorted maps).
  std::map<std::string, int> all;
  for (const auto& [k, v] : flat_a) all[k] |= 1;
  for (const auto& [k, v] : flat_b) all[k] |= 2;

  BenchDiff d;
  for (const auto& [metric, mask] : all) {
    Row row;
    row.metric = metric;
    row.in_a = (mask & 1) != 0;
    row.in_b = (mask & 2) != 0;
    row.a = row.in_a ? flat_a[metric] : 0.0;
    row.b = row.in_b ? flat_b[metric] : 0.0;
    row.abs_delta = row.b - row.a;
    if (row.a != 0.0) {
      row.rel_delta = row.abs_delta / std::fabs(row.a);
    } else {
      row.rel_delta = row.abs_delta == 0.0
                          ? 0.0
                          : (row.abs_delta > 0 ? 999.999 : -999.999);
    }
    row.direction = GuessDirection(metric);

    for (auto& gate : parsed_gates) {
      if (!GlobMatch(gate.pattern, metric)) continue;
      ++gate.matched;
      ++d.gates_checked_;
      row.gated = true;
      row.gate_name = gate.name;
      row.direction = gate.direction;
      if (!row.in_a || !row.in_b) {
        row.violation = true;
        d.violations_.push_back(
            "gate " + gate.name + ": metric " + metric +
            (row.in_a ? " missing from new run" : " missing from baseline"));
        continue;
      }
      const bool bad =
          gate.direction == Direction::kHigherBetter
              ? row.b < row.a * (1.0 - gate.max_regression)
              : row.b > row.a * (1.0 + gate.max_regression);
      if (bad) {
        char msg[256];
        std::snprintf(msg, sizeof(msg),
                      "gate %s: %s %.6g -> %.6g (%+.2f%%, allowed %.0f%%)",
                      gate.name.c_str(), metric.c_str(), row.a, row.b,
                      row.rel_delta * 100.0, gate.max_regression * 100.0);
        row.violation = true;
        d.violations_.push_back(msg);
      }
    }

    // Classification: within the neutral band, or direction unknown,
    // stays neutral; otherwise the sign against direction decides.
    if (row.direction != Direction::kUnknown && row.in_a && row.in_b &&
        std::fabs(row.rel_delta) > neutral_band) {
      const bool worse = row.direction == Direction::kHigherBetter
                             ? row.abs_delta < 0
                             : row.abs_delta > 0;
      row.cls = worse ? Class::kRegression : Class::kImprovement;
    }
    d.rows_.push_back(std::move(row));
  }

  for (const auto& gate : parsed_gates) {
    if (gate.matched == 0) {
      d.violations_.push_back("gate " + gate.name + ": pattern \"" +
                              gate.pattern + "\" matched no metric in "
                              "either run (rotted gate)");
    }
  }
  return d;
}

bool BenchDiff::ZeroDrift() const {
  for (const auto& row : rows_) {
    if (row.abs_delta != 0.0 || !row.in_a || !row.in_b) return false;
  }
  return true;
}

const char* BenchDiff::ClassName(Class c) {
  switch (c) {
    case Class::kNeutral: return "neutral";
    case Class::kImprovement: return "improvement";
    case Class::kRegression: return "regression";
  }
  return "neutral";
}

std::string BenchDiff::ToTable() const {
  std::string out;
  size_t width = 6;
  for (const auto& row : rows_) width = std::max(width, row.metric.size());
  AppendF(&out, "%-*s %14s %14s %12s %10s  %-11s %s\n",
          static_cast<int>(width), "metric", "baseline", "new", "abs", "rel",
          "class", "gate");
  int regressions = 0, improvements = 0;
  for (const auto& row : rows_) {
    if (row.cls == Class::kRegression) ++regressions;
    if (row.cls == Class::kImprovement) ++improvements;
    char a_buf[32], b_buf[32];
    if (row.in_a) {
      std::snprintf(a_buf, sizeof(a_buf), "%.6g", row.a);
    } else {
      std::snprintf(a_buf, sizeof(a_buf), "-");
    }
    if (row.in_b) {
      std::snprintf(b_buf, sizeof(b_buf), "%.6g", row.b);
    } else {
      std::snprintf(b_buf, sizeof(b_buf), "-");
    }
    AppendF(&out, "%-*s %14s %14s %12.6g %9.2f%%  %-11s %s%s\n",
            static_cast<int>(width), row.metric.c_str(), a_buf, b_buf,
            row.abs_delta, row.rel_delta * 100.0, ClassName(row.cls),
            row.gate_name.c_str(), row.violation ? " VIOLATION" : "");
  }
  AppendF(&out,
          "%zu metrics, %d regressions, %d improvements, %d gate checks, "
          "%zu violations",
          rows_.size(), regressions, improvements, gates_checked_,
          violations_.size());
  out += ZeroDrift() ? " (zero drift)\n" : "\n";
  for (const auto& v : violations_) out += "VIOLATION: " + v + "\n";
  return out;
}

std::string BenchDiff::ToCsv() const {
  std::string out =
      "metric,in_baseline,in_new,baseline,new,abs_delta,rel_delta,class,"
      "gate,violation\n";
  for (const auto& row : rows_) {
    AppendF(&out, "%s,%d,%d,%.9g,%.9g,%.9g,%.6f,%s,%s,%d\n",
            CsvEscape(row.metric).c_str(), row.in_a ? 1 : 0, row.in_b ? 1 : 0,
            row.a, row.b, row.abs_delta, row.rel_delta, ClassName(row.cls),
            CsvEscape(row.gate_name).c_str(), row.violation ? 1 : 0);
  }
  return out;
}

std::string BenchDiff::ToJson() const {
  std::string out = "{\n  \"rows\": [";
  bool first = true;
  for (const auto& row : rows_) {
    AppendF(&out,
            "%s\n    {\"metric\": \"%s\", \"in_baseline\": %s, "
            "\"in_new\": %s, \"baseline\": %.9g, \"new\": %.9g, "
            "\"abs_delta\": %.9g, \"rel_delta\": %.6f, \"class\": \"%s\", "
            "\"direction\": \"%s\", \"gate\": \"%s\", \"violation\": %s}",
            first ? "" : ",", JsonEscape(row.metric).c_str(),
            row.in_a ? "true" : "false", row.in_b ? "true" : "false", row.a,
            row.b, row.abs_delta, row.rel_delta, ClassName(row.cls),
            DirectionName(row.direction), JsonEscape(row.gate_name).c_str(),
            row.violation ? "true" : "false");
    first = false;
  }
  AppendF(&out,
          "\n  ],\n  \"gates_checked\": %d,\n  \"zero_drift\": %s,\n"
          "  \"violations\": [",
          gates_checked_, ZeroDrift() ? "true" : "false");
  first = true;
  for (const auto& v : violations_) {
    AppendF(&out, "%s\n    \"%s\"", first ? "" : ",", JsonEscape(v).c_str());
    first = false;
  }
  out += "\n  ]\n}\n";
  return out;
}

}  // namespace lob
