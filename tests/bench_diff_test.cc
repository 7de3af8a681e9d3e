// Tests for bench-diff: JSON flattening, glob matching, drift
// classification, gate evaluation (including the rotted-gate rule), and
// the zero-drift self-diff contract the CI perf gate relies on.

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "common/json.h"
#include "obs/bench_diff.h"

namespace lob {
namespace {

JsonValue MustParse(const std::string& text) {
  auto v = JsonValue::Parse(text);
  EXPECT_TRUE(v.ok()) << v.status().ToString();
  return v.ok() ? *v : JsonValue();
}

TEST(FlattenJsonTest, FlattensNumbersBoolsAndArrays) {
  const JsonValue v = MustParse(
      R"({"a": 1, "b": {"c": 2.5, "d": true}, "e": [10, 20], "s": "skip"})");
  std::map<std::string, double> out;
  FlattenJsonNumbers(v, "", &out);
  ASSERT_EQ(out.size(), 5u);
  EXPECT_DOUBLE_EQ(out.at("a"), 1.0);
  EXPECT_DOUBLE_EQ(out.at("b.c"), 2.5);
  EXPECT_DOUBLE_EQ(out.at("b.d"), 1.0);
  EXPECT_DOUBLE_EQ(out.at("e.0"), 10.0);
  EXPECT_DOUBLE_EQ(out.at("e.1"), 20.0);
  EXPECT_EQ(out.count("s"), 0u);
}

TEST(GlobMatchTest, StarCrossesDots) {
  EXPECT_TRUE(GlobMatch("metrics.cells_per_sec", "metrics.cells_per_sec"));
  EXPECT_TRUE(GlobMatch("metrics_snapshot.ops.*.p99_ms",
                        "metrics_snapshot.ops.esm.append.p99_ms"));
  EXPECT_TRUE(GlobMatch("*", "anything.at.all"));
  EXPECT_TRUE(GlobMatch("a?c", "abc"));
  EXPECT_FALSE(GlobMatch("a?c", "ac"));
  EXPECT_FALSE(GlobMatch("metrics.*", "other.cells_per_sec"));
  EXPECT_TRUE(GlobMatch("*.p99_ms", "x.p99_ms"));
  EXPECT_FALSE(GlobMatch("*.p99_ms", "x.p50_ms"));
}

TEST(BenchDiffTest, SelfDiffIsZeroDriftAndExitsClean) {
  const JsonValue a = MustParse(
      R"({"metrics": {"cells_per_sec": 10.0}, "cells": [{"wall_ms": 3.0}]})");
  auto d = BenchDiff::Compare(a, a, nullptr);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_TRUE(d->ZeroDrift());
  EXPECT_FALSE(d->HasViolations());
  for (const auto& row : d->rows()) {
    EXPECT_DOUBLE_EQ(row.abs_delta, 0.0) << row.metric;
    EXPECT_EQ(row.cls, BenchDiff::Class::kNeutral) << row.metric;
  }
  EXPECT_NE(d->ToTable().find("zero drift"), std::string::npos);
}

TEST(BenchDiffTest, ClassifiesByDirectionHeuristic) {
  const JsonValue a = MustParse(
      R"({"cells_per_sec": 10.0, "read.p99_ms": 100.0, "pool.misses": 50})");
  const JsonValue b = MustParse(
      R"({"cells_per_sec": 5.0, "read.p99_ms": 50.0, "pool.misses": 100})");
  auto d = BenchDiff::Compare(a, b, nullptr);
  ASSERT_TRUE(d.ok());
  std::map<std::string, BenchDiff::Class> by_metric;
  for (const auto& row : d->rows()) by_metric[row.metric] = row.cls;
  // Throughput halved: regression. Latency halved: improvement.
  // Misses doubled: regression.
  EXPECT_EQ(by_metric.at("cells_per_sec"), BenchDiff::Class::kRegression);
  EXPECT_EQ(by_metric.at("read.p99_ms"), BenchDiff::Class::kImprovement);
  EXPECT_EQ(by_metric.at("pool.misses"), BenchDiff::Class::kRegression);
}

TEST(BenchDiffTest, NeutralBandSuppressesSmallDrift) {
  const JsonValue a = MustParse(R"({"cells_per_sec": 100.0})");
  const JsonValue b = MustParse(R"({"cells_per_sec": 99.5})");
  auto d = BenchDiff::Compare(a, b, nullptr, /*neutral_band=*/0.01);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->rows()[0].cls, BenchDiff::Class::kNeutral);
  auto tight = BenchDiff::Compare(a, b, nullptr, /*neutral_band=*/0.001);
  ASSERT_TRUE(tight.ok());
  EXPECT_EQ(tight->rows()[0].cls, BenchDiff::Class::kRegression);
}

TEST(BenchDiffTest, GateViolationOnRegressionPastThreshold) {
  const JsonValue gates = MustParse(
      R"({"gates": [{"name": "tput", "metric": "metrics.cells_per_sec",
                     "direction": "higher", "max_regression": 0.20}]})");
  const JsonValue a = MustParse(R"({"metrics": {"cells_per_sec": 100.0}})");
  const JsonValue ok_b = MustParse(R"({"metrics": {"cells_per_sec": 85.0}})");
  const JsonValue bad_b = MustParse(R"({"metrics": {"cells_per_sec": 70.0}})");

  auto ok = BenchDiff::Compare(a, ok_b, &gates);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->gates_checked(), 1);
  EXPECT_FALSE(ok->HasViolations());

  auto bad = BenchDiff::Compare(a, bad_b, &gates);
  ASSERT_TRUE(bad.ok());
  EXPECT_TRUE(bad->HasViolations());
  ASSERT_FALSE(bad->violations().empty());
  EXPECT_NE(bad->violations()[0].find("tput"), std::string::npos);
}

TEST(BenchDiffTest, LowerBetterGateAndGlobFanout) {
  const JsonValue gates = MustParse(
      R"({"gates": [{"name": "p99", "metric": "ops.*.p99_ms",
                     "direction": "lower", "max_regression": 0.05}]})");
  const JsonValue a = MustParse(
      R"({"ops": {"esm.read": {"p99_ms": 100.0}, "eos.read": {"p99_ms": 200.0}}})");
  const JsonValue b = MustParse(
      R"({"ops": {"esm.read": {"p99_ms": 103.0}, "eos.read": {"p99_ms": 230.0}}})");
  auto d = BenchDiff::Compare(a, b, &gates);
  ASSERT_TRUE(d.ok());
  // Both leaves are gated; only the +15% one violates the 5% ceiling.
  EXPECT_TRUE(d->HasViolations());
  ASSERT_EQ(d->violations().size(), 1u);
  EXPECT_NE(d->violations()[0].find("eos.read"), std::string::npos);
}

TEST(BenchDiffTest, RottedGateIsAViolation) {
  const JsonValue gates = MustParse(
      R"({"gates": [{"name": "gone", "metric": "metrics.no_such_metric",
                     "direction": "higher", "max_regression": 0.2}]})");
  const JsonValue a = MustParse(R"({"metrics": {"cells_per_sec": 1.0}})");
  auto d = BenchDiff::Compare(a, a, &gates);
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(d->HasViolations());
  ASSERT_FALSE(d->violations().empty());
  EXPECT_NE(d->violations()[0].find("gone"), std::string::npos);
}

TEST(BenchDiffTest, OneSidedMetricsAreReported) {
  const JsonValue a = MustParse(R"({"old_only": 1.0, "both": 2.0})");
  const JsonValue b = MustParse(R"({"new_only": 3.0, "both": 2.0})");
  auto d = BenchDiff::Compare(a, b, nullptr);
  ASSERT_TRUE(d.ok());
  std::map<std::string, const BenchDiff::Row*> by_metric;
  for (const auto& row : d->rows()) by_metric[row.metric] = &row;
  ASSERT_EQ(by_metric.size(), 3u);
  EXPECT_TRUE(by_metric.at("old_only")->in_a);
  EXPECT_FALSE(by_metric.at("old_only")->in_b);
  EXPECT_FALSE(by_metric.at("new_only")->in_a);
  EXPECT_TRUE(by_metric.at("new_only")->in_b);
  // A gated one-sided metric is a violation.
  const JsonValue gates = MustParse(
      R"({"gates": [{"name": "g", "metric": "old_only",
                     "direction": "higher", "max_regression": 0.1}]})");
  auto gated = BenchDiff::Compare(a, b, &gates);
  ASSERT_TRUE(gated.ok());
  EXPECT_TRUE(gated->HasViolations());
}

TEST(BenchDiffTest, BadGateFileIsAnError) {
  const JsonValue a = MustParse(R"({"m": 1.0})");
  const JsonValue no_metric =
      MustParse(R"({"gates": [{"name": "g", "direction": "higher"}]})");
  EXPECT_FALSE(BenchDiff::Compare(a, a, &no_metric).ok());
  const JsonValue bad_dir = MustParse(
      R"({"gates": [{"name": "g", "metric": "m", "direction": "sideways"}]})");
  EXPECT_FALSE(BenchDiff::Compare(a, a, &bad_dir).ok());
  const JsonValue neg = MustParse(
      R"({"gates": [{"name": "g", "metric": "m", "direction": "higher",
                     "max_regression": -0.5}]})");
  EXPECT_FALSE(BenchDiff::Compare(a, a, &neg).ok());
}

TEST(BenchDiffTest, OutputFormatsAreWellFormed) {
  const JsonValue a = MustParse(R"({"x.ms": 10.0})");
  const JsonValue b = MustParse(R"({"x.ms": 20.0})");
  auto d = BenchDiff::Compare(a, b, nullptr);
  ASSERT_TRUE(d.ok());
  const std::string csv = d->ToCsv();
  EXPECT_EQ(csv.find("metric,in_baseline,in_new,baseline,new,abs_delta,"
                     "rel_delta,class,gate,violation"),
            0u)
      << csv;
  EXPECT_NE(csv.find("x.ms"), std::string::npos);
  // The JSON report must parse with our own parser.
  auto round = JsonValue::Parse(d->ToJson());
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  const JsonValue* rows = round->Find("rows");
  ASSERT_NE(rows, nullptr);
  ASSERT_TRUE(rows->is_array());
  ASSERT_EQ(rows->as_array().size(), 1u);
  EXPECT_EQ(rows->as_array()[0].StringOr("class", ""), "regression");
  const JsonValue* zd = round->Find("zero_drift");
  ASSERT_NE(zd, nullptr);
  EXPECT_FALSE(zd->as_bool());
}

}  // namespace
}  // namespace lob
