// Tests for the unified per-cell MetricsSnapshot: op percentile rows,
// pool hit/miss/eviction rates, buddy free-extent stats, fault counters,
// and the sorted-key embeddable JSON contract (schema v2).

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/factory.h"
#include "core/metrics_snapshot.h"
#include "core/storage_system.h"
#include "disk_test_util.h"

namespace lob {
namespace {

TEST(MetricsSnapshotTest, CollectCapturesOpsPoolAndAreas) {
  StorageSystem sys;
  auto mgr = CreateEosManager(&sys, 4);
  auto id = mgr->Create();
  ASSERT_TRUE(id.ok());
  std::string data(50000, 'x');
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(mgr->Append(*id, data).ok());
  std::string buf;
  ASSERT_TRUE(mgr->Read(*id, 0, 20000, &buf).ok());

  const MetricsSnapshot snap = MetricsSnapshot::Collect(&sys);
  EXPECT_TRUE(snap.has_substrate);
  ASSERT_EQ(snap.ops.count("eos.read"), 1u);
  const auto& read = snap.ops.at("eos.read");
  EXPECT_EQ(read.count, 1u);
  EXPECT_GT(read.mean_ms, 0.0);
  EXPECT_GT(read.p50_ms, 0.0);
  EXPECT_LE(read.p50_ms, read.p99_ms);
  EXPECT_LE(read.p99_ms, static_cast<double>(read.max_ms));
  // Pool counters are summarized.
  EXPECT_GT(snap.pool.hits + snap.pool.misses, 0u);
  EXPECT_GE(snap.pool.HitRate(), 0.0);
  EXPECT_LE(snap.pool.HitRate(), 1.0);
  // Both areas are present with allocator state.
  ASSERT_EQ(snap.areas.count("leaf"), 1u);
  ASSERT_EQ(snap.areas.count("meta"), 1u);
  EXPECT_GT(snap.areas.at("leaf").allocated_pages, 0u);
  // No faults armed, none fired.
  EXPECT_EQ(snap.faults.armed, 0u);
  EXPECT_EQ(snap.faults.fired, 0u);
}

TEST(MetricsSnapshotTest, JsonHasSortedSchemaV2Shape) {
  StorageSystem sys;
  auto mgr = CreateEsmManager(&sys, 4);
  auto id = mgr->Create();
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(mgr->Append(*id, std::string(30000, 'y')).ok());

  const MetricsSnapshot snap = MetricsSnapshot::Collect(&sys);
  const std::string json = snap.ToJson("  ");
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}') << "embeddable: no trailing newline";

  // Every section, one per line at the member indent, in sorted order.
  size_t at = 0;
  for (const char* key : {"areas", "faults", "ops", "pool", "schema_version"}) {
    const size_t next = json.find(std::string("\n    \"") + key + "\": ", at);
    ASSERT_NE(next, std::string::npos) << key << "\n" << json;
    at = next + 1;
  }
  EXPECT_NE(json.find("\"schema_version\": 2\n  }"), std::string::npos)
      << json;

  // The esm.append row is one line with every column, in sorted order.
  const size_t row = json.find("\n      \"esm.append\": {\"count\": 1, ");
  ASSERT_NE(row, std::string::npos) << json;
  const std::string line = json.substr(row, json.find('\n', row + 1) - row);
  at = 0;
  for (const char* key :
       {"count", "max_ms", "mean_ms", "ms", "p50_ms", "p90_ms", "p99_ms",
        "pages", "seeks"}) {
    const size_t next = line.find(std::string("\"") + key + "\": ", at);
    ASSERT_NE(next, std::string::npos) << key << "\n" << line;
    at = next + 1;
  }
}

TEST(MetricsSnapshotTest, FromRegistryIsOpsAndPoolOnly) {
  ObsRegistry obs;
  IoStats call;
  call.read_calls = 1;
  call.pages_read = 4;
  call.ms = 49.0;
  obs.AttributionRecord("eos.read")->io += call;
  obs.RecordOpEnd("eos.read", call);

  MetricsSnapshot snap = MetricsSnapshot::FromRegistry(obs);
  EXPECT_FALSE(snap.has_substrate);
  ASSERT_EQ(snap.ops.count("eos.read"), 1u);
  EXPECT_DOUBLE_EQ(snap.ops.at("eos.read").mean_ms, 49.0);
  EXPECT_DOUBLE_EQ(snap.ops.at("eos.read").p99_ms, 49.0);
  EXPECT_EQ(snap.ops.at("eos.read").max_ms, 49u);
  // An aggregate sums its cells' pool counters into `pool`.
  snap.pool.hits = 3;
  snap.pool.misses = 1;
  snap.pool.evictions = 2;
  // Registry-only snapshots omit the substrate sections (areas, faults)
  // entirely; the whole document is fixed by the one recorded op.
  EXPECT_EQ(snap.ToJson(),
            "{\n"
            "  \"ops\": {\n"
            "    \"eos.read\": {\"count\": 1, \"max_ms\": 49, "
            "\"mean_ms\": 49.000, \"ms\": 49.000, \"p50_ms\": 49.000, "
            "\"p90_ms\": 49.000, \"p99_ms\": 49.000, \"pages\": 4, "
            "\"seeks\": 1}\n"
            "  },\n"
            "  \"pool\": {\"evictions\": 2, \"hit_rate\": 0.750000, "
            "\"hits\": 3, \"misses\": 1},\n"
            "  \"schema_version\": 2\n"
            "}");
}

TEST(MetricsSnapshotTest, SnapshotIsDeterministicAcrossIdenticalRuns) {
  auto run = [] {
    StorageSystem sys;
    auto mgr = CreateEosManager(&sys, 4);
    auto id = mgr->Create();
    EXPECT_TRUE(id.ok());
    EXPECT_TRUE(mgr->Append(*id, std::string(40000, 'z')).ok());
    std::string buf;
    EXPECT_TRUE(mgr->Read(*id, 100, 10000, &buf).ok());
    return MetricsSnapshot::Collect(&sys).ToJson("    ");
  };
  EXPECT_EQ(run(), run());
}

TEST(MetricsSnapshotTest, FaultCountersSurfaceInSnapshot) {
  StorageSystem sys;
  FaultSpec spec;
  spec.kind = FaultKind::kOneShot;
  spec.after_calls = 0;
  spec.message = "injected";
  sys.disk()->ArmFault(spec);
  const MetricsSnapshot armed = MetricsSnapshot::Collect(&sys);
  EXPECT_EQ(armed.faults.armed, 1u);
  EXPECT_EQ(armed.faults.fired, 0u);
  // The very next metered call fires the one-shot fault.
  const AreaId area = sys.disk()->CreateArea();
  std::string page(4096, 'w');
  EXPECT_FALSE(WritePages(sys.disk(), area, 0, 1, page.data()).ok());
  // The one-shot is exhausted: the retry succeeds and counts as a
  // foreground call (the fired call itself "never happened").
  EXPECT_TRUE(WritePages(sys.disk(), area, 0, 1, page.data()).ok());
  const MetricsSnapshot snap = MetricsSnapshot::Collect(&sys);
  EXPECT_EQ(snap.faults.fired, 1u);
  EXPECT_GT(snap.faults.foreground_calls, 0u);
}

}  // namespace
}  // namespace lob
