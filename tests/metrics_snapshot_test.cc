// Tests for the unified per-cell MetricsSnapshot: op percentile rows,
// pool hit/miss/eviction rates, buddy free-extent stats, fault counters,
// and the sorted-key embeddable JSON contract (schema v2).

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/json.h"
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

TEST(MetricsSnapshotTest, JsonParsesAndHasSortedSchemaV2Shape) {
  StorageSystem sys;
  auto mgr = CreateEsmManager(&sys, 4);
  auto id = mgr->Create();
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(mgr->Append(*id, std::string(30000, 'y')).ok());

  const MetricsSnapshot snap = MetricsSnapshot::Collect(&sys);
  const std::string json = snap.ToJson("  ");
  EXPECT_EQ(json.back(), '}') << "embeddable: no trailing newline";

  auto v = JsonValue::Parse(json);
  ASSERT_TRUE(v.ok()) << v.status().ToString() << "\n" << json;
  EXPECT_DOUBLE_EQ(v->NumberOr("schema_version", 0), 2.0);
  const JsonValue* ops = v->Find("ops");
  ASSERT_NE(ops, nullptr);
  const JsonValue* append = ops->Find("esm.append");
  ASSERT_NE(append, nullptr);
  for (const char* key :
       {"count", "max_ms", "mean_ms", "ms", "p50_ms", "p90_ms", "p99_ms",
        "pages", "seeks"}) {
    EXPECT_NE(append->Find(key), nullptr) << key;
  }
  ASSERT_NE(v->Find("pool"), nullptr);
  ASSERT_NE(v->Find("areas"), nullptr);
  ASSERT_NE(v->Find("faults"), nullptr);
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
  // Registry-only snapshots omit the substrate sections entirely.
  const std::string json = snap.ToJson();
  EXPECT_EQ(json.find("\"areas\""), std::string::npos) << json;
  EXPECT_EQ(json.find("\"faults\""), std::string::npos) << json;
  auto v = JsonValue::Parse(json);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  const JsonValue* pool = v->Find("pool");
  ASSERT_NE(pool, nullptr) << json;
  EXPECT_DOUBLE_EQ(pool->NumberOr("hits", 0), 3.0);
  EXPECT_DOUBLE_EQ(pool->NumberOr("misses", 0), 1.0);
  EXPECT_DOUBLE_EQ(pool->NumberOr("evictions", 0), 2.0);
  EXPECT_DOUBLE_EQ(pool->NumberOr("hit_rate", 0), 0.75);
  EXPECT_EQ(v->Find("counters"), nullptr) << json;
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
