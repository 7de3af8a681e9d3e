// Cross-engine integration tests: the three storage structures implement
// the same byte-level semantics, so any operation sequence must leave all
// three with identical contents.

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/factory.h"
#include "core/storage_system.h"
#include "workload/workload.h"

namespace lob {
namespace {

struct EngineUnderTest {
  std::string name;
  std::unique_ptr<StorageSystem> sys;
  std::unique_ptr<LargeObjectManager> mgr;
  ObjectId id;
};

std::vector<EngineUnderTest> AllEngines() {
  std::vector<EngineUnderTest> engines;
  auto add = [&](const std::string& name, auto make) {
    EngineUnderTest e;
    e.name = name;
    e.sys = std::make_unique<StorageSystem>();
    e.mgr = make(e.sys.get());
    auto id = e.mgr->Create();
    LOB_CHECK_OK(id.status());
    e.id = *id;
    engines.push_back(std::move(e));
  };
  add("esm-1", [](StorageSystem* s) { return CreateEsmManager(s, 1); });
  add("esm-4", [](StorageSystem* s) { return CreateEsmManager(s, 4); });
  add("esm-64", [](StorageSystem* s) { return CreateEsmManager(s, 64); });
  add("starburst", [](StorageSystem* s) { return CreateStarburstManager(s); });
  add("eos-1", [](StorageSystem* s) { return CreateEosManager(s, 1); });
  add("eos-4", [](StorageSystem* s) { return CreateEosManager(s, 4); });
  add("eos-64", [](StorageSystem* s) { return CreateEosManager(s, 64); });
  return engines;
}

TEST(CrossEngine, IdenticalContentUnderRandomOps) {
  auto engines = AllEngines();
  std::string oracle;
  Rng rng(20260707);
  std::string buf;
  for (int step = 0; step < 120; ++step) {
    const double p = rng.NextDouble();
    if (oracle.empty() || p < 0.4) {
      buf.clear();
      Rng content(rng.Next());
      FillBytes(&content, rng.Uniform(1, 50000), &buf);
      const uint64_t off =
          oracle.empty() ? 0 : rng.Uniform(0, oracle.size());
      for (auto& e : engines) {
        ASSERT_TRUE(e.mgr->Insert(e.id, off, buf).ok())
            << e.name << " step " << step;
      }
      oracle.insert(off, buf);
    } else if (p < 0.65) {
      const uint64_t off = rng.Uniform(0, oracle.size() - 1);
      const uint64_t n =
          rng.Uniform(1, std::min<uint64_t>(oracle.size() - off, 30000));
      for (auto& e : engines) {
        ASSERT_TRUE(e.mgr->Delete(e.id, off, n).ok())
            << e.name << " step " << step;
      }
      oracle.erase(off, n);
    } else if (p < 0.85) {
      const uint64_t off = rng.Uniform(0, oracle.size() - 1);
      const uint64_t n = rng.Uniform(1, oracle.size() - off);
      Rng content(rng.Next());
      FillBytes(&content, n, &buf);
      for (auto& e : engines) {
        ASSERT_TRUE(e.mgr->Replace(e.id, off, buf).ok())
            << e.name << " step " << step;
      }
      oracle.replace(off, n, buf);
    } else {
      const uint64_t off = rng.Uniform(0, oracle.size() - 1);
      const uint64_t n = rng.Uniform(1, oracle.size() - off);
      std::string expect = oracle.substr(off, n);
      for (auto& e : engines) {
        std::string got;
        ASSERT_TRUE(e.mgr->Read(e.id, off, n, &got).ok())
            << e.name << " step " << step;
        ASSERT_EQ(got, expect) << e.name << " step " << step;
      }
    }
  }
  for (auto& e : engines) {
    auto size = e.mgr->Size(e.id);
    ASSERT_TRUE(size.ok());
    EXPECT_EQ(*size, oracle.size()) << e.name;
    std::string got;
    ASSERT_TRUE(e.mgr->Read(e.id, 0, oracle.size(), &got).ok()) << e.name;
    EXPECT_EQ(got, oracle) << e.name;
    ASSERT_TRUE(e.mgr->Validate(e.id).ok()) << e.name;
  }
}

TEST(CrossEngine, StarburstAndEosBuildIdenticalLayouts) {
  // Paper 4.6: "when no length-changing updates are applied on the large
  // object, Starburst and EOS perform exactly the same" - the build
  // produces the same segment sizes and the same modeled I/O cost.
  for (uint64_t append : {3000ull, 8192ull, 100000ull}) {
    StorageSystem sb_sys, eos_sys;
    auto sb = CreateStarburstManager(&sb_sys);
    auto eos = CreateEosManager(&eos_sys, 4);
    auto sb_id = sb->Create();
    auto eos_id = eos->Create();
    ASSERT_TRUE(sb_id.ok());
    ASSERT_TRUE(eos_id.ok());
    const uint64_t total = 2 * 1024 * 1024;
    auto sb_build = BuildObject(&sb_sys, sb.get(), *sb_id, total, append);
    auto eos_build = BuildObject(&eos_sys, eos.get(), *eos_id, total, append);
    ASSERT_TRUE(sb_build.ok());
    ASSERT_TRUE(eos_build.ok());
    auto sb_stats = sb->GetStorageStats(*sb_id);
    auto eos_stats = eos->GetStorageStats(*eos_id);
    ASSERT_TRUE(sb_stats.ok());
    ASSERT_TRUE(eos_stats.ok());
    EXPECT_EQ(sb_stats->segments, eos_stats->segments)
        << "append=" << append;
    EXPECT_EQ(sb_stats->leaf_pages, eos_stats->leaf_pages)
        << "append=" << append;
    // Modeled build cost within 2% (descriptor vs root bookkeeping).
    EXPECT_NEAR(sb_build->Ms(), eos_build->Ms(), sb_build->Ms() * 0.02)
        << "append=" << append;
  }
}

TEST(Workload, BuildProducesExactObject) {
  StorageSystem sys;
  auto mgr = CreateEosManager(&sys, 4);
  auto id = mgr->Create();
  ASSERT_TRUE(id.ok());
  auto r = BuildObject(&sys, mgr.get(), *id, 1234567, 8000);
  ASSERT_TRUE(r.ok());
  auto size = mgr->Size(*id);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 1234567u);
  EXPECT_GT(r->Ms(), 0.0);
}

TEST(Workload, SequentialScanTouchesEveryByte) {
  StorageSystem sys;
  auto mgr = CreateEsmManager(&sys, 4);
  auto id = mgr->Create();
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(BuildObject(&sys, mgr.get(), *id, 500000, 10000).ok());
  auto scan = SequentialScan(&sys, mgr.get(), *id, 10000);
  ASSERT_TRUE(scan.ok());
  // At least ceil(500000/4096) = 123 pages must be transferred.
  EXPECT_GE(scan->io.pages_read, 123u);
}

TEST(Workload, UpdateMixKeepsSizeStableAndReportsWindows) {
  StorageSystem sys;
  auto mgr = CreateEosManager(&sys, 4);
  auto id = mgr->Create();
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(BuildObject(&sys, mgr.get(), *id, 1000000, 100000).ok());
  MixSpec spec;
  spec.mean_op_bytes = 1000;
  spec.total_ops = 500;
  spec.window_ops = 100;
  auto points = RunUpdateMix(&sys, mgr.get(), *id, spec);
  ASSERT_TRUE(points.ok());
  EXPECT_EQ(points->size(), 5u);
  for (const auto& pt : *points) {
    EXPECT_GT(pt.utilization, 0.0);
    EXPECT_LE(pt.utilization, 1.0);
    EXPECT_GT(pt.reads + pt.inserts + pt.deletes, 0u);
  }
  // Deletes mirror inserts, so the size stays near 1 MB.
  auto size = mgr->Size(*id);
  ASSERT_TRUE(size.ok());
  EXPECT_NEAR(static_cast<double>(*size), 1e6, 2e5);
  ASSERT_TRUE(mgr->Validate(*id).ok());
}

TEST(Workload, MixFractionsRespected) {
  StorageSystem sys;
  auto mgr = CreateEsmManager(&sys, 4);
  auto id = mgr->Create();
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(BuildObject(&sys, mgr.get(), *id, 1000000, 100000).ok());
  MixSpec spec;
  spec.mean_op_bytes = 500;
  spec.total_ops = 2000;
  spec.window_ops = 2000;
  auto points = RunUpdateMix(&sys, mgr.get(), *id, spec);
  ASSERT_TRUE(points.ok());
  ASSERT_EQ(points->size(), 1u);
  const auto& pt = points->front();
  EXPECT_NEAR(pt.reads / 2000.0, 0.4, 0.05);
  EXPECT_NEAR(pt.inserts / 2000.0, 0.3, 0.05);
  EXPECT_NEAR(pt.deletes / 2000.0, 0.3, 0.05);
}

TEST(Workload, FlagParsing) {
  const char* argv[] = {"prog", "--ops=1234", "--quick"};
  EXPECT_EQ(FlagValue<uint32_t>(3, const_cast<char**>(argv), "ops", 99),
            1234u);
  EXPECT_EQ(FlagValue<uint32_t>(3, const_cast<char**>(argv), "missing", 99),
            99u);
  EXPECT_TRUE(FlagPresent(3, const_cast<char**>(argv), "quick"));
  EXPECT_FALSE(FlagPresent(3, const_cast<char**>(argv), "slow"));
}

TEST(Workload, FlagRangeIsInclusive) {
  // Both ends of [lo, hi] are accepted; the values just outside exit 2
  // (bench_determinism_test.sh runs those through the bench binaries).
  const uint64_t max_mb = std::numeric_limits<uint64_t>::max() >> 20;
  const std::string top = "--object-mb=" + std::to_string(max_mb);
  const char* argv[] = {"prog", "--objects=1", top.c_str()};
  char** args = const_cast<char**>(argv);
  EXPECT_EQ(FlagValue<uint32_t>(3, args, "objects", 8, 1), 1u);
  EXPECT_EQ(FlagValue<uint64_t>(3, args, "object-mb", 2, 1, max_mb), max_mb);
}

}  // namespace
}  // namespace lob
