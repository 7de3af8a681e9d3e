// Tests for the observability layer: histogram bucketing, the per-operation
// attribution ledger, and — the load-bearing property — the conservation
// invariant: the sum of per-operation attributed IoStats equals the SimDisk
// global IoStats across a mixed workload, for all three engines.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

#include "common/rng.h"
#include "core/factory.h"
#include "core/storage_system.h"
#include "disk_test_util.h"
#include "obs/obs_registry.h"
#include "obs/op_scope.h"

namespace lob {
namespace {

std::string Pattern(uint64_t seed, size_t n) {
  std::string out(n, '\0');
  Rng rng(seed);
  for (auto& c : out) c = static_cast<char>('a' + rng.Uniform(0, 25));
  return out;
}

// ---------------------------------------------------------------------------
// Histogram

TEST(HistogramTest, BucketIndexIsLogTwo) {
  EXPECT_EQ(Histogram::BucketIndex(0), 0);
  EXPECT_EQ(Histogram::BucketIndex(1), 1);
  EXPECT_EQ(Histogram::BucketIndex(2), 2);
  EXPECT_EQ(Histogram::BucketIndex(3), 2);
  EXPECT_EQ(Histogram::BucketIndex(4), 3);
  EXPECT_EQ(Histogram::BucketIndex(7), 3);
  EXPECT_EQ(Histogram::BucketIndex(8), 4);
  EXPECT_EQ(Histogram::BucketIndex(1024), 11);
  // Everything at or above 2^32 lands in the last bucket.
  EXPECT_EQ(Histogram::BucketIndex(1ull << 32), Histogram::kBuckets - 1);
  EXPECT_EQ(Histogram::BucketIndex(UINT64_MAX), Histogram::kBuckets - 1);
}

TEST(HistogramTest, BucketBoundsRoundTrip) {
  EXPECT_EQ(Histogram::BucketLowerBound(0), 0u);
  EXPECT_EQ(Histogram::BucketLowerBound(1), 1u);
  EXPECT_EQ(Histogram::BucketLowerBound(2), 2u);
  EXPECT_EQ(Histogram::BucketLowerBound(3), 4u);
  for (int i = 0; i < Histogram::kBuckets; ++i) {
    EXPECT_EQ(Histogram::BucketIndex(Histogram::BucketLowerBound(i)), i)
        << "bucket " << i;
  }
}

TEST(HistogramTest, BucketBoundaryValuesLandInTheRightBucket) {
  // Every bucket boundary: 2^i goes to bucket i+1 (its lower bound),
  // 2^i - 1 stays in bucket i. Plus the extremes 0, 1, UINT64_MAX.
  EXPECT_EQ(Histogram::BucketIndex(0), 0);
  EXPECT_EQ(Histogram::BucketIndex(1), 1);
  for (int i = 1; i < Histogram::kBuckets - 1; ++i) {
    const uint64_t lo = Histogram::BucketLowerBound(i);
    EXPECT_EQ(Histogram::BucketIndex(lo), i) << "2^" << (i - 1);
    if (lo > 1) {
      EXPECT_EQ(Histogram::BucketIndex(lo - 1), i - 1)
          << "2^" << (i - 1) << " - 1";
    }
  }
  // At and above the top bucket's lower bound everything is clamped.
  const uint64_t top = Histogram::BucketLowerBound(Histogram::kBuckets - 1);
  EXPECT_EQ(Histogram::BucketIndex(top - 1), Histogram::kBuckets - 2);
  EXPECT_EQ(Histogram::BucketIndex(top), Histogram::kBuckets - 1);
  EXPECT_EQ(Histogram::BucketIndex(UINT64_MAX), Histogram::kBuckets - 1);
}

TEST(HistogramTest, SummaryStatistics) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 0.0);
  for (uint64_t v : {5u, 3u, 1000u, 7u}) h.Add(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.max(), 1000u);
  // The extremes are kept exactly: q=0 is the minimum, q=1 the maximum.
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 3.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 1000.0);
}

TEST(HistogramTest, QuantileEdgeCases) {
  Histogram empty;
  EXPECT_DOUBLE_EQ(empty.Quantile(0.5), 0.0);

  Histogram one;
  one.Add(37);
  // Single sample: every quantile is that sample.
  EXPECT_DOUBLE_EQ(one.Quantile(0.0), 37.0);
  EXPECT_DOUBLE_EQ(one.Quantile(0.5), 37.0);
  EXPECT_DOUBLE_EQ(one.Quantile(0.99), 37.0);
  EXPECT_DOUBLE_EQ(one.Quantile(1.0), 37.0);

  // All samples in one bucket: results interpolate inside the bucket but
  // never escape the observed [min, max] range.
  Histogram same;
  for (int i = 0; i < 100; ++i) same.Add(33);  // bucket [32, 64)
  EXPECT_DOUBLE_EQ(same.Quantile(0.5), 33.0);
  EXPECT_DOUBLE_EQ(same.Quantile(0.99), 33.0);

  // Zero-valued samples sit in the dedicated bucket 0.
  Histogram zeros;
  for (int i = 0; i < 10; ++i) zeros.Add(0);
  EXPECT_DOUBLE_EQ(zeros.Quantile(0.9), 0.0);
}

TEST(HistogramTest, QuantileInSingleValueBucketIsThatValue) {
  // Bucket 0 holds only 0 and bucket 1 only 1, so a rank landing in
  // either is that value, not a fraction interpolated towards the next
  // bucket: a zero-cost op with one rare miss has p50 = p90 = p99 = 0.
  Histogram zeros;
  for (int i = 0; i < 99; ++i) zeros.Add(0);
  zeros.Add(37);
  EXPECT_DOUBLE_EQ(zeros.Quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(zeros.Quantile(0.9), 0.0);
  EXPECT_DOUBLE_EQ(zeros.Quantile(0.99), 0.0);
  EXPECT_DOUBLE_EQ(zeros.Quantile(1.0), 37.0);

  Histogram ones;
  for (int i = 0; i < 9; ++i) ones.Add(1);
  ones.Add(100);
  EXPECT_DOUBLE_EQ(ones.Quantile(0.5), 1.0);
  EXPECT_DOUBLE_EQ(ones.Quantile(0.8), 1.0);
}

TEST(HistogramTest, QuantilesAreMonotoneAndOrdered) {
  Histogram h;
  for (uint64_t v = 1; v <= 1000; ++v) h.Add(v);
  const double p50 = h.Quantile(0.5);
  const double p90 = h.Quantile(0.9);
  const double p99 = h.Quantile(0.99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, static_cast<double>(h.max()));
  EXPECT_GE(p50, h.Quantile(0.0));
  // Log2 buckets are coarse, but the uniform 1..1000 stream should put
  // p50 somewhere in the right octave.
  EXPECT_GT(p50, 256.0);
  EXPECT_LT(p50, 1000.0);
}

TEST(HistogramTest, MergeFromCombinesCountsAndExtremes) {
  Histogram a;
  Histogram b;
  for (uint64_t v : {1u, 10u, 100u}) a.Add(v);
  for (uint64_t v : {5u, 5000u}) b.Add(v);
  a.MergeFrom(b);
  EXPECT_EQ(a.count(), 5u);
  EXPECT_DOUBLE_EQ(a.Quantile(0.0), 1.0);
  EXPECT_EQ(a.max(), 5000u);
  EXPECT_DOUBLE_EQ(a.Quantile(1.0), 5000.0);
  // Merging from an empty histogram changes nothing.
  Histogram empty;
  a.MergeFrom(empty);
  EXPECT_EQ(a.count(), 5u);
  EXPECT_DOUBLE_EQ(a.Quantile(0.0), 1.0);
  EXPECT_EQ(a.max(), 5000u);
}

// ---------------------------------------------------------------------------
// Registry basics

TEST(ObsRegistryTest, MergeFromAccumulatesAcrossRegistries) {
  ObsRegistry a;
  ObsRegistry b;
  IoStats call;
  call.read_calls = 1;
  call.pages_read = 2;
  call.ms = 41.0;
  a.AttributionRecord("eos.read")->io += call;
  a.RecordOpEnd("eos.read", call);
  b.AttributionRecord("eos.read")->io += call;
  b.AttributionRecord("esm.insert")->io += call;
  b.RecordOpEnd("eos.read", call);
  b.RecordOpEnd("esm.insert", call);
  a.MergeFrom(b);
  EXPECT_EQ(a.ops().at("eos.read").io.read_calls, 2u);
  EXPECT_EQ(a.ops().at("eos.read").count, 2u);
  EXPECT_EQ(a.ops().at("esm.insert").io.read_calls, 1u);
  EXPECT_EQ(a.ops().at("eos.read").ms.count(), 2u);
  EXPECT_DOUBLE_EQ(a.ops().at("eos.read").ms.Quantile(0.0), 41.0);
  EXPECT_EQ(a.ops().at("eos.read").ms.max(), 41u);
  EXPECT_EQ(a.ops().at("esm.insert").ms.count(), 1u);
}

TEST(ObsRegistryTest, AttributionLedgerAccumulatesPerLabel) {
  ObsRegistry obs;
  IoStats call;
  call.read_calls = 1;
  call.pages_read = 4;
  call.ms = 49.0;
  obs.AttributionRecord("a.read")->io += call;
  obs.AttributionRecord("a.read")->io += call;
  obs.AttributionRecord("b.write")->io += call;
  EXPECT_EQ(obs.ops().at("a.read").io.read_calls, 2u);
  EXPECT_EQ(obs.ops().at("a.read").io.pages_read, 8u);
  EXPECT_EQ(obs.ops().at("b.write").io.read_calls, 1u);
  IoStats total = obs.AttributedTotal();
  EXPECT_EQ(total.read_calls, 3u);
  EXPECT_EQ(total.pages_read, 12u);
  EXPECT_TRUE(obs.ConservationHolds(total));
  IoStats off = total;
  off.read_calls += 1;
  EXPECT_FALSE(obs.ConservationHolds(off));
}

TEST(ObsRegistryTest, RecordOpEndFeedsHistograms) {
  ObsRegistry obs;
  IoStats delta;
  delta.read_calls = 2;
  delta.write_calls = 1;
  delta.pages_read = 5;
  delta.pages_written = 3;
  delta.ms = 131.0;
  obs.RecordOpEnd("esm.append", delta);
  const ObsRegistry::OpRecord& rec = obs.ops().at("esm.append");
  EXPECT_EQ(rec.count, 1u);
  EXPECT_EQ(rec.ms.count(), 1u);
  EXPECT_EQ(rec.ms.max(), 131u);
  // The op end feeds the count and histogram only; the ledger's I/O
  // comes from SimDisk.
  EXPECT_EQ(rec.io.read_calls, 0u);
}

TEST(ObsRegistryTest, CsvExportShape) {
  ObsRegistry obs;
  IoStats call;
  call.write_calls = 1;
  call.pages_written = 2;
  call.ms = 41.0;
  obs.AttributionRecord("eos.append")->io += call;
  obs.RecordOpEnd("eos.append", call);
  const std::string csv = obs.ToCsv();
  EXPECT_EQ(csv.find("op,count,read_calls,write_calls,pages_read,"
                     "pages_written,seeks,pages,ms"),
            0u)
      << csv;
  EXPECT_NE(csv.find("eos.append,1,0,1,0,2,"), std::string::npos) << csv;
}

// ---------------------------------------------------------------------------
// OpScope wiring on a bare disk

TEST(OpScopeTest, NestedScopesComposeChildLabels) {
  // A scope opened while another is active charges its I/O to the
  // composed `parent.child` label, so nested helper ops (e.g. an insert
  // that internally appends) stay distinguishable from the same helper
  // invoked at top level instead of silently absorbing its parent's name.
  StorageConfig cfg;
  ObsRegistry obs;
  SimDisk disk(cfg);
  disk.set_obs(&obs);
  const AreaId area = disk.CreateArea();
  std::string page(cfg.page_size, 'x');
  {
    OpScope outer(&disk, "outer");
    ASSERT_TRUE(WritePages(&disk, area, 0, 1, page.data()).ok());
    {
      OpScope inner(&disk, "inner");
      EXPECT_STREQ(inner.label(), "outer.inner");
      ASSERT_TRUE(WritePages(&disk, area, 1, 1, page.data()).ok());
    }
    ASSERT_TRUE(WritePages(&disk, area, 2, 1, page.data()).ok());
  }
  EXPECT_EQ(obs.ops().at("outer").io.write_calls, 2u);
  EXPECT_EQ(obs.ops().at("outer.inner").io.write_calls, 1u);
  EXPECT_EQ(obs.ops().count("inner"), 0u);
  // The outer op's histogram covers the whole op, nested I/O included:
  // three one-page writes at 37 ms against the inner op's one.
  EXPECT_EQ(obs.ops().at("outer").ms.max(), 3 * 37u);
  EXPECT_EQ(obs.ops().at("outer.inner").ms.max(), 37u);
  EXPECT_TRUE(obs.ConservationHolds(disk.stats()));
}

TEST(OpScopeTest, DeepNestingComposesEveryLevel) {
  StorageConfig cfg;
  ObsRegistry obs;
  SimDisk disk(cfg);
  disk.set_obs(&obs);
  const AreaId area = disk.CreateArea();
  std::string page(cfg.page_size, 'x');
  {
    OpScope a(&disk, "a");
    OpScope b(&disk, "b");
    OpScope c(&disk, "c");
    EXPECT_STREQ(c.label(), "a.b.c");
    ASSERT_TRUE(WritePages(&disk, area, 0, 1, page.data()).ok());
  }
  EXPECT_EQ(obs.ops().at("a.b.c").io.write_calls, 1u);
  // Sibling scopes after the nested one re-compose from the parent, not
  // from the departed sibling.
  {
    OpScope a(&disk, "a");
    { OpScope b(&disk, "b"); }
    OpScope d(&disk, "d");
    EXPECT_STREQ(d.label(), "a.d");
  }
  EXPECT_TRUE(obs.ConservationHolds(disk.stats()));
}

TEST(OpScopeTest, IoOutsideAnyScopeIsUnattributed) {
  StorageConfig cfg;
  ObsRegistry obs;
  SimDisk disk(cfg);
  disk.set_obs(&obs);
  const AreaId area = disk.CreateArea();
  std::string page(cfg.page_size, 'x');
  ASSERT_TRUE(WritePages(&disk, area, 0, 1, page.data()).ok());
  ASSERT_EQ(obs.ops().count(ObsRegistry::kUnattributed), 1u);
  EXPECT_EQ(obs.ops().at(ObsRegistry::kUnattributed).io.write_calls, 1u);
  EXPECT_TRUE(obs.ConservationHolds(disk.stats()));
}

TEST(OpScopeTest, ResetStatsResetsAttributionLedgerToo) {
  StorageConfig cfg;
  ObsRegistry obs;
  SimDisk disk(cfg);
  disk.set_obs(&obs);
  const AreaId area = disk.CreateArea();
  std::string page(cfg.page_size, 'x');
  ASSERT_TRUE(WritePages(&disk, area, 0, 1, page.data()).ok());
  ASSERT_FALSE(obs.ops().empty());
  disk.ResetStats();
  EXPECT_TRUE(obs.ops().empty());
  EXPECT_TRUE(obs.ConservationHolds(disk.stats()));
  // Conservation keeps holding for I/O issued after the reset.
  ASSERT_TRUE(WritePages(&disk, area, 1, 1, page.data()).ok());
  EXPECT_TRUE(obs.ConservationHolds(disk.stats()));
}

// ---------------------------------------------------------------------------
// Conservation across a mixed workload, all three engines

class ObsConservationTest : public ::testing::TestWithParam<int> {
 protected:
  ObsConservationTest() {
    switch (GetParam()) {
      case 0:
        mgr_ = CreateEsmManager(&sys_, 4);
        break;
      case 1:
        mgr_ = CreateStarburstManager(&sys_);
        break;
      default:
        mgr_ = CreateEosManager(&sys_, 4);
        break;
    }
  }

  void ExpectConservation(const char* where) {
    const ObsRegistry* obs = sys_.obs();
    const IoStats& global = sys_.stats();
    EXPECT_TRUE(obs->ConservationHolds(global)) << where;
    const IoStats total = obs->AttributedTotal();
    EXPECT_EQ(total.read_calls, global.read_calls) << where;
    EXPECT_EQ(total.write_calls, global.write_calls) << where;
    EXPECT_EQ(total.pages_read, global.pages_read) << where;
    EXPECT_EQ(total.pages_written, global.pages_written) << where;
    EXPECT_NEAR(total.ms, global.ms, 1e-6 * (1.0 + global.ms)) << where;
  }

  StorageSystem sys_;
  std::unique_ptr<LargeObjectManager> mgr_;
};

TEST_P(ObsConservationTest, MixedWorkloadSumsToGlobal) {
  auto id = mgr_->Create();
  ASSERT_TRUE(id.ok());
  ExpectConservation("after create");

  // Build ~600K in mid-sized appends.
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(
        mgr_->Append(*id, Pattern(static_cast<uint64_t>(i), 50000)).ok());
  }
  ExpectConservation("after appends");

  // Mixed reads, inserts, deletes, replaces at varied offsets/sizes.
  Rng rng(42);
  std::string buf;
  for (int i = 0; i < 30; ++i) {
    auto size = mgr_->Size(*id);
    ASSERT_TRUE(size.ok());
    const uint64_t sz = *size;
    const uint64_t off = sz == 0 ? 0 : rng.Next() % sz;
    switch (i % 4) {
      case 0:
        ASSERT_TRUE(
            mgr_->Read(*id, off, std::min<uint64_t>(9000, sz - off), &buf)
                .ok());
        break;
      case 1:
        ASSERT_TRUE(mgr_->Insert(*id, off, Pattern(rng.Next(), 3000)).ok());
        break;
      case 2:
        ASSERT_TRUE(
            mgr_->Delete(*id, off, std::min<uint64_t>(2000, sz - off)).ok());
        break;
      default: {
        const uint64_t len = std::min<uint64_t>(1500, sz - off);
        ASSERT_TRUE(mgr_->Replace(*id, off, Pattern(rng.Next(), len)).ok());
        break;
      }
    }
  }
  ExpectConservation("after update mix");

  // Every metered byte should be attributed to an engine-tagged label;
  // nothing in this workload runs outside an OpScope.
  const ObsRegistry* obs = sys_.obs();
  EXPECT_EQ(obs->ops().count(ObsRegistry::kUnattributed), 0u);
  EXPECT_GE(obs->ops().size(), 5u) << "expected per-op labels for the mix";
  for (const auto& [label, rec] : obs->ops()) {
    EXPECT_GT(rec.count, 0u) << label;
  }

  ASSERT_TRUE(sys_.FlushAll().ok());
  // FlushAll runs outside any scope: charged to (unattributed), and the
  // invariant still holds.
  ExpectConservation("after FlushAll");

  ASSERT_TRUE(mgr_->Destroy(*id).ok());
  ExpectConservation("after destroy");
}

TEST_P(ObsConservationTest, UnmeteredSectionPreservesConservation) {
  auto id = mgr_->Create();
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(mgr_->Append(*id, Pattern(9, 200000)).ok());
  ASSERT_TRUE(sys_.FlushAll().ok());
  ExpectConservation("before section");
  const IoStats before = sys_.stats();
  const auto records_before = sys_.obs()->ops();
  {
    StorageSystem::UnmeteredSection unmetered(&sys_);
    std::string buf;
    ASSERT_TRUE(mgr_->Read(*id, 0, 200000, &buf).ok());
    ASSERT_TRUE(mgr_->Size(*id).ok());
  }
  const IoStats after = sys_.stats();
  EXPECT_EQ(after.Seeks(), before.Seeks()) << "section must not be metered";
  ExpectConservation("after section");
  // Ops inside the section are not counted either: every record, its
  // count and its ms histogram included, is as it was before.
  const auto& records_after = sys_.obs()->ops();
  ASSERT_EQ(records_after.size(), records_before.size());
  for (const auto& [label, rec] : records_before) {
    const auto it = records_after.find(label);
    ASSERT_NE(it, records_after.end()) << label;
    EXPECT_EQ(it->second.count, rec.count) << label;
    EXPECT_EQ(it->second.ms.count(), rec.ms.count()) << label;
    EXPECT_EQ(it->second.ms.max(), rec.ms.max()) << label;
    EXPECT_EQ(it->second.io.Seeks(), rec.io.Seeks()) << label;
  }
}

std::string EngineName3(const ::testing::TestParamInfo<int>& param_info) {
  return param_info.param == 0   ? "Esm"
         : param_info.param == 1 ? "Starburst"
                                 : "Eos";
}

INSTANTIATE_TEST_SUITE_P(Engines, ObsConservationTest,
                         ::testing::Values(0, 1, 2), EngineName3);

}  // namespace
}  // namespace lob
