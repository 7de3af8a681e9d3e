#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/rng.h"
#include "core/factory.h"
#include "core/storage_system.h"
#include "workload/maintenance.h"
#include "workload/workload.h"

namespace lob {
namespace {

std::string Pattern(uint64_t seed, size_t n) {
  std::string out(n, '\0');
  Rng rng(seed);
  for (auto& c : out) c = static_cast<char>('a' + rng.Uniform(0, 25));
  return out;
}

class MaintenanceTest : public ::testing::TestWithParam<int> {
 protected:
  MaintenanceTest() {
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
    auto id = mgr_->Create();
    LOB_CHECK_OK(id.status());
    id_ = *id;
  }

  StorageSystem sys_;
  std::unique_ptr<LargeObjectManager> mgr_;
  ObjectId id_ = 0;
};

TEST_P(MaintenanceTest, VisitSegmentsCoversEveryByte) {
  std::string oracle = Pattern(1, 300000);
  ASSERT_TRUE(mgr_->Append(id_, oracle).ok());
  uint64_t bytes = 0, pages = 0, segments = 0;
  ASSERT_TRUE(mgr_->VisitSegments(id_, [&](uint64_t b, uint32_t p) {
    bytes += b;
    pages += p;
    segments++;
    return Status::OK();
  }).ok());
  EXPECT_EQ(bytes, oracle.size());
  EXPECT_GE(pages * 4096, bytes);
  auto stats = mgr_->GetStorageStats(id_);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(segments, stats->segments);
  EXPECT_EQ(pages, stats->leaf_pages);
}

TEST_P(MaintenanceTest, TrimReleasesGrowthSlack) {
  // Appends over-allocate under doubling growth (Starburst/EOS).
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(mgr_->Append(id_, Pattern(static_cast<uint64_t>(i), 9000)).ok());
  }
  const uint64_t before = sys_.leaf_area()->allocated_pages();
  ASSERT_TRUE(mgr_->Trim(id_).ok());
  const uint64_t after = sys_.leaf_area()->allocated_pages();
  EXPECT_LE(after, before);
  if (GetParam() != 0) {
    EXPECT_LT(after, before) << "doubling growth must have left slack";
  }
  // Content unharmed and object still appendable.
  std::string oracle;
  for (int i = 0; i < 20; ++i) oracle += Pattern(static_cast<uint64_t>(i), 9000);
  std::string got;
  ASSERT_TRUE(mgr_->Read(id_, 0, oracle.size(), &got).ok());
  EXPECT_EQ(got, oracle);
  ASSERT_TRUE(mgr_->Append(id_, "more").ok());
  ASSERT_TRUE(mgr_->Validate(id_).ok());
}

TEST_P(MaintenanceTest, CompactPreservesContent) {
  std::string oracle = Pattern(2, 400000);
  ASSERT_TRUE(mgr_->Append(id_, oracle).ok());
  Rng rng(3);
  // Degrade with updates (skip for Starburst: it never degrades and its
  // updates are whole-field copies).
  if (GetParam() != 1) {
    for (int i = 0; i < 40; ++i) {
      const uint64_t off = rng.Uniform(0, oracle.size() - 1);
      std::string ins = Pattern(rng.Next(), 500);
      ASSERT_TRUE(mgr_->Insert(id_, off, ins).ok());
      oracle.insert(off, ins);
    }
  }
  auto cost = CompactObject(&sys_, mgr_.get(), id_);
  ASSERT_TRUE(cost.ok());
  EXPECT_GT(cost->ms, 0.0);
  std::string got;
  ASSERT_TRUE(mgr_->Read(id_, 0, oracle.size(), &got).ok());
  EXPECT_EQ(got, oracle);
  ASSERT_TRUE(mgr_->Validate(id_).ok());
}

TEST_P(MaintenanceTest, CompactRestoresUtilization) {
  std::string oracle = Pattern(4, 400000);
  ASSERT_TRUE(mgr_->Append(id_, oracle).ok());
  if (GetParam() != 1) {
    Rng rng(5);
    for (int i = 0; i < 60; ++i) {
      const uint64_t off = rng.Uniform(0, oracle.size() - 2000);
      ASSERT_TRUE(mgr_->Delete(id_, off, 1000).ok());
      oracle.erase(off, 1000);
    }
  }
  ASSERT_TRUE(CompactObject(&sys_, mgr_.get(), id_).ok());
  auto util = CurrentUtilization(&sys_, mgr_.get(), id_);
  ASSERT_TRUE(util.ok());
  EXPECT_GT(*util, 0.95) << "compacted object should be near-perfectly packed";
}

TEST_P(MaintenanceTest, CompactEmptyObjectIsNoop) {
  auto cost = CompactObject(&sys_, mgr_.get(), id_);
  ASSERT_TRUE(cost.ok());
  auto size = mgr_->Size(id_);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 0u);
}

std::string EngineName2(const ::testing::TestParamInfo<int>& param_info) {
  return param_info.param == 0   ? "Esm"
         : param_info.param == 1 ? "Starburst"
                                 : "Eos";
}

INSTANTIATE_TEST_SUITE_P(Engines, MaintenanceTest, ::testing::Values(0, 1, 2),
                         EngineName2);

}  // namespace
}  // namespace lob
