#include <gtest/gtest.h>

#include <set>

#include "common/config.h"
#include "common/math_util.h"
#include "common/rng.h"
#include "common/status.h"

namespace lob {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
  EXPECT_EQ(s.code(), StatusCode::kOk);
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NoSpace("pool full");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNoSpace);
  EXPECT_EQ(s.message(), "pool full");
  EXPECT_EQ(s.ToString(), "NoSpace: pool full");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (auto code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kOutOfRange,
        StatusCode::kNotFound, StatusCode::kNoSpace, StatusCode::kCorruption,
        StatusCode::kInternal, StatusCode::kUnimplemented}) {
    EXPECT_STRNE(StatusCodeToString(code), "Unknown");
  }
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  auto inner = []() { return Status::Corruption("bad page"); };
  auto outer = [&]() -> Status {
    LOB_RETURN_IF_ERROR(inner());
    return Status::OK();
  };
  EXPECT_EQ(outer().code(), StatusCode::kCorruption);
}

TEST(StatusOrTest, HoldsValueOrStatus) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  StatusOr<int> e(Status::NotFound("x"));
  ASSERT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrDeathTest, RejectsConstructionFromOkStatus) {
  // A StatusOr built from an OK Status would be valueless (ok() false)
  // while status().ok() is true -- an unhandleable state. The converting
  // constructor LOB_CHECKs against it.
  EXPECT_DEATH(
      { StatusOr<int> bad((Status())); }, "LOB_CHECK");
}

TEST(MathTest, CeilDiv) {
  EXPECT_EQ(CeilDiv(0, 4), 0u);
  EXPECT_EQ(CeilDiv(1, 4), 1u);
  EXPECT_EQ(CeilDiv(4, 4), 1u);
  EXPECT_EQ(CeilDiv(5, 4), 2u);
  EXPECT_EQ(CeilDiv(10u * 1024 * 1024, 4096), 2560u);
}

TEST(MathTest, PowerOfTwoHelpers) {
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(4096));
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_FALSE(IsPowerOfTwo(3));
  EXPECT_EQ(RoundUpPowerOfTwo(1), 1u);
  EXPECT_EQ(RoundUpPowerOfTwo(3), 4u);
  EXPECT_EQ(RoundUpPowerOfTwo(4), 4u);
  EXPECT_EQ(RoundUpPowerOfTwo(5), 8u);
  EXPECT_EQ(CeilLog2(1), 0u);
  EXPECT_EQ(CeilLog2(2), 1u);
  EXPECT_EQ(CeilLog2(3), 2u);
  EXPECT_EQ(CeilLog2(8), 3u);
  EXPECT_EQ(CeilLog2(9), 4u);
  EXPECT_EQ(FloorLog2(1), 0u);
  EXPECT_EQ(FloorLog2(8), 3u);
  EXPECT_EQ(FloorLog2(9), 3u);
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    uint64_t v = rng.Uniform(50, 150);
    EXPECT_GE(v, 50u);
    EXPECT_LE(v, 150u);
  }
}

TEST(RngTest, UniformCoversRange) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.Uniform(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, UniformMeanIsCentered) {
  // The paper varies operation sizes uniformly +/-50% about the mean; the
  // sample mean must converge to the configured mean.
  Rng rng(11);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    sum += static_cast<double>(rng.Uniform(5000, 15000));
  }
  EXPECT_NEAR(sum / n, 10000.0, 50.0);
}

TEST(RngTest, BernoulliRate) {
  Rng rng(13);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.4);
  EXPECT_NEAR(hits / static_cast<double>(n), 0.4, 0.01);
}

TEST(ConfigTest, PaperDefaultsMatchTable1) {
  StorageConfig cfg;
  EXPECT_EQ(cfg.page_size, 4096u);
  EXPECT_EQ(cfg.buffer_pool_pages, 12u);
  EXPECT_EQ(cfg.max_pool_segment_pages, 4u);
  EXPECT_DOUBLE_EQ(kSeekMs, 33.0);
  EXPECT_DOUBLE_EQ(kTransferKbPerMs, 1.0);
  // 4K page at 1K/ms -> 4 ms per page; a 3-block read costs 33+12=45 ms,
  // the paper's worked example.
  EXPECT_DOUBLE_EQ(cfg.PageTransferMs(), 4.0);
  EXPECT_DOUBLE_EQ(kSeekMs + 3 * cfg.PageTransferMs(), 45.0);
  // Starburst's copy buffer (3.5).
  EXPECT_EQ(kCopyBufferBytes, 512u * 1024u);
}

}  // namespace
}  // namespace lob
