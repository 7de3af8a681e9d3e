#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "iomodel/sim_disk.h"

namespace lob {
namespace {

StorageConfig TestConfig() { return StorageConfig{}; }

TEST(SimDiskTest, RoundTripSinglePage) {
  SimDisk disk(TestConfig());
  AreaId a = disk.CreateArea();
  std::vector<char> out(4096, 'x');
  const char* src = out.data();
  ASSERT_TRUE(disk.WriteRun(a, 5, 1, &src).ok());
  PageRef ref;
  ASSERT_TRUE(disk.ReadRun(a, 5, 1, &ref).ok());
  ASSERT_NE(ref.data, nullptr);
  EXPECT_EQ(std::memcmp(out.data(), ref.data, 4096), 0);
}

TEST(SimDiskTest, UnwrittenPagesReadAsZeros) {
  SimDisk disk(TestConfig());
  AreaId a = disk.CreateArea();
  PageRef ref;
  ref.data = "stale";
  ASSERT_TRUE(disk.ReadRun(a, 99, 1, &ref).ok());
  EXPECT_EQ(ref.data, nullptr);  // never written: reads as zeros
}

TEST(SimDiskTest, MultiPageCallMovesAllPages) {
  SimDisk disk(TestConfig());
  AreaId a = disk.CreateArea();
  std::vector<char> out(3 * 4096);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<char>(i % 251);
  }
  const char* srcs[3] = {out.data(), out.data() + 4096, out.data() + 8192};
  ASSERT_TRUE(disk.WriteRun(a, 10, 3, srcs).ok());
  PageRef refs[3];
  ASSERT_TRUE(disk.ReadRun(a, 10, 3, refs).ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_NE(refs[i].data, nullptr);
    EXPECT_EQ(std::memcmp(refs[i].data, srcs[i], 4096), 0) << "page " << i;
  }
}

TEST(SimDiskTest, CostModelMatchesPaperExample) {
  // Paper 4.1: reading a 3-block (12K) segment costs 33 + 4*3 = 45 ms;
  // reading the same blocks with 3 calls costs (33+4)*3 = 111 ms.
  SimDisk disk(TestConfig());
  AreaId a = disk.CreateArea();
  PageRef refs[3];
  ASSERT_TRUE(disk.ReadRun(a, 0, 3, refs).ok());
  EXPECT_DOUBLE_EQ(disk.stats().ms, 45.0);
  EXPECT_EQ(disk.stats().read_calls, 1u);
  EXPECT_EQ(disk.stats().pages_read, 3u);

  disk.ResetStats();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(disk.ReadRun(a, static_cast<PageId>(i), 1, refs).ok());
  }
  EXPECT_DOUBLE_EQ(disk.stats().ms, 111.0);
  EXPECT_EQ(disk.stats().Seeks(), 3u);
}

TEST(SimDiskTest, WritesAreMeteredLikeReads) {
  SimDisk disk(TestConfig());
  AreaId a = disk.CreateArea();
  const char* srcs[2] = {nullptr, nullptr};
  ASSERT_TRUE(disk.WriteRun(a, 0, 2, srcs).ok());
  EXPECT_DOUBLE_EQ(disk.stats().ms, 33.0 + 8.0);
  EXPECT_EQ(disk.stats().write_calls, 1u);
  EXPECT_EQ(disk.stats().pages_written, 2u);
  EXPECT_EQ(disk.stats().read_calls, 0u);
}

TEST(SimDiskTest, StatsSnapshotsSubtract) {
  SimDisk disk(TestConfig());
  AreaId a = disk.CreateArea();
  const char* src = nullptr;
  ASSERT_TRUE(disk.WriteRun(a, 0, 1, &src).ok());
  IoStats before = disk.stats();
  PageRef ref;
  ASSERT_TRUE(disk.ReadRun(a, 0, 1, &ref).ok());
  IoStats delta = disk.stats() - before;
  EXPECT_EQ(delta.read_calls, 1u);
  EXPECT_EQ(delta.write_calls, 0u);
  EXPECT_DOUBLE_EQ(delta.ms, 37.0);
}

TEST(SimDiskTest, MultipleAreasAreIndependent) {
  SimDisk disk(TestConfig());
  AreaId a = disk.CreateArea();
  AreaId b = disk.CreateArea();
  EXPECT_NE(a, b);
  std::vector<char> one(4096, 1), two(4096, 2);
  const char* src_one = one.data();
  const char* src_two = two.data();
  ASSERT_TRUE(disk.WriteRun(a, 0, 1, &src_one).ok());
  ASSERT_TRUE(disk.WriteRun(b, 0, 1, &src_two).ok());
  PageRef ref;
  ASSERT_TRUE(disk.ReadRun(a, 0, 1, &ref).ok());
  EXPECT_EQ(ref.data[0], 1);
  ASSERT_TRUE(disk.ReadRun(b, 0, 1, &ref).ok());
  EXPECT_EQ(ref.data[0], 2);
}

TEST(SimDiskTest, RejectsBadArguments) {
  SimDisk disk(TestConfig());
  AreaId a = disk.CreateArea();
  PageRef ref;
  const char* src = nullptr;
  EXPECT_FALSE(disk.ReadRun(a + 10, 0, 1, &ref).ok());
  EXPECT_FALSE(disk.ReadRun(a, 0, 0, &ref).ok());
  EXPECT_FALSE(disk.ReadRun(a, kInvalidPage, 1, &ref).ok());
  EXPECT_FALSE(disk.WriteRun(a + 10, 0, 1, &src).ok());
  EXPECT_FALSE(disk.WriteRun(a, 0, 0, &src).ok());
  EXPECT_FALSE(disk.WriteRun(a, kInvalidPage, 1, &src).ok());
  EXPECT_EQ(disk.stats().Seeks(), 0u) << "rejected calls are not metered";
}

TEST(SimDiskTest, HighWaterTracksWrites) {
  SimDisk disk(TestConfig());
  AreaId a = disk.CreateArea();
  EXPECT_EQ(disk.AreaHighWater(a), 0u);
  const char* src = nullptr;
  ASSERT_TRUE(disk.WriteRun(a, 41, 1, &src).ok());
  EXPECT_EQ(disk.AreaHighWater(a), 42u);
}

TEST(IoStatsTest, ArithmeticAndToString) {
  IoStats s;
  s.read_calls = 2;
  s.write_calls = 1;
  s.pages_read = 5;
  s.pages_written = 1;
  s.ms = 10;
  IoStats t = s + s;
  EXPECT_EQ(t.Seeks(), 6u);
  EXPECT_EQ(t.PagesTransferred(), 12u);
  EXPECT_DOUBLE_EQ((t - s).ms, 10.0);
  EXPECT_NE(s.ToString().find("reads=2"), std::string::npos);
}

}  // namespace
}  // namespace lob
