#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "buddy/database_area.h"
#include "common/rng.h"
#include "disk_test_util.h"

namespace lob {
namespace {

class DatabaseAreaTest : public ::testing::Test {
 protected:
  DatabaseAreaTest() {
    cfg_.buddy_space_order = 6;  // tiny 64-block spaces for tests
    disk_ = std::make_unique<SimDisk>(cfg_);
    pool_ = std::make_unique<BufferPool>(disk_.get(), cfg_);
    area_id_ = disk_->CreateArea();
    area_ = std::make_unique<DatabaseArea>(pool_.get(), area_id_, cfg_);
  }

  StorageConfig cfg_;
  std::unique_ptr<SimDisk> disk_;
  std::unique_ptr<BufferPool> pool_;
  AreaId area_id_ = 0;
  std::unique_ptr<DatabaseArea> area_;
};

TEST_F(DatabaseAreaTest, FirstAllocationCreatesASpace) {
  EXPECT_EQ(area_->num_spaces(), 0u);
  auto seg = area_->Allocate(4);
  ASSERT_TRUE(seg.ok());
  EXPECT_EQ(area_->num_spaces(), 1u);
  EXPECT_EQ(seg->pages, 4u);
  // Data pages start after the directory block (page 0 of the space).
  EXPECT_GE(seg->first_page, 1u);
}

TEST_F(DatabaseAreaTest, SegmentsDoNotOverlap) {
  std::vector<Segment> segs;
  Rng rng(5);
  for (int i = 0; i < 40; ++i) {
    auto seg = area_->Allocate(static_cast<uint32_t>(rng.Uniform(1, 9)));
    ASSERT_TRUE(seg.ok());
    segs.push_back(*seg);
  }
  std::map<PageId, PageId> spans;  // first -> end
  for (const auto& s : segs) {
    for (const auto& [first, end] : spans) {
      EXPECT_FALSE(s.first_page < end && first < s.first_page + s.pages)
          << "overlap";
    }
    spans[s.first_page] = s.first_page + s.pages;
  }
  EXPECT_TRUE(area_->CheckInvariants());
}

TEST_F(DatabaseAreaTest, GrowsAcrossSpacesWhenFull) {
  // A 64-block space can hold two 32-page segments; the third must open a
  // new space.
  ASSERT_TRUE(area_->Allocate(32).ok());
  ASSERT_TRUE(area_->Allocate(32).ok());
  EXPECT_EQ(area_->num_spaces(), 1u);
  ASSERT_TRUE(area_->Allocate(32).ok());
  EXPECT_EQ(area_->num_spaces(), 2u);
}

TEST_F(DatabaseAreaTest, SuperdirectorySkipsFullSpaces) {
  ASSERT_TRUE(area_->Allocate(64).ok());  // space 0 completely full
  EXPECT_EQ(area_->SuperdirectoryHint(0), 0u);
  ASSERT_TRUE(area_->Allocate(64).ok());  // space 1
  EXPECT_EQ(area_->num_spaces(), 2u);
  // Allocating again must not touch space 0's directory: evict it from the
  // pool first and verify no read happens for it.
  ASSERT_TRUE(pool_->FlushAll().ok());
  ASSERT_TRUE(pool_->Invalidate(area_id_, 0, 1).ok());
  disk_->ResetStats();
  ASSERT_TRUE(area_->Allocate(4).ok());
  EXPECT_FALSE(pool_->IsCached(area_id_, 0))
      << "directory of the full space 0 must not have been visited";
}

TEST_F(DatabaseAreaTest, FreeMakesSpaceReusable) {
  auto seg = area_->Allocate(32);
  ASSERT_TRUE(seg.ok());
  ASSERT_TRUE(area_->Allocate(32).ok());
  ASSERT_TRUE(area_->Free(*seg).ok());
  auto seg2 = area_->Allocate(32);
  ASSERT_TRUE(seg2.ok());
  EXPECT_EQ(area_->num_spaces(), 1u) << "freed space reused, no growth";
  EXPECT_EQ(seg2->first_page, seg->first_page);
}

TEST_F(DatabaseAreaTest, PartialFreeOfSegment) {
  auto seg = area_->Allocate(10);
  ASSERT_TRUE(seg.ok());
  // Trim the last 3 pages only.
  ASSERT_TRUE(area_->Free(seg->first_page + 7, 3).ok());
  EXPECT_EQ(area_->allocated_pages(), 7u);
  EXPECT_TRUE(area_->IsAllocated(seg->first_page));
  EXPECT_FALSE(area_->IsAllocated(seg->first_page + 7));
  EXPECT_TRUE(area_->CheckInvariants());
}

TEST_F(DatabaseAreaTest, RejectsBadFrees) {
  auto seg = area_->Allocate(4);
  ASSERT_TRUE(seg.ok());
  EXPECT_FALSE(area_->Free(seg->first_page, 0).ok());
  EXPECT_FALSE(area_->Free(10000, 1).ok());
  // Page 0 of a space is its directory block.
  EXPECT_FALSE(area_->Free(0, 1).ok());
}

TEST_F(DatabaseAreaTest, RejectsOversizedSegments) {
  EXPECT_EQ(area_->Allocate(65).status().code(), StatusCode::kNoSpace);
  EXPECT_EQ(area_->max_segment_pages(), 64u);
}

TEST_F(DatabaseAreaTest, SteadyStateAllocationCostIsAtMostOneAccess) {
  // Paper 3.1: on steady state, allocating from a buddy space costs at most
  // one disk access. With the directory hot in the pool it costs none.
  ASSERT_TRUE(area_->Allocate(4).ok());
  disk_->ResetStats();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(area_->Allocate(2).ok());
  }
  EXPECT_EQ(disk_->stats().read_calls, 0u)
      << "hot directory: no I/O for allocation";
}

TEST_F(DatabaseAreaTest, DirectoryPersistedOnFlush) {
  auto seg = area_->Allocate(8);
  ASSERT_TRUE(seg.ok());
  ASSERT_TRUE(pool_->FlushAll().ok());
  // Read the directory block straight from disk and check the bitmap marks
  // the allocated blocks as used (bit=1 means free).
  std::vector<char> dir(4096);
  ASSERT_TRUE(ReadPages(disk_.get(), area_id_, 0, 1, dir.data()).ok());
  const uint32_t b0 = seg->first_page - 1;  // block index within space
  for (uint32_t b = b0; b < b0 + 8; ++b) {
    EXPECT_EQ((dir[b / 8] >> (b % 8)) & 1, 0) << "block " << b;
  }
}

TEST_F(DatabaseAreaTest, AllocatedPagesTracksUsage) {
  EXPECT_EQ(area_->allocated_pages(), 0u);
  auto a = area_->Allocate(5);
  auto b = area_->Allocate(7);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(area_->allocated_pages(), 12u);
  ASSERT_TRUE(area_->Free(*a).ok());
  EXPECT_EQ(area_->allocated_pages(), 7u);
}

}  // namespace
}  // namespace lob
