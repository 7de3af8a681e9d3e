// Fault model semantics (iomodel/fault_model.h, SimDisk::ArmFault):
// one-shot / sticky lifetimes, direction, op-label and page-range
// filters, and the countdown contract (attributed foreground calls only,
// off-by-one-free, fired faults advance no counters).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/logging.h"
#include "core/storage_system.h"
#include "disk_test_util.h"
#include "iomodel/fault_model.h"
#include "iomodel/sim_disk.h"

namespace lob {
namespace {

class FaultModelTest : public ::testing::Test {
 protected:
  FaultModelTest() : disk_(cfg_) {
    area_ = disk_.CreateArea();
    buf_.resize(cfg_.page_size * 8);
  }

  Status WritePage(PageId page, uint32_t n_pages = 1) {
    return WritePages(&disk_, area_, page, n_pages, buf_.data());
  }
  Status ReadPage(PageId page, uint32_t n_pages = 1) {
    return ReadPages(&disk_, area_, page, n_pages, buf_.data());
  }

  StorageConfig cfg_;
  SimDisk disk_;
  AreaId area_ = 0;
  std::vector<char> buf_;
};

TEST_F(FaultModelTest, OneShotFiresExactlyOnceAtK) {
  // Countdown contract: after_calls == k means exactly k matching calls
  // succeed and the (k+1)-th fails.
  FaultSpec fault;
  fault.kind = FaultKind::kOneShot;
  fault.after_calls = 3;
  fault.message = "boom";
  disk_.ArmFault(fault);
  EXPECT_EQ(disk_.armed_faults(), 1u);

  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(WritePage(static_cast<PageId>(i)).ok()) << "call " << i;
  }
  Status s = WritePage(3);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_EQ(s.message(), "boom");
  // Exhausted: everything works again.
  EXPECT_EQ(disk_.armed_faults(), 0u);
  EXPECT_TRUE(WritePage(4).ok());
}

TEST_F(FaultModelTest, FiredFaultDoesNotAdvanceCounters) {
  // The failed call "never happened": it neither advances the
  // foreground-call clock nor the countdowns of other armed faults.
  FaultSpec first;
  first.after_calls = 1;
  first.message = "first";
  FaultSpec second;
  second.after_calls = 2;
  second.message = "second";
  disk_.ArmFault(first);
  disk_.ArmFault(second);

  ASSERT_TRUE(WritePage(0).ok());
  EXPECT_EQ(disk_.foreground_calls(), 1u);
  Status s = WritePage(1);  // `first` fires
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.message(), "first");
  EXPECT_EQ(disk_.foreground_calls(), 1u) << "failed call must not count";

  // `second` still needs one more *successful* matching call before it
  // fires: the failed call did not advance its countdown.
  ASSERT_TRUE(WritePage(2).ok());
  s = WritePage(3);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.message(), "second");
}

TEST_F(FaultModelTest, StickyFailsUntilCleared) {
  FaultSpec fault;
  fault.kind = FaultKind::kSticky;
  fault.after_calls = 1;
  disk_.ArmFault(fault);

  ASSERT_TRUE(WritePage(0).ok());
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(WritePage(1).ok()) << "sticky fault must keep firing";
  }
  EXPECT_EQ(disk_.armed_faults(), 1u) << "sticky faults never exhaust";
  disk_.ClearFaults();
  EXPECT_EQ(disk_.armed_faults(), 0u);
  EXPECT_TRUE(WritePage(1).ok());
}

TEST_F(FaultModelTest, DirectionFilterCountsOnlyMatchingCalls) {
  // A write-only fault: reads neither fire it nor advance its countdown.
  FaultSpec fault;
  fault.after_calls = 1;
  fault.match_reads = false;
  disk_.ArmFault(fault);

  ASSERT_TRUE(WritePage(0).ok());  // matching call #1 succeeds
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(ReadPage(0).ok()) << "reads are exempt";
  }
  EXPECT_FALSE(WritePage(0).ok()) << "second write fails";
}

TEST_F(FaultModelTest, OpPrefixFilterMatchesLabeledCallsOnly) {
  FaultSpec fault;
  fault.after_calls = 0;
  fault.op_prefix = "esm.";
  disk_.ArmFault(fault);

  // Unlabeled and differently-labeled calls pass through.
  ASSERT_TRUE(WritePage(0).ok());
  disk_.set_current_op("starburst.append");
  ASSERT_TRUE(WritePage(1).ok());
  // A matching label trips it immediately.
  disk_.set_current_op("esm.append");
  EXPECT_FALSE(WritePage(2).ok());
  disk_.set_current_op(nullptr);
}

TEST_F(FaultModelTest, PageRangeFilterMatchesIntersectingCalls) {
  FaultSpec fault;
  fault.after_calls = 0;
  fault.match_range = true;
  fault.area = area_;
  fault.first_page = 10;
  fault.last_page = 12;
  disk_.ArmFault(fault);

  ASSERT_TRUE(WritePage(0, 4).ok()) << "disjoint run below the range";
  ASSERT_TRUE(WritePage(13, 2).ok()) << "disjoint run above the range";
  const AreaId other = disk_.CreateArea();
  ASSERT_TRUE(WritePages(&disk_, other, 11, 1, buf_.data()).ok())
      << "same pages, different area";
  EXPECT_FALSE(WritePage(8, 4).ok()) << "run [8,12) intersects [10,12]";
}

TEST_F(FaultModelTest, SuspendedCallsNeitherFireNorAdvance) {
  // UnmeteredSection exemption: suspended calls always succeed — even
  // with a due sticky fault armed — and advance no countdown.
  FaultSpec fault;
  fault.kind = FaultKind::kSticky;
  fault.after_calls = 1;
  disk_.ArmFault(fault);

  ASSERT_TRUE(WritePage(0).ok());
  disk_.SuspendAttribution();
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(WritePage(1).ok()) << "suspended calls always succeed";
  }
  EXPECT_EQ(disk_.foreground_calls(), 1u)
      << "suspended calls do not advance the foreground clock";
  disk_.ResumeAttribution();
  EXPECT_FALSE(WritePage(1).ok()) << "fault is still due once resumed";
}

TEST_F(FaultModelTest, ForegroundCallsCountsSuccessesOnly) {
  ASSERT_TRUE(WritePage(0).ok());
  ASSERT_TRUE(ReadPage(0).ok());
  EXPECT_EQ(disk_.foreground_calls(), 2u);
  // Countdowns are relative to arming, wherever the global clock stands:
  // after_calls == 0 fails the very next call.
  FaultSpec fault;
  fault.after_calls = 0;
  disk_.ArmFault(fault);
  EXPECT_FALSE(WritePage(1).ok());
  EXPECT_EQ(disk_.foreground_calls(), 2u) << "failed calls do not count";
  EXPECT_TRUE(WritePage(1).ok());
  EXPECT_EQ(disk_.foreground_calls(), 3u);
}

TEST(FaultModelSystemTest, UnmeteredSectionIsExemptEndToEnd) {
  // The StorageSystem-level wrapper used by fsck and the audits: a due
  // sticky fault must not leak into an UnmeteredSection's I/O.
  StorageSystem sys;
  std::vector<char> buf(sys.config().page_size);
  const AreaId area = sys.disk()->num_areas() - 1;
  FaultSpec fault;
  fault.kind = FaultKind::kSticky;
  fault.after_calls = 0;
  sys.disk()->ArmFault(fault);
  {
    StorageSystem::UnmeteredSection unmetered(&sys);
    EXPECT_TRUE(WritePages(sys.disk(), area, 0, 1, buf.data()).ok());
    EXPECT_TRUE(ReadPages(sys.disk(), area, 0, 1, buf.data()).ok());
  }
  EXPECT_FALSE(WritePages(sys.disk(), area, 0, 1, buf.data()).ok());
  sys.disk()->ClearFaults();
}

}  // namespace
}  // namespace lob
