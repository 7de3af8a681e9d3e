// Fsck self-tests: clean systems report clean, and each seeded
// corruption class is detected with a precise diagnostic. Corruptions
// are planted by editing page images through the buffer pool (the same
// path the engines use), never through engine APIs — fsck must catch
// damage the engines did not inflict themselves.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>

#include "check/fsck.h"
#include "common/logging.h"
#include "common/rng.h"
#include "core/database.h"
#include "core/factory.h"
#include "core/storage_system.h"
#include "lobtree/node_layout.h"

namespace lob {
namespace {

std::string Pattern(uint64_t seed, size_t n) {
  std::string out(n, '\0');
  Rng rng(seed);
  for (auto& c : out) c = static_cast<char>('a' + rng.Uniform(0, 25));
  return out;
}

uint32_t LoadU32At(const char* p, size_t off) {
  uint32_t v;
  std::memcpy(&v, p + off, 4);
  return v;
}

class FsckTest : public ::testing::Test {
 protected:
  std::unique_ptr<LargeObjectManager> MakeManager(int engine) {
    switch (engine) {
      case 0:
        return CreateEsmManager(&sys_, 4);
      case 1:
        return CreateStarburstManager(&sys_);
      default:
        return CreateEosManager(&sys_, 4);
    }
  }

  /// Creates an object and loads it with a multi-segment byte pattern.
  ObjectId Build(LargeObjectManager* mgr) {
    auto id = mgr->Create();
    LOB_CHECK_OK(id.status());
    LOB_CHECK_OK(mgr->Append(*id, Pattern(11, 3000)));
    LOB_CHECK_OK(mgr->Append(*id, Pattern(12, 9000)));
    LOB_CHECK_OK(mgr->Append(*id, Pattern(13, 20000)));
    LOB_CHECK_OK(sys_.FlushAll());
    return *id;
  }

  /// Edits `n` bytes at `off` within a meta-area page image, through the
  /// pool (the same path the engines write through).
  void PokePage(PageId page, size_t off, const void* bytes, size_t n) {
    auto g = sys_.pool()->FixPage(sys_.meta_area()->id(), page, FixMode::kRead);
    LOB_CHECK_OK(g.status());
    std::memcpy(g->mutable_data() + off, bytes, n);
    g->MarkDirty();
    g->Release();
    LOB_CHECK_OK(sys_.pool()->FlushRun(sys_.meta_area()->id(), page, 1));
  }

  void PokeU32(PageId page, size_t off, uint32_t v) {
    PokePage(page, off, &v, 4);
  }

  uint32_t PeekU32(PageId page, size_t off) {
    auto g = sys_.pool()->FixPage(sys_.meta_area()->id(), page, FixMode::kRead);
    LOB_CHECK_OK(g.status());
    return LoadU32At(g->data(), off);
  }

  StorageSystem sys_;
};

TEST_F(FsckTest, CleanSystemsReportClean) {
  for (int engine = 0; engine < 3; ++engine) {
    StorageSystem sys;
    std::unique_ptr<LargeObjectManager> mgr;
    switch (engine) {
      case 0:
        mgr = CreateEsmManager(&sys, 4);
        break;
      case 1:
        mgr = CreateStarburstManager(&sys);
        break;
      default:
        mgr = CreateEosManager(&sys, 4);
        break;
    }
    auto id = mgr->Create();
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(mgr->Append(*id, Pattern(1, 50000)).ok());
    ASSERT_TRUE(mgr->Insert(*id, 7000, Pattern(2, 5000)).ok());
    ASSERT_TRUE(mgr->Delete(*id, 20000, 8000).ok());
    ASSERT_TRUE(mgr->Replace(*id, 100, Pattern(3, 4000)).ok());

    auto report = FsckObjects(&sys, {{*id, mgr.get()}});
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->clean())
        << "engine " << engine << ":\n" << report->ToString();
  }
}

// Fixture 1: an extent the allocator holds but no object references.
TEST_F(FsckTest, OrphanedExtentReportedAsLeak) {
  auto mgr = MakeManager(0);
  const ObjectId id = Build(mgr.get());

  auto orphan = sys_.leaf_area()->Allocate(4);
  ASSERT_TRUE(orphan.ok());

  auto report = FsckObjects(&sys_, {{id, mgr.get()}});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->HasLeaks());
  EXPECT_FALSE(report->HasCorruption())
      << "a leak is waste, not structural damage:\n" << report->ToString();
  ASSERT_EQ(report->issues.size(), 1u) << report->ToString();
  const FsckIssue& issue = report->issues[0];
  EXPECT_EQ(issue.kind, FsckIssueKind::kLeakedExtent);
  EXPECT_EQ(issue.area, sys_.leaf_area()->id());
  EXPECT_EQ(issue.page, orphan->first_page) << "diagnostic names the extent";
  EXPECT_EQ(issue.pages, orphan->pages);

  // Freeing the orphan restores a clean report.
  ASSERT_TRUE(sys_.leaf_area()->Free(*orphan).ok());
  report = FsckObjects(&sys_, {{id, mgr.get()}});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean()) << report->ToString();
}

// Fixture 2: two objects claiming the same page. Planted by repointing
// object B's first descriptor slot at object A's first segment.
TEST_F(FsckTest, DoubleAllocatedPageDetected) {
  auto mgr = MakeManager(1);
  const ObjectId a = Build(mgr.get());
  const ObjectId b = Build(mgr.get());

  // Starburst descriptor layout: magic, used_bytes, first_pages,
  // last_alloc_pages, nsegs, then the pointer array at byte 20.
  const uint32_t a_seg0 = PeekU32(a, 20);
  PokeU32(b, 20, a_seg0);

  auto report = FsckObjects(&sys_, {{a, mgr.get()}, {b, mgr.get()}});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->HasCorruption());
  bool found = false;
  for (const FsckIssue& issue : report->issues) {
    if (issue.kind != FsckIssueKind::kDoubleAllocated) continue;
    found = true;
    EXPECT_EQ(issue.page, a_seg0);
    EXPECT_NE(issue.detail.find("claimed by"), std::string::npos)
        << issue.detail;
  }
  EXPECT_TRUE(found) << "expected a double-allocated issue:\n"
                     << report->ToString();
  // B's original first segment is now unreferenced: also a leak.
  EXPECT_TRUE(report->HasLeaks()) << report->ToString();
}

// Fixture 3: Starburst descriptor whose byte count violates the
// last-segment allocation bound (the "last segment is trimmed" rule;
// middle-segment sizes are implicit in the doubling pattern, so the
// descriptor's seedable lie is the last-segment bound).
TEST_F(FsckTest, StarburstLastSegmentBoundViolationDetected) {
  auto mgr = MakeManager(1);
  const ObjectId id = Build(mgr.get());

  // Inflate used_bytes past what the last segment's allocation can hold.
  const uint32_t used = PeekU32(id, 4);
  const uint32_t last_alloc = PeekU32(id, 12);
  PokeU32(id, 4, used + last_alloc * sys_.config().page_size + 1);

  auto report = FsckObjects(&sys_, {{id, mgr.get()}});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->HasCorruption());
  ASSERT_FALSE(report->issues.empty());
  const FsckIssue& issue = report->issues[0];
  EXPECT_EQ(issue.kind, FsckIssueKind::kStructure);
  EXPECT_EQ(issue.object, id);
  EXPECT_NE(issue.detail.find("last segment bytes exceed allocation"),
            std::string::npos)
      << issue.detail;
}

// Fixture 4: EOS threshold-T violation. A freshly appended object
// legitimately carries sub-threshold doubling segments, so the audit is
// opt-in: default options stay clean, the threshold audit flags the
// small adjacent pair.
TEST_F(FsckTest, EosThresholdAuditIsOptIn) {
  auto mgr = MakeManager(2);
  auto id = mgr->Create();
  ASSERT_TRUE(id.ok());
  // Doubling appends: segments of 1, 2, 4 pages — the (1, 2) pair is
  // mergeable and below T = 4 pages.
  const uint32_t ps = sys_.config().page_size;
  ASSERT_TRUE(mgr->Append(*id, Pattern(21, ps)).ok());
  ASSERT_TRUE(mgr->Append(*id, Pattern(22, 2 * ps)).ok());
  ASSERT_TRUE(mgr->Append(*id, Pattern(23, 4 * ps)).ok());

  auto report = FsckObjects(&sys_, {{*id, mgr.get()}});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean())
      << "default options must not audit thresholds:\n" << report->ToString();

  FsckOptions options;
  options.eos_threshold_pages = 4;
  report = FsckObjects(&sys_, {{*id, mgr.get()}}, {}, options);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->HasCorruption());
  ASSERT_FALSE(report->issues.empty());
  EXPECT_EQ(report->issues[0].kind, FsckIssueKind::kStructure);
  EXPECT_NE(report->issues[0].detail.find("threshold"), std::string::npos)
      << report->issues[0].detail;
}

// Fixture 5: wrong tree count. An ESM root whose rightmost cumulative
// count lies about the last leaf's bytes.
TEST_F(FsckTest, WrongEsmTreeCountDetected) {
  auto mgr = MakeManager(0);
  const ObjectId id = Build(mgr.get());

  {
    auto g =
        sys_.pool()->FixPage(sys_.meta_area()->id(), id, FixMode::kRead);
    ASSERT_TRUE(g.ok());
    NodeView root(g->mutable_data(), sys_.config().page_size, /*is_root=*/true);
    ASSERT_GT(root.npairs(), 0u);
    const uint32_t last = root.npairs() - 1;
    // Push the last leaf's implied byte count past the leaf capacity
    // (4 pages): the counts no longer match the leaf contents.
    root.SetCount(last, root.Count(last) + 5 * sys_.config().page_size);
    g->MarkDirty();
    g->Release();
    ASSERT_TRUE(sys_.pool()->FlushRun(sys_.meta_area()->id(), id, 1).ok());
  }

  auto report = FsckObjects(&sys_, {{id, mgr.get()}});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->HasCorruption());
  bool found = false;
  for (const FsckIssue& issue : report->issues) {
    if (issue.kind != FsckIssueKind::kStructure) continue;
    found = true;
    EXPECT_EQ(issue.object, id);
    EXPECT_NE(issue.detail.find("ESM"), std::string::npos) << issue.detail;
  }
  EXPECT_TRUE(found) << "expected a structure issue:\n" << report->ToString();
}

TEST_F(FsckTest, ReportToStringIsOneLinePerIssue) {
  auto mgr = MakeManager(0);
  const ObjectId id = Build(mgr.get());
  auto orphan = sys_.leaf_area()->Allocate(2);
  ASSERT_TRUE(orphan.ok());
  auto report = FsckObjects(&sys_, {{id, mgr.get()}});
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->issues.size(), 1u);
  const std::string text = report->ToString();
  EXPECT_NE(text.find("leaked-extent"), std::string::npos) << text;
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 1);
}

TEST_F(FsckTest, FsckDoesNotPerturbMeteredCosts) {
  auto mgr = MakeManager(1);
  const ObjectId id = Build(mgr.get());
  const IoStats before = sys_.stats();
  auto report = FsckObjects(&sys_, {{id, mgr.get()}});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean()) << report->ToString();
  EXPECT_EQ(sys_.stats().read_calls, before.read_calls);
  EXPECT_EQ(sys_.stats().write_calls, before.write_calls);
}

/// A database of 50 objects over all three engines: more roots than the
/// 12-frame pool holds, so walking them must read from disk.
std::unique_ptr<Database> FiftyObjectDatabase() {
  auto db = Database::Create();
  LOB_CHECK_OK(db.status());
  const Engine engines[] = {Engine::kEsm, Engine::kStarburst, Engine::kEos};
  for (int i = 0; i < 50; ++i) {
    auto id = (*db)->CreateObject("obj" + std::to_string(i), engines[i % 3]);
    LOB_CHECK_OK(id.status());
    auto mgr = (*db)->ManagerForObject(*id);
    LOB_CHECK_OK(mgr.status());
    LOB_CHECK_OK((*mgr)->Append(*id, Pattern(static_cast<uint64_t>(i), 9000)));
  }
  return std::move(*db);
}

TEST(FsckDatabaseTest, LeavesStatsAndLedgerUnchanged) {
  auto db = FiftyObjectDatabase();
  const IoStats before = db->sys()->stats();
  const std::string ledger = db->sys()->obs()->ToCsv();
  auto report = FsckDatabase(db.get());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->clean()) << report->ToString();
  const IoStats after = db->sys()->stats();
  EXPECT_EQ(after.read_calls, before.read_calls);
  EXPECT_EQ(after.write_calls, before.write_calls);
  EXPECT_EQ(after.pages_read, before.pages_read);
  EXPECT_EQ(after.pages_written, before.pages_written);
  EXPECT_EQ(after.ms, before.ms);
  EXPECT_EQ(db->sys()->obs()->ToCsv(), ledger);
}

TEST(FsckDatabaseTest, CleanWithStickyReadFaultArmed) {
  auto db = FiftyObjectDatabase();
  FaultSpec reads;
  reads.kind = FaultKind::kSticky;
  reads.match_writes = false;
  db->sys()->disk()->ArmFault(reads);
  auto report = FsckDatabase(db.get());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->clean()) << report->ToString();
  EXPECT_EQ(db->sys()->disk()->faults_fired(), 0u);
}

}  // namespace
}  // namespace lob
