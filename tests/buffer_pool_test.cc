#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "buffer/buffer_pool.h"
#include "common/rng.h"
#include "disk_test_util.h"
#include "iomodel/sim_disk.h"

namespace lob {
namespace {

class BufferPoolTest : public ::testing::Test {
 protected:
  BufferPoolTest() : disk_(cfg_), pool_(&disk_, cfg_) { area_ = disk_.CreateArea(); }

  // Writes `pages` pages of recognizable content directly to disk.
  void Seed(PageId first, uint32_t pages) {
    std::vector<char> buf(static_cast<size_t>(pages) * 4096);
    for (size_t i = 0; i < buf.size(); ++i) {
      buf[i] = static_cast<char>('a' + (first * 4096 + i) % 23);
    }
    ASSERT_TRUE(WritePages(&disk_, area_, first, pages, buf.data()).ok());
    disk_.ResetStats();
  }

  char ExpectedByte(uint64_t abs_byte) const {
    return static_cast<char>('a' + abs_byte % 23);
  }

  StorageConfig cfg_;
  SimDisk disk_;
  BufferPool pool_;
  AreaId area_ = 0;
};

TEST_F(BufferPoolTest, FixMissThenHit) {
  Seed(0, 1);
  {
    auto g = pool_.FixPage(area_, 0, FixMode::kRead);
    ASSERT_TRUE(g.ok());
    EXPECT_EQ(g->data()[0], ExpectedByte(0));
  }
  EXPECT_EQ(disk_.stats().read_calls, 1u);
  {
    auto g = pool_.FixPage(area_, 0, FixMode::kRead);
    ASSERT_TRUE(g.ok());
  }
  EXPECT_EQ(disk_.stats().read_calls, 1u) << "second fix must be a hit";
  EXPECT_EQ(pool_.hits(), 1u);
  EXPECT_EQ(pool_.misses(), 1u);
}

TEST_F(BufferPoolTest, NewPageDoesNoRead) {
  auto g = pool_.FixPage(area_, 7, FixMode::kNew);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(disk_.stats().read_calls, 0u);
  EXPECT_EQ(g->data()[100], 0);
}

TEST_F(BufferPoolTest, DirtyPageWrittenBackOnEviction) {
  // Fill the pool with 12 distinct dirty pages, then fix a 13th: the LRU
  // one must be written back.
  for (PageId p = 0; p < 12; ++p) {
    auto g = pool_.FixPage(area_, p, FixMode::kNew);
    ASSERT_TRUE(g.ok());
    g->mutable_data()[0] = static_cast<char>(p + 1);
    g->MarkDirty();
  }
  EXPECT_EQ(disk_.stats().write_calls, 0u);
  auto g = pool_.FixPage(area_, 100, FixMode::kNew);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(disk_.stats().write_calls, 1u);
  std::vector<char> buf(4096);
  ASSERT_TRUE(ReadPages(&disk_, area_, 0, 1, buf.data()).ok());
  EXPECT_EQ(buf[0], 1) << "page 0 (the LRU victim) must be on disk";
}

TEST_F(BufferPoolTest, CleanVictimsPreferredOverDirty) {
  // 11 dirty pages + 1 clean page; the clean one must be evicted first
  // even though it is not the least recently used.
  Seed(50, 1);
  for (PageId p = 0; p < 11; ++p) {
    auto g = pool_.FixPage(area_, p, FixMode::kNew);
    ASSERT_TRUE(g.ok());
    g->MarkDirty();
  }
  { auto g = pool_.FixPage(area_, 50, FixMode::kRead); ASSERT_TRUE(g.ok()); }
  disk_.ResetStats();
  { auto g = pool_.FixPage(area_, 99, FixMode::kNew); ASSERT_TRUE(g.ok()); }
  EXPECT_EQ(disk_.stats().write_calls, 0u) << "clean page 50 evicted for free";
  EXPECT_FALSE(pool_.IsCached(area_, 50));
}

TEST_F(BufferPoolTest, AllPinnedFailsGracefully) {
  std::vector<PageGuard> guards;
  for (PageId p = 0; p < 12; ++p) {
    auto g = pool_.FixPage(area_, p, FixMode::kNew);
    ASSERT_TRUE(g.ok());
    guards.push_back(std::move(*g));
  }
  auto g = pool_.FixPage(area_, 100, FixMode::kNew);
  EXPECT_EQ(g.status().code(), StatusCode::kNoSpace);
}

TEST_F(BufferPoolTest, SmallSegmentReadIsOneCallAndBuffered) {
  Seed(0, 4);
  std::vector<char> out(4 * 4096);
  // 4-page segment, whole read: at most max_pool_segment_pages -> buffered
  // in a single I/O call.
  ASSERT_TRUE(
      pool_.ReadSegmentRange(area_, 0, 4 * 4096, 0, 4 * 4096, out.data()).ok());
  EXPECT_EQ(disk_.stats().read_calls, 1u);
  EXPECT_EQ(disk_.stats().pages_read, 4u);
  EXPECT_DOUBLE_EQ(disk_.stats().ms, 33 + 16);
  for (uint64_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], ExpectedByte(i));
  }
  // All four pages now cached: re-read costs nothing.
  disk_.ResetStats();
  ASSERT_TRUE(
      pool_.ReadSegmentRange(area_, 0, 4 * 4096, 100, 5000, out.data()).ok());
  EXPECT_EQ(disk_.stats().read_calls, 0u);
}

TEST_F(BufferPoolTest, LargeSegmentReadBypassesPool) {
  Seed(0, 8);
  std::vector<char> out(8 * 4096);
  ASSERT_TRUE(
      pool_.ReadSegmentRange(area_, 0, 8 * 4096, 0, 8 * 4096, out.data()).ok());
  // Aligned large read: one direct call, nothing cached.
  EXPECT_EQ(disk_.stats().read_calls, 1u);
  EXPECT_EQ(disk_.stats().pages_read, 8u);
  for (PageId p = 0; p < 8; ++p) EXPECT_FALSE(pool_.IsCached(area_, p));
  for (uint64_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], ExpectedByte(i));
  }
}

TEST_F(BufferPoolTest, ThreeStepIoOnBoundaryMismatch) {
  // Paper Figure 4: a byte range inside an 8-page segment starting and
  // ending mid-page. First and last blocks travel through the pool; the
  // middle blocks go directly to the caller's buffer.
  Seed(0, 8);
  const uint64_t off = 1000;
  const uint64_t len = 6 * 4096;  // ends mid-page 6
  std::vector<char> out(len);
  ASSERT_TRUE(pool_.ReadSegmentRange(area_, 0, 8 * 4096, off, len, out.data())
                  .ok());
  // 3 calls: page 0 (via pool), pages 1..5 (direct), page 6 (via pool).
  EXPECT_EQ(disk_.stats().read_calls, 3u);
  EXPECT_EQ(disk_.stats().pages_read, 7u);
  EXPECT_TRUE(pool_.IsCached(area_, 0));
  EXPECT_TRUE(pool_.IsCached(area_, 6));
  EXPECT_FALSE(pool_.IsCached(area_, 3));
  for (uint64_t i = 0; i < len; ++i) {
    ASSERT_EQ(out[i], ExpectedByte(off + i));
  }
}

TEST_F(BufferPoolTest, SmallWriteStaysDirtyUntilFlushRun) {
  std::string data(2 * 4096, 'Q');
  ASSERT_TRUE(
      pool_.WriteSegmentRange(area_, 0, 0, 0, data.size(), data.data()).ok());
  EXPECT_EQ(disk_.stats().write_calls, 0u) << "write staged in the pool";
  EXPECT_TRUE(pool_.IsDirty(area_, 0));
  EXPECT_TRUE(pool_.IsDirty(area_, 1));
  ASSERT_TRUE(pool_.FlushRun(area_, 0, 2).ok());
  EXPECT_EQ(disk_.stats().write_calls, 1u) << "one sequential call";
  EXPECT_EQ(disk_.stats().pages_written, 2u);
  std::vector<char> buf(2 * 4096);
  ASSERT_TRUE(ReadPages(&disk_, area_, 0, 2, buf.data()).ok());
  EXPECT_EQ(buf[0], 'Q');
  EXPECT_EQ(buf[2 * 4096 - 1], 'Q');
}

TEST_F(BufferPoolTest, LargeWriteGoesDirectInOneCall) {
  std::string data(6 * 4096, 'Z');
  ASSERT_TRUE(
      pool_.WriteSegmentRange(area_, 0, 0, 0, data.size(), data.data()).ok());
  EXPECT_EQ(disk_.stats().write_calls, 1u);
  EXPECT_EQ(disk_.stats().pages_written, 6u);
  std::vector<char> buf(4096);
  ASSERT_TRUE(ReadPages(&disk_, area_, 5, 1, buf.data()).ok());
  EXPECT_EQ(buf[0], 'Z');
}

TEST_F(BufferPoolTest, PartialWritePreservesValidBytes) {
  // Write bytes 100..200 of a page holding 300 valid bytes: a
  // read-modify-write must preserve bytes outside the written interval.
  std::string initial(300, 'A');
  ASSERT_TRUE(
      pool_.WriteSegmentRange(area_, 0, 0, 0, initial.size(), initial.data())
          .ok());
  ASSERT_TRUE(pool_.FlushRun(area_, 0, 1).ok());
  ASSERT_TRUE(pool_.Invalidate(area_, 0, 1).ok());
  disk_.ResetStats();

  std::string patch(100, 'B');
  ASSERT_TRUE(
      pool_.WriteSegmentRange(area_, 0, 300, 100, patch.size(), patch.data())
          .ok());
  EXPECT_EQ(disk_.stats().read_calls, 1u) << "read-modify-write";
  ASSERT_TRUE(pool_.FlushRun(area_, 0, 1).ok());
  std::vector<char> buf(4096);
  ASSERT_TRUE(ReadPages(&disk_, area_, 0, 1, buf.data()).ok());
  EXPECT_EQ(buf[0], 'A');
  EXPECT_EQ(buf[99], 'A');
  EXPECT_EQ(buf[100], 'B');
  EXPECT_EQ(buf[199], 'B');
  EXPECT_EQ(buf[200], 'A');
  EXPECT_EQ(buf[299], 'A');
}

TEST_F(BufferPoolTest, AppendBeyondValidBytesAvoidsRead) {
  // Appending to a segment whose written pages are already flushed and
  // evicted: pages fully past seg_valid_bytes need no read.
  std::string data(4096, 'C');
  ASSERT_TRUE(
      pool_.WriteSegmentRange(area_, 0, 0, 4096, data.size(), data.data())
          .ok());
  EXPECT_EQ(disk_.stats().read_calls, 0u)
      << "page 1 holds no valid bytes -> no read-modify-write";
}

TEST_F(BufferPoolTest, ReadPastValidBytesRejected) {
  std::vector<char> out(10);
  Status s = pool_.ReadSegmentRange(area_, 0, 100, 95, 10, out.data());
  EXPECT_EQ(s.code(), StatusCode::kOutOfRange);
}

TEST_F(BufferPoolTest, UnbufferedWriteKeepsCachedCopiesCoherent) {
  Seed(0, 8);
  // Cache page 0 via a small read.
  std::vector<char> tmp(4096);
  ASSERT_TRUE(pool_.ReadSegmentRange(area_, 0, 8 * 4096, 0, 4096, tmp.data())
                  .ok());
  ASSERT_TRUE(pool_.IsCached(area_, 0));
  // Large direct write overwrites pages 0..5.
  std::string data(6 * 4096, 'W');
  ASSERT_TRUE(
      pool_.WriteSegmentRange(area_, 0, 8 * 4096, 0, data.size(), data.data())
          .ok());
  // The cached copy of page 0 must now show the new content.
  disk_.ResetStats();
  ASSERT_TRUE(pool_.ReadSegmentRange(area_, 0, 8 * 4096, 0, 4096, tmp.data())
                  .ok());
  EXPECT_EQ(disk_.stats().read_calls, 0u);
  EXPECT_EQ(tmp[0], 'W');
}

TEST_F(BufferPoolTest, DirectReadFlushesOverlappingDirtyPages) {
  // A dirty cached page inside the middle of a large direct read must be
  // written back first so the direct read sees current bytes.
  std::string page(4096, 'D');
  ASSERT_TRUE(
      pool_.WriteSegmentRange(area_, 3, 0, 0, page.size(), page.data()).ok());
  ASSERT_TRUE(pool_.IsDirty(area_, 3));
  std::vector<char> out(8 * 4096);
  ASSERT_TRUE(
      pool_.ReadSegmentRange(area_, 0, 8 * 4096, 0, 8 * 4096, out.data()).ok());
  EXPECT_EQ(out[3 * 4096], 'D');
}

TEST_F(BufferPoolTest, FlushAllWritesEveryDirtyPage) {
  for (PageId p : {2u, 3u, 9u}) {
    auto g = pool_.FixPage(area_, p, FixMode::kNew);
    ASSERT_TRUE(g.ok());
    g->mutable_data()[0] = 'F';
    g->MarkDirty();
  }
  ASSERT_TRUE(pool_.FlushAll().ok());
  // Pages 2,3 contiguous -> one call; page 9 -> another.
  EXPECT_EQ(disk_.stats().write_calls, 2u);
  EXPECT_EQ(disk_.stats().pages_written, 3u);
  EXPECT_FALSE(pool_.IsDirty(area_, 2));
}

TEST_F(BufferPoolTest, InvalidateDropsWithoutWriteback) {
  auto g = pool_.FixPage(area_, 4, FixMode::kNew);
  ASSERT_TRUE(g.ok());
  g->MarkDirty();
  g->Release();
  ASSERT_TRUE(pool_.Invalidate(area_, 4, 1).ok());
  EXPECT_EQ(disk_.stats().write_calls, 0u);
  EXPECT_FALSE(pool_.IsCached(area_, 4));
}

TEST_F(BufferPoolTest, WindowRefetchLeavesOneFramePerPage) {
  // The pool finds a page by scanning its frames, so a page must never
  // have two valid frames. A buffered read whose run is partly cached
  // refetches the whole run into a window of frames; it must drop the
  // cached copies first (writing the dirty one back once), or they would
  // survive beside the window.
  Seed(0, 4);
  for (PageId p = 100; p < 104; ++p) {  // fill frames 0-3: the window
    ASSERT_TRUE(pool_.FixPage(area_, p, FixMode::kNew).ok());
  }
  ASSERT_TRUE(pool_.FixPage(area_, 1, FixMode::kRead).ok());  // frame 4
  {
    auto g = pool_.FixPage(area_, 2, FixMode::kRead);  // frame 5
    ASSERT_TRUE(g.ok());
    g->mutable_data()[0] = 'Z';
    g->MarkDirty();
  }
  disk_.ResetStats();

  std::vector<char> out(4 * 4096);
  ASSERT_TRUE(
      pool_.ReadSegmentRange(area_, 0, 4 * 4096, 0, 4 * 4096, out.data()).ok());
  EXPECT_EQ(disk_.stats().read_calls, 1u) << "one refetch of the whole run";
  EXPECT_EQ(out[2 * 4096], 'Z') << "dirty page written back before refetch";
  ASSERT_TRUE(pool_.FlushAll().ok());
  EXPECT_EQ(disk_.stats().write_calls, 1u);
  EXPECT_EQ(disk_.stats().pages_written, 1u) << "written back exactly once";

  const uint64_t hits = pool_.hits();
  for (PageId p = 0; p < 4; ++p) {
    ASSERT_TRUE(pool_.FixPage(area_, p, FixMode::kRead).ok());
  }
  EXPECT_EQ(pool_.hits(), hits + 4);
  EXPECT_EQ(disk_.stats().read_calls, 1u);

  ASSERT_TRUE(pool_.Invalidate(area_, 0, 4).ok());
  for (PageId p = 0; p < 4; ++p) {
    EXPECT_FALSE(pool_.IsCached(area_, p)) << "page " << p;
  }
}

TEST_F(BufferPoolTest, RunLoadFallsBackWhenWindowUnavailable) {
  // Pin 10 of the 12 frames with alternating pages so no 4-slot window of
  // unpinned frames exists; a 4-page buffered read must fall back to
  // page-at-a-time fetching (4 seeks) yet still return correct bytes.
  Seed(100, 4);
  std::vector<PageGuard> pins;
  for (PageId p = 0; p < 10; ++p) {
    auto g = pool_.FixPage(area_, 200 + p, FixMode::kNew);
    ASSERT_TRUE(g.ok());
    pins.push_back(std::move(*g));
  }
  disk_.ResetStats();
  std::vector<char> out(4 * 4096);
  ASSERT_TRUE(
      pool_.ReadSegmentRange(area_, 100, 4 * 4096, 0, 4 * 4096, out.data())
          .ok());
  EXPECT_GE(disk_.stats().read_calls, 2u) << "fallback costs extra seeks";
  for (uint64_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], ExpectedByte(100 * 4096 + i));
  }
}

TEST_F(BufferPoolTest, WriteFreshSegmentIsOneCallAndCoherent) {
  // Cache page 7, then write a fresh 3-page segment covering it: one I/O
  // call, and the cached copy must show the new bytes.
  Seed(7, 1);
  { auto g = pool_.FixPage(area_, 7, FixMode::kRead); ASSERT_TRUE(g.ok()); }
  disk_.ResetStats();
  std::string data(3 * 4096 - 100, 'F');
  ASSERT_TRUE(pool_.WriteFreshSegment(area_, 6, data.data(), data.size()).ok());
  EXPECT_EQ(disk_.stats().write_calls, 1u);
  EXPECT_EQ(disk_.stats().pages_written, 3u);
  std::vector<char> out(4096);
  ASSERT_TRUE(pool_.ReadSegmentRange(area_, 7, 4096, 0, 4096, out.data()).ok());
  EXPECT_EQ(disk_.stats().read_calls, 0u) << "still cached";
  EXPECT_EQ(out[0], 'F');
  // Zero padding beyond the content in the final page.
  std::vector<char> page(4096);
  ASSERT_TRUE(ReadPages(&disk_, area_, 8, 1, page.data()).ok());
  EXPECT_EQ(page[4095], 0);
}

TEST_F(BufferPoolTest, FlushRunInterleavedCleanAndEvictedPages) {
  // dirty 0,1 | clean cached 2 | dirty 3,4 | uncached 5 | dirty 6:
  // FlushRun over [0,7) must issue exactly three sequential calls covering
  // the three maximal dirty runs and skip the clean/uncached holes.
  for (PageId p : {0u, 1u, 3u, 4u, 6u}) {
    auto g = pool_.FixPage(area_, p, FixMode::kNew);
    ASSERT_TRUE(g.ok());
    g->mutable_data()[0] = static_cast<char>('a' + p);
    g->MarkDirty();
  }
  {
    auto g = pool_.FixPage(area_, 2, FixMode::kNew);
    ASSERT_TRUE(g.ok());
    g->mutable_data()[0] = 'c';
    g->MarkDirty();
  }
  ASSERT_TRUE(pool_.FlushRun(area_, 2, 1).ok());  // page 2 now clean, cached
  ASSERT_TRUE(pool_.IsCached(area_, 2));
  ASSERT_FALSE(pool_.IsDirty(area_, 2));
  ASSERT_FALSE(pool_.IsCached(area_, 5));
  disk_.ResetStats();

  ASSERT_TRUE(pool_.FlushRun(area_, 0, 7).ok());
  EXPECT_EQ(disk_.stats().write_calls, 3u)
      << "runs {0,1}, {3,4}, {6} -> three seeks";
  EXPECT_EQ(disk_.stats().pages_written, 5u);
  for (PageId p : {0u, 1u, 3u, 4u, 6u}) {
    EXPECT_FALSE(pool_.IsDirty(area_, p)) << "page " << p;
    std::vector<char> buf(4096);
    ASSERT_TRUE(ReadPages(&disk_, area_, p, 1, buf.data()).ok());
    EXPECT_EQ(buf[0], static_cast<char>('a' + p)) << "page " << p;
  }
  // A second FlushRun over the same range finds everything clean.
  disk_.ResetStats();
  ASSERT_TRUE(pool_.FlushRun(area_, 0, 7).ok());
  EXPECT_EQ(disk_.stats().write_calls, 0u);
}

TEST_F(BufferPoolTest, FlushRunAllCleanOrUncachedWritesNothing) {
  Seed(30, 2);
  {
    auto g = pool_.FixPage(area_, 30, FixMode::kRead);
    ASSERT_TRUE(g.ok());
  }
  disk_.ResetStats();
  ASSERT_TRUE(pool_.FlushRun(area_, 28, 6).ok());
  EXPECT_EQ(disk_.stats().write_calls, 0u)
      << "clean cached and uncached pages alike cost nothing";
}

// Property: random reads/writes through the pool match a byte-array model.
TEST_F(BufferPoolTest, RandomOpsMatchReferenceModel) {
  const uint64_t kSegPages = 16;
  const uint64_t kBytes = kSegPages * 4096;
  std::string model(kBytes, '\0');
  Rng rng(42);
  uint64_t valid = 0;
  for (int step = 0; step < 400; ++step) {
    const bool do_write = valid == 0 || rng.Bernoulli(0.5);
    if (do_write) {
      // Grow-or-overwrite write at a random offset <= valid.
      uint64_t off = rng.Uniform(0, valid);
      uint64_t len = rng.Uniform(1, 9000);
      if (off + len > kBytes) len = kBytes - off;
      if (len == 0) continue;
      std::string data(len, '\0');
      for (auto& c : data) c = static_cast<char>('A' + rng.Uniform(0, 25));
      ASSERT_TRUE(pool_
                      .WriteSegmentRange(area_, 0, valid, off, len,
                                         data.data())
                      .ok());
      model.replace(off, len, data);
      valid = std::max(valid, off + len);
      ASSERT_TRUE(pool_.FlushRun(area_, 0, kSegPages).ok());
    } else {
      uint64_t off = rng.Uniform(0, valid - 1);
      uint64_t len = rng.Uniform(1, valid - off);
      std::vector<char> out(len);
      ASSERT_TRUE(
          pool_.ReadSegmentRange(area_, 0, valid, off, len, out.data()).ok());
      ASSERT_EQ(std::memcmp(out.data(), model.data() + off, len), 0)
          << "step " << step << " off " << off << " len " << len;
    }
  }
}

// ------------------------------------------------- deterministic iteration
//
// The order pages were fixed in decides which frame each one lands in.
// Nothing may let that slot order reach observable output: FlushAll sorts
// the dirty frames by (area, page), so its I/O sequence must be identical
// for every fix order.

TEST_F(BufferPoolTest, FlushAllIoIndependentOfFixOrder) {
  // Distinct (area, page) keys spread over two areas, fixed in several
  // permuted orders into fresh pools. The pool holds 12 frames; 8 pages
  // are fixed so no eviction perturbs the cached set.
  const AreaId area2 = disk_.CreateArea();
  const std::vector<std::pair<AreaId, PageId>> keys = {
      {area_, 7}, {area_, 2}, {area2, 3}, {area_, 11},
      {area2, 0}, {area_, 4}, {area2, 9}, {area_, 0}};
  const std::vector<std::vector<size_t>> orders = {
      {0, 1, 2, 3, 4, 5, 6, 7},
      {7, 6, 5, 4, 3, 2, 1, 0},
      {3, 0, 7, 4, 1, 6, 2, 5},
      {5, 2, 6, 1, 7, 0, 4, 3}};

  IoStats expected_flush_delta;
  for (size_t variant = 0; variant < orders.size(); ++variant) {
    SimDisk disk(cfg_);
    // Recreate both areas with matching ids on the fresh disk.
    const AreaId a0 = disk.CreateArea();
    const AreaId a1 = disk.CreateArea();
    ASSERT_EQ(a0, area_);
    ASSERT_EQ(a1, area2);
    BufferPool pool(&disk, cfg_);
    for (size_t idx : orders[variant]) {
      auto g = pool.FixPage(keys[idx].first, keys[idx].second, FixMode::kNew);
      ASSERT_TRUE(g.ok());
      // Dirty a deterministic subset (by key, not by insertion position).
      if (keys[idx].second % 2 == 1) g->MarkDirty();
    }
    for (const auto& [area, page] : keys) {
      ASSERT_EQ(pool.IsDirty(area, page), page % 2 == 1);
    }

    // FlushAll's I/O sequence (call count, seeks, pages) must be a pure
    // function of the dirty set, not of the fix order.
    const IoStats before = disk.stats();
    ASSERT_TRUE(pool.FlushAll().ok());
    const IoStats flush_delta = IoStats::Delta(before, disk.stats());

    if (variant == 0) {
      expected_flush_delta = flush_delta;
    } else {
      EXPECT_EQ(flush_delta.write_calls, expected_flush_delta.write_calls)
          << "variant " << variant;
      EXPECT_EQ(flush_delta.pages_written, expected_flush_delta.pages_written)
          << "variant " << variant;
      EXPECT_EQ(flush_delta.Seeks(), expected_flush_delta.Seeks())
          << "variant " << variant;
    }
  }
}

}  // namespace
}  // namespace lob
