// Contract tests for zero-copy page I/O: borrowed PageRef / frame views
// must alias the live disk image, materialize on mutation (copy-on-write),
// survive eviction and SaveState/RestoreState, keep fault injection firing
// on the batched ReadRun/WriteRun entry points, and produce byte-identical
// images and modeled costs with the zero-copy path disabled
// (StorageConfig::pool_zero_copy = false). The pool's frame lookup itself
// is covered by buffer_pool_test.

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "buffer/buffer_pool.h"
#include "disk_test_util.h"
#include "iomodel/sim_disk.h"

namespace lob {
namespace {

StorageConfig SmallConfig() {
  StorageConfig cfg;
  cfg.buffer_pool_pages = 4;
  return cfg;
}

std::vector<char> PageOf(const StorageConfig& cfg, char fill) {
  return std::vector<char>(cfg.page_size, fill);
}

// ---- SimDisk borrowed-view contract ----

TEST(SimDiskZeroCopy, ReadRunAliasesLiveImage) {
  StorageConfig cfg;
  SimDisk disk(cfg);
  const AreaId a = disk.CreateArea();
  auto page = PageOf(cfg, 'a');
  ASSERT_TRUE(WritePages(&disk, a, 0, 1, page.data()).ok());

  PageRef ref;
  ASSERT_TRUE(disk.ReadRun(a, 0, 1, &ref).ok());
  ASSERT_NE(ref.data, nullptr);
  EXPECT_EQ(ref.data, disk.PeekPage(a, 0));  // borrowed, not copied
  EXPECT_EQ(ref.data[0], 'a');

  // The view is live: a later write shows through it.
  page.assign(cfg.page_size, 'b');
  ASSERT_TRUE(WritePages(&disk, a, 0, 1, page.data()).ok());
  EXPECT_EQ(ref.data[0], 'b');
}

TEST(SimDiskZeroCopy, ReadRunNeverWrittenPageIsNull) {
  StorageConfig cfg;
  SimDisk disk(cfg);
  const AreaId a = disk.CreateArea();
  auto page = PageOf(cfg, 'x');
  ASSERT_TRUE(WritePages(&disk, a, 2, 1, page.data()).ok());

  PageRef refs[3];
  ASSERT_TRUE(disk.ReadRun(a, 0, 3, refs).ok());
  EXPECT_EQ(refs[0].data, nullptr);  // reads as zeros
  EXPECT_EQ(refs[1].data, nullptr);
  ASSERT_NE(refs[2].data, nullptr);
  EXPECT_EQ(refs[2].data[0], 'x');
}

TEST(SimDiskZeroCopy, WriteRunGatherZeroFillAndSelfView) {
  StorageConfig cfg;
  SimDisk disk(cfg);
  const AreaId a = disk.CreateArea();
  auto p0 = PageOf(cfg, 'p');
  auto p1 = PageOf(cfg, 'q');
  const char* srcs[2] = {p0.data(), p1.data()};
  MutPageRef imgs[2];
  ASSERT_TRUE(disk.WriteRun(a, 0, 2, srcs, imgs).ok());
  ASSERT_NE(imgs[0].data, nullptr);
  EXPECT_EQ(imgs[0].data, disk.PeekPage(a, 0));
  EXPECT_EQ(imgs[0].data[0], 'p');
  EXPECT_EQ(imgs[1].data[0], 'q');

  // null src = zero-fill; a src aliasing the page's own image = no-op.
  const char* srcs2[2] = {nullptr, imgs[1].data};
  ASSERT_TRUE(disk.WriteRun(a, 0, 2, srcs2).ok());
  EXPECT_EQ(disk.PeekPage(a, 0)[0], '\0');
  EXPECT_EQ(disk.PeekPage(a, 1)[0], 'q');
}

TEST(SimDiskZeroCopy, FaultsFireOnRunCallsWithSameCountdown) {
  // after_calls == 2: exactly two matching calls succeed, the third
  // fails — where a run of N pages is ONE call, exactly as Read/Write.
  StorageConfig cfg;
  SimDisk disk(cfg);
  const AreaId a = disk.CreateArea();
  auto buf = std::vector<char>(2 * cfg.page_size, 'f');
  const char* srcs[2] = {buf.data(), buf.data() + cfg.page_size};

  FaultSpec spec;
  spec.kind = FaultKind::kOneShot;
  spec.after_calls = 2;
  disk.ArmFault(spec);

  ASSERT_TRUE(disk.WriteRun(a, 0, 2, srcs).ok());  // call 1
  PageRef refs[2];
  ASSERT_TRUE(disk.ReadRun(a, 0, 2, refs).ok());   // call 2
  EXPECT_FALSE(disk.ReadRun(a, 0, 2, refs).ok());  // call 3: fault fires
  ASSERT_TRUE(disk.ReadRun(a, 0, 2, refs).ok());   // one-shot: healed
}

TEST(SimDiskZeroCopy, WriteFaultLeavesImageUntouched) {
  StorageConfig cfg;
  SimDisk disk(cfg);
  const AreaId a = disk.CreateArea();
  auto page = PageOf(cfg, 'o');
  ASSERT_TRUE(WritePages(&disk, a, 0, 1, page.data()).ok());

  FaultSpec spec;
  spec.kind = FaultKind::kOneShot;
  spec.match_reads = false;
  disk.ArmFault(spec);
  auto next = PageOf(cfg, 'n');
  const char* srcs[1] = {next.data()};
  ASSERT_FALSE(disk.WriteRun(a, 0, 1, srcs).ok());
  EXPECT_EQ(disk.PeekPage(a, 0)[0], 'o');  // failed write changed nothing
}

// ---- BufferPool copy-on-write contract ----

TEST(BufferPoolZeroCopy, CleanFrameBorrowsDiskImage) {
  StorageConfig cfg = SmallConfig();
  SimDisk disk(cfg);
  BufferPool pool(&disk, cfg);
  const AreaId a = disk.CreateArea();
  auto page = PageOf(cfg, 'z');
  ASSERT_TRUE(WritePages(&disk, a, 0, 1, page.data()).ok());

  auto g = pool.FixPage(a, 0, FixMode::kRead);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->data(), disk.PeekPage(a, 0));  // aliases the image
}

TEST(BufferPoolZeroCopy, MutableViewMaterializesBeforeWriting) {
  StorageConfig cfg = SmallConfig();
  SimDisk disk(cfg);
  BufferPool pool(&disk, cfg);
  const AreaId a = disk.CreateArea();
  auto page = PageOf(cfg, 'c');
  ASSERT_TRUE(WritePages(&disk, a, 0, 1, page.data()).ok());

  auto g = pool.FixPage(a, 0, FixMode::kRead);
  ASSERT_TRUE(g.ok());
  char* m = g->mutable_data();
  EXPECT_NE(m, disk.PeekPage(a, 0));  // private pool copy now
  EXPECT_EQ(m[0], 'c');               // with the image's bytes
  m[0] = 'd';
  g->MarkDirty();
  // Dirty content lives only in the pool until flushed.
  EXPECT_EQ(disk.PeekPage(a, 0)[0], 'c');
  ASSERT_TRUE(pool.FlushRun(a, 0, 1).ok());
  EXPECT_EQ(disk.PeekPage(a, 0)[0], 'd');
}

TEST(BufferPoolZeroCopy, InjectedFlushFaultCannotLeakDirtyBytes) {
  StorageConfig cfg = SmallConfig();
  SimDisk disk(cfg);
  BufferPool pool(&disk, cfg);
  const AreaId a = disk.CreateArea();
  auto page = PageOf(cfg, 'k');
  ASSERT_TRUE(WritePages(&disk, a, 0, 1, page.data()).ok());

  {
    auto g = pool.FixPage(a, 0, FixMode::kRead);
    ASSERT_TRUE(g.ok());
    g->mutable_data()[0] = 'L';
    g->MarkDirty();
  }
  FaultSpec spec;
  spec.kind = FaultKind::kSticky;
  spec.match_reads = false;
  disk.ArmFault(spec);
  EXPECT_FALSE(pool.FlushRun(a, 0, 1).ok());
  // The failed flush must not have leaked the unflushed byte.
  EXPECT_EQ(disk.PeekPage(a, 0)[0], 'k');
  disk.ClearFaults();
  ASSERT_TRUE(pool.FlushRun(a, 0, 1).ok());
  EXPECT_EQ(disk.PeekPage(a, 0)[0], 'L');
}

TEST(BufferPoolZeroCopy, BorrowSurvivesSaveRestoreAcrossEvictions) {
  StorageConfig cfg = SmallConfig();
  SimDisk disk(cfg);
  BufferPool pool(&disk, cfg);
  const AreaId a = disk.CreateArea();
  for (PageId p = 0; p < 8; ++p) {
    auto page = PageOf(cfg, static_cast<char>('A' + p));
    ASSERT_TRUE(WritePages(&disk, a, p, 1, page.data()).ok());
  }
  // Fill the pool with borrowed frames 0..3.
  for (PageId p = 0; p < 4; ++p) {
    auto g = pool.FixPage(a, p, FixMode::kRead);
    ASSERT_TRUE(g.ok());
  }
  BufferPool::State saved = pool.SaveState();

  // A read-only audit walk cycles other pages through the pool,
  // evicting every saved frame.
  for (PageId p = 4; p < 8; ++p) {
    auto g = pool.FixPage(a, p, FixMode::kRead);
    ASSERT_TRUE(g.ok());
    EXPECT_EQ(g->data()[0], 'A' + static_cast<char>(p));
  }
  pool.RestoreState(saved);

  // The restored borrowed frames still serve the right bytes, as hits.
  for (PageId p = 0; p < 4; ++p) {
    EXPECT_TRUE(pool.IsCached(a, p));
    auto g = pool.FixPage(a, p, FixMode::kRead);
    ASSERT_TRUE(g.ok());
    EXPECT_EQ(g->data()[0], 'A' + static_cast<char>(p));
    EXPECT_EQ(g->data(), disk.PeekPage(a, p));
  }
}

TEST(BufferPoolZeroCopy, InvalidateDropsBorrowedFrame) {
  StorageConfig cfg = SmallConfig();
  SimDisk disk(cfg);
  BufferPool pool(&disk, cfg);
  const AreaId a = disk.CreateArea();
  auto page = PageOf(cfg, 'v');
  ASSERT_TRUE(WritePages(&disk, a, 0, 1, page.data()).ok());
  { auto g = pool.FixPage(a, 0, FixMode::kRead); ASSERT_TRUE(g.ok()); }
  ASSERT_TRUE(pool.IsCached(a, 0));
  ASSERT_TRUE(pool.Invalidate(a, 0, 1).ok());
  EXPECT_FALSE(pool.IsCached(a, 0));
}

// ---- Differential: pool_zero_copy on vs off ----

// Drives an identical segment-I/O workload through two pools that differ
// only in pool_zero_copy and demands byte-identical disk images and
// identical modeled costs: borrow-vs-copy must be a wall-clock-only
// concern.
TEST(BufferPoolZeroCopy, DifferentialZeroCopyOnOff) {
  StorageConfig on = SmallConfig();
  on.pool_zero_copy = true;
  StorageConfig off = SmallConfig();
  off.pool_zero_copy = false;

  SimDisk disk_on(on), disk_off(off);
  BufferPool pool_on(&disk_on, on), pool_off(&disk_off, off);
  const AreaId a_on = disk_on.CreateArea();
  const AreaId a_off = disk_off.CreateArea();

  auto drive = [&](SimDisk* disk, BufferPool* pool, AreaId area) {
    const uint32_t P = disk->page_size();
    std::vector<char> buf(16 * P);
    for (size_t i = 0; i < buf.size(); ++i) {
      buf[i] = static_cast<char>('0' + (i * 7) % 64);
    }
    // Fresh segment write, bypassing the pool.
    ASSERT_TRUE(
        pool->WriteFreshSegment(area, 0, buf.data(), 10 * P + 123).ok());
    // Buffered read-modify-write of an unaligned range.
    ASSERT_TRUE(pool->WriteSegmentRange(area, 0, 10 * P + 123, P / 2,
                                        P + 17, buf.data())
                    .ok());
    // Large unbuffered write crossing many pages.
    ASSERT_TRUE(pool->WriteSegmentRange(area, 0, 10 * P + 123, 2 * P + 5,
                                        7 * P, buf.data())
                    .ok());
    // Reads: buffered window and unbuffered 3-step.
    std::vector<char> out(9 * P);
    ASSERT_TRUE(pool->ReadSegmentRange(area, 0, 10 * P + 123, P - 9,
                                       2 * P, out.data())
                    .ok());
    ASSERT_TRUE(pool->ReadSegmentRange(area, 0, 10 * P + 123, 3,
                                       8 * P + 200, out.data())
                    .ok());
    ASSERT_TRUE(pool->FlushRun(area, 0, 16).ok());
  };
  drive(&disk_on, &pool_on, a_on);
  drive(&disk_off, &pool_off, a_off);

  EXPECT_EQ(disk_on.stats().ms, disk_off.stats().ms);
  EXPECT_EQ(disk_on.stats().Seeks(), disk_off.stats().Seeks());
  EXPECT_EQ(disk_on.stats().PagesTransferred(),
            disk_off.stats().PagesTransferred());
  ASSERT_EQ(disk_on.AreaHighWater(a_on), disk_off.AreaHighWater(a_off));
  for (PageId p = 0; p < disk_on.AreaHighWater(a_on); ++p) {
    const char* img_on = disk_on.PeekPage(a_on, p);
    const char* img_off = disk_off.PeekPage(a_off, p);
    if (img_on == nullptr || img_off == nullptr) {
      EXPECT_EQ(img_on == nullptr, img_off == nullptr) << "page " << p;
      continue;
    }
    EXPECT_EQ(0, std::memcmp(img_on, img_off, on.page_size)) << "page " << p;
  }
}

}  // namespace
}  // namespace lob
