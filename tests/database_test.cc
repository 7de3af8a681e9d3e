// Tests for the catalog, disk image persistence, and the Database shell.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/rng.h"
#include "core/database.h"
#include "disk_test_util.h"
#include "iomodel/disk_image.h"

namespace lob {
namespace {

std::string TempPath(const char* tag) {
  return std::string(::testing::TempDir()) + "/lobstore_" + tag + ".img";
}

std::string Pattern(uint64_t seed, size_t n) {
  std::string out(n, '\0');
  Rng rng(seed);
  for (auto& c : out) c = static_cast<char>('a' + rng.Uniform(0, 25));
  return out;
}

// ----------------------------------------------------------- ObjectCatalog

TEST(ObjectCatalogTest, PutGetRemove) {
  StorageSystem sys;
  ObjectCatalog cat(&sys);
  ASSERT_TRUE(cat.Create().ok());
  ASSERT_TRUE(cat.Put("alpha", 101).ok());
  ASSERT_TRUE(cat.Put("beta", 202).ok());
  auto id = cat.Get("alpha");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 101u);
  auto has = cat.Contains("beta");
  ASSERT_TRUE(has.ok());
  EXPECT_TRUE(*has);
  ASSERT_TRUE(cat.Remove("alpha").ok());
  EXPECT_EQ(cat.Get("alpha").status().code(), StatusCode::kNotFound);
  auto size = cat.Size();
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 1u);
}

TEST(ObjectCatalogTest, RejectsDuplicatesAndBadNames) {
  StorageSystem sys;
  ObjectCatalog cat(&sys);
  ASSERT_TRUE(cat.Create().ok());
  ASSERT_TRUE(cat.Put("x", 1).ok());
  EXPECT_EQ(cat.Put("x", 2).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(cat.Put("", 3).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(cat.Put(std::string(300, 'n'), 4).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(cat.Remove("missing").code(), StatusCode::kNotFound);
}

TEST(ObjectCatalogTest, GrowsAcrossPages) {
  StorageSystem sys;
  ObjectCatalog cat(&sys);
  ASSERT_TRUE(cat.Create().ok());
  // Enough long-named entries to overflow several 4K pages.
  const int n = 500;
  for (int i = 0; i < n; ++i) {
    std::string name = "object_with_a_rather_long_name_" + std::to_string(i);
    ASSERT_TRUE(cat.Put(name, static_cast<ObjectId>(1000 + i)).ok()) << i;
  }
  auto size = cat.Size();
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, static_cast<uint64_t>(n));
  for (int i = 0; i < n; i += 37) {
    std::string name = "object_with_a_rather_long_name_" + std::to_string(i);
    auto id = cat.Get(name);
    ASSERT_TRUE(id.ok()) << name;
    EXPECT_EQ(*id, static_cast<ObjectId>(1000 + i));
  }
  // Duplicate detection works across chained pages too.
  EXPECT_EQ(cat.Put("object_with_a_rather_long_name_499", 1).code(),
            StatusCode::kInvalidArgument);
  auto list = cat.List();
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list->size(), static_cast<size_t>(n));
}

TEST(ObjectCatalogTest, DropFreesPages) {
  StorageSystem sys;
  ObjectCatalog cat(&sys);
  ASSERT_TRUE(cat.Create().ok());
  const uint64_t before = sys.meta_area()->allocated_pages();
  for (int i = 0; i < 300; ++i) {
    // Long names force the catalog to chain additional pages.
    ASSERT_TRUE(
        cat.Put("a_long_enough_object_name_to_fill_pages_quickly_" +
                    std::to_string(i),
                1)
            .ok());
  }
  ASSERT_GT(sys.meta_area()->allocated_pages(), before);
  ASSERT_TRUE(cat.Drop().ok());
  EXPECT_EQ(sys.meta_area()->allocated_pages(), before - 1)
      << "all catalog pages including the head must be freed";
}

// --------------------------------------------------------------- DiskImage

TEST(DiskImageTest, RoundTripsPages) {
  const std::string path = TempPath("roundtrip");
  StorageConfig cfg;
  {
    SimDisk disk(cfg);
    AreaId a = disk.CreateArea();
    AreaId b = disk.CreateArea();
    std::string page(4096, 'A');
    ASSERT_TRUE(WritePages(&disk, a, 3, 1, page.data()).ok());
    page.assign(4096, 'B');
    ASSERT_TRUE(WritePages(&disk, b, 7, 1, page.data()).ok());
    ASSERT_TRUE(SaveDiskImage(disk, path).ok());
  }
  SimDisk loaded(cfg);
  ASSERT_TRUE(LoadDiskImage(&loaded, path).ok());
  EXPECT_EQ(loaded.num_areas(), 2u);
  ASSERT_NE(loaded.PeekPage(0, 3), nullptr);
  EXPECT_EQ(loaded.PeekPage(0, 3)[0], 'A');
  ASSERT_NE(loaded.PeekPage(1, 7), nullptr);
  EXPECT_EQ(loaded.PeekPage(1, 7)[0], 'B');
  EXPECT_EQ(loaded.PeekPage(0, 0), nullptr) << "sparse pages stay absent";
  EXPECT_EQ(loaded.stats().Seeks(), 0u) << "loading is not simulated I/O";
  std::remove(path.c_str());
}

TEST(DiskImageTest, RejectsGarbage) {
  const std::string path = TempPath("garbage");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not an image", f);
    std::fclose(f);
  }
  StorageConfig cfg;
  SimDisk disk(cfg);
  EXPECT_FALSE(LoadDiskImage(&disk, path).ok());
  std::remove(path.c_str());
  SimDisk disk2(cfg);
  EXPECT_EQ(LoadDiskImage(&disk2, "/nonexistent/lob.img").code(),
            StatusCode::kNotFound);
}

// ---------------------------------------------------------------- Database

TEST(DatabaseTest, CreateNamedObjectsAllEngines) {
  auto db = Database::Create();
  ASSERT_TRUE(db.ok());
  auto esm = (*db)->CreateObject("pic", Engine::kEsm, 4);
  auto sb = (*db)->CreateObject("song", Engine::kStarburst);
  auto eos = (*db)->CreateObject("doc", Engine::kEos, 16);
  ASSERT_TRUE(esm.ok());
  ASSERT_TRUE(sb.ok());
  ASSERT_TRUE(eos.ok());
  auto e1 = (*db)->ObjectEngine(*esm);
  auto e2 = (*db)->ObjectEngine(*sb);
  auto e3 = (*db)->ObjectEngine(*eos);
  ASSERT_TRUE(e1.ok());
  ASSERT_TRUE(e2.ok());
  ASSERT_TRUE(e3.ok());
  EXPECT_EQ(*e1, Engine::kEsm);
  EXPECT_EQ(*e2, Engine::kStarburst);
  EXPECT_EQ(*e3, Engine::kEos);
  auto found = (*db)->Lookup("song");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, *sb);
}

TEST(DatabaseTest, DuplicateNameRollsBackObject) {
  auto db = Database::Create();
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->CreateObject("x", Engine::kEos).ok());
  const uint64_t pages = (*db)->sys()->meta_area()->allocated_pages();
  EXPECT_FALSE((*db)->CreateObject("x", Engine::kEsm).ok());
  EXPECT_EQ((*db)->sys()->meta_area()->allocated_pages(), pages)
      << "failed create must not leak the object root";
}

TEST(DatabaseTest, DuplicateNameRollbackSurvivesInjectedFailure) {
  // The duplicate-name rollback destroys the freshly created object. If
  // that rollback itself hits an I/O failure, CreateObject must still
  // return the original bind error (never crash, never mask it with the
  // rollback error), and the database must keep working once the fault
  // clears. Sweep the fault depth so the failure lands at every point of
  // the create/bind/rollback sequence at least once.
  for (uint64_t depth = 0; depth < 12; ++depth) {
    auto db = Database::Create();
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateObject("x", Engine::kEos).ok());
    (*db)->sys()->disk()->ArmFault(StickyFaultAfter(depth));
    auto dup = (*db)->CreateObject("x", Engine::kEsm);
    EXPECT_FALSE(dup.ok()) << "depth " << depth;
    (*db)->sys()->disk()->ClearFaults();
    // The database stays usable: the original binding is intact and new
    // names can still be created.
    auto found = (*db)->Lookup("x");
    ASSERT_TRUE(found.ok()) << "depth " << depth;
    auto fresh = (*db)->CreateObject("y", Engine::kEos);
    EXPECT_TRUE(fresh.ok()) << "depth " << depth;
  }
}

TEST(DatabaseTest, DropObjectFreesAndUnbinds) {
  auto db = Database::Create();
  ASSERT_TRUE(db.ok());
  auto id = (*db)->CreateObject("blob", Engine::kEos, 4);
  ASSERT_TRUE(id.ok());
  auto mgr = (*db)->ManagerForObject(*id);
  ASSERT_TRUE(mgr.ok());
  ASSERT_TRUE((*mgr)->Append(*id, Pattern(1, 100000)).ok());
  ASSERT_GT((*db)->sys()->leaf_area()->allocated_pages(), 0u);
  ASSERT_TRUE((*db)->DropObject("blob").ok());
  EXPECT_EQ((*db)->sys()->leaf_area()->allocated_pages(), 0u);
  EXPECT_EQ((*db)->Lookup("blob").status().code(), StatusCode::kNotFound);
}

TEST(DatabaseTest, SaveAndReopenPreservesEverything) {
  const std::string path = TempPath("reopen");
  const std::string song = Pattern(10, 300000);
  const std::string doc = Pattern(11, 120000);
  {
    auto db = Database::Create();
    ASSERT_TRUE(db.ok());
    auto sb = (*db)->CreateObject("song", Engine::kStarburst);
    auto eos = (*db)->CreateObject("doc", Engine::kEos, 4);
    ASSERT_TRUE(sb.ok());
    ASSERT_TRUE(eos.ok());
    auto m1 = (*db)->ManagerFor(Engine::kStarburst);
    auto m2 = (*db)->ManagerFor(Engine::kEos, 4);
    ASSERT_TRUE(m1.ok());
    ASSERT_TRUE(m2.ok());
    ASSERT_TRUE((*m1)->Append(*sb, song).ok());
    ASSERT_TRUE((*m2)->Append(*eos, doc).ok());
    ASSERT_TRUE((*m2)->Insert(*eos, 5000, "EDITED").ok());
    ASSERT_TRUE((*db)->Save(path).ok());
  }
  auto db = Database::Open(path);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto sb = (*db)->Lookup("song");
  auto eos = (*db)->Lookup("doc");
  ASSERT_TRUE(sb.ok());
  ASSERT_TRUE(eos.ok());
  auto m1 = (*db)->ManagerForObject(*sb);
  auto m2 = (*db)->ManagerForObject(*eos, 4);
  ASSERT_TRUE(m1.ok());
  ASSERT_TRUE(m2.ok());
  std::string got;
  ASSERT_TRUE((*m1)->Read(*sb, 0, song.size(), &got).ok());
  EXPECT_EQ(got, song);
  std::string expect_doc = doc;
  expect_doc.insert(5000, "EDITED");
  ASSERT_TRUE((*m2)->Read(*eos, 0, expect_doc.size(), &got).ok());
  EXPECT_EQ(got, expect_doc);
  // The reopened database can keep allocating without clobbering old data.
  auto fresh = (*db)->CreateObject("new", Engine::kEsm, 1);
  ASSERT_TRUE(fresh.ok());
  auto m3 = (*db)->ManagerForObject(*fresh, 1);
  ASSERT_TRUE(m3.ok());
  ASSERT_TRUE((*m3)->Append(*fresh, Pattern(12, 50000)).ok());
  ASSERT_TRUE((*m1)->Read(*sb, 0, song.size(), &got).ok());
  EXPECT_EQ(got, song) << "new allocations must not overwrite old objects";
  ASSERT_TRUE((*m2)->Validate(*eos).ok());
  std::remove(path.c_str());
}

TEST(DatabaseTest, ReopenedAllocatorStateMatches) {
  const std::string path = TempPath("alloc");
  uint64_t leaf_pages_before = 0, meta_pages_before = 0;
  {
    auto db = Database::Create();
    ASSERT_TRUE(db.ok());
    auto id = (*db)->CreateObject("o", Engine::kEsm, 4);
    ASSERT_TRUE(id.ok());
    auto mgr = (*db)->ManagerFor(Engine::kEsm, 4);
    ASSERT_TRUE(mgr.ok());
    ASSERT_TRUE((*mgr)->Append(*id, Pattern(13, 777777)).ok());
    leaf_pages_before = (*db)->sys()->leaf_area()->allocated_pages();
    meta_pages_before = (*db)->sys()->meta_area()->allocated_pages();
    ASSERT_TRUE((*db)->Save(path).ok());
  }
  auto db = Database::Open(path);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->sys()->leaf_area()->allocated_pages(), leaf_pages_before);
  EXPECT_EQ((*db)->sys()->meta_area()->allocated_pages(), meta_pages_before);
  EXPECT_TRUE((*db)->sys()->leaf_area()->CheckInvariants());
  EXPECT_TRUE((*db)->sys()->meta_area()->CheckInvariants());
  std::remove(path.c_str());
}

TEST(DatabaseTest, OpenMissingFileFails) {
  EXPECT_FALSE(Database::Open("/nonexistent/db.img").ok());
}

TEST(DatabaseTest, RejectsZeroParameter) {
  auto db = Database::Create();
  ASSERT_TRUE(db.ok());
  EXPECT_FALSE((*db)->ManagerFor(Engine::kEsm, 0).ok());
  EXPECT_TRUE((*db)->ManagerFor(Engine::kStarburst, 0).ok());
}

}  // namespace
}  // namespace lob
