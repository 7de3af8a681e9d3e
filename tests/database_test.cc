// Tests for the catalog, disk image persistence, and the Database shell.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "check/fsck.h"
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

// Catalog page header fields (see object_catalog.h).
uint16_t PageCount(const char* p) {
  uint16_t v;
  std::memcpy(&v, p + 8, 2);
  return v;
}
uint16_t PageUsed(const char* p) {
  uint16_t v;
  std::memcpy(&v, p + 10, 2);
  return v;
}
void SetPageCount(char* p, uint16_t v) { std::memcpy(p + 8, &v, 2); }
void SetPageUsed(char* p, uint16_t v) { std::memcpy(p + 10, &v, 2); }

/// The current bytes of each page, read through the pool.
std::vector<std::string> PageBytes(StorageSystem* sys,
                                   const std::vector<PageId>& pages) {
  std::vector<std::string> out;
  for (PageId page : pages) {
    auto g = sys->pool()->FixPage(sys->meta_area()->id(), page,
                                  FixMode::kRead);
    EXPECT_TRUE(g.ok());
    if (!g.ok()) return out;
    out.emplace_back(g->data(), sys->config().page_size);
  }
  return out;
}

/// Applies `edit` to one meta page and flushes it to disk.
void EditPage(StorageSystem* sys, PageId page,
              const std::function<void(char*)>& edit) {
  {
    auto g = sys->pool()->FixPage(sys->meta_area()->id(), page,
                                  FixMode::kRead);
    ASSERT_TRUE(g.ok());
    edit(g->mutable_data());
    g->MarkDirty();
  }
  ASSERT_TRUE(sys->pool()->FlushRun(sys->meta_area()->id(), page, 1).ok());
}

TEST(ObjectCatalogTest, OverstatedCountOnFullPageIsCorruption) {
  StorageSystem sys;
  ObjectCatalog cat(&sys);
  auto head = cat.Create();
  ASSERT_TRUE(head.ok());
  // 271 ten-byte names (15 bytes each) and one 14-byte name (19 bytes) use
  // exactly 4084 bytes: the entries end at the head page's last byte.
  for (int i = 0; i < 271; ++i) {
    ASSERT_TRUE(cat.Put("name" + std::to_string(100000 + i),
                        static_cast<ObjectId>(i))
                    .ok());
  }
  ASSERT_TRUE(cat.Put("fourteen_bytes", 271).ok());
  EditPage(&sys, *head, [](char* p) {
    ASSERT_EQ(PageUsed(p), 4084);
    SetPageCount(p, static_cast<uint16_t>(PageCount(p) + 1));
  });
  // Drop the frame, so the next fix borrows the disk's own page image: a
  // parser that loads a length byte past `used` reads past that image.
  ASSERT_TRUE(sys.pool()->Invalidate(sys.meta_area()->id(), *head, 1).ok());
  EXPECT_EQ(cat.Get("fourteen_bytes").status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ(cat.Put("fresh", 1).code(), StatusCode::kCorruption);
  EXPECT_EQ(cat.Remove("name100000").code(), StatusCode::kCorruption);
  EXPECT_EQ(cat.List().status().code(), StatusCode::kCorruption);
  EXPECT_EQ(cat.Pages().status().code(), StatusCode::kCorruption);
}

void SetPageNext(char* p, PageId v) { std::memcpy(p + 4, &v, 4); }

/// 24-byte names: 140 entries fill a page, so 300 of them chain three
/// pages with names 140..279 on the second.
std::string ChainName(int i) {
  return "chained_object_name_" + std::to_string(1000 + i);
}

/// A database whose catalog chains three pages: ChainNames 0..299 less
/// 141, so a 24-byte name no longer fits on the first page but does on
/// the second. The ids are arbitrary; the tests that use it never reach
/// the objects.
void BuildThreePageCatalog(std::unique_ptr<Database>* out) {
  auto db = Database::Create();
  ASSERT_TRUE(db.ok());
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(
        (*db)->catalog()->Put(ChainName(i), static_cast<ObjectId>(i)).ok());
  }
  ASSERT_TRUE((*db)->catalog()->Remove(ChainName(141)).ok());
  auto pages = (*db)->catalog()->Pages();
  ASSERT_TRUE(pages.ok());
  ASSERT_EQ(pages->size(), 3u);
  *out = std::move(*db);
}

/// Saves `db`, reopens the image and returns the open's status code.
StatusCode ReopenCode(Database* db, const char* tag) {
  const std::string path = TempPath(tag);
  EXPECT_TRUE(db->Save(path).ok());
  const StatusCode code = Database::Open(path).status().code();
  std::remove(path.c_str());
  return code;
}

/// Applies `damage` to the second page of a three-page chain. Present at
/// open, the damage fails Database::Open, which validates every page.
/// Made after open, it fails every op that fixes that page and every
/// chain walk, and a rejected op writes nothing. `probe` is bound on the
/// second page, ahead of any damaged entry.
void ExpectCorruptionEverywhere(const std::function<void(char*)>& damage,
                                const std::string& probe) {
  std::unique_ptr<Database> db;
  ASSERT_NO_FATAL_FAILURE(BuildThreePageCatalog(&db));
  StorageSystem* sys = db->sys();
  ObjectCatalog* cat = db->catalog();
  const std::vector<PageId> pages = *cat->Pages();
  EditPage(sys, pages[1], damage);
  EXPECT_EQ(ReopenCode(db.get(), "damaged"), StatusCode::kCorruption);

  const std::vector<std::string> before = PageBytes(sys, pages);
  const uint64_t writes = sys->stats().write_calls;
  EXPECT_EQ(cat->Get(probe).status().code(), StatusCode::kCorruption);
  EXPECT_EQ(cat->Contains(probe).status().code(), StatusCode::kCorruption);
  EXPECT_EQ(cat->Remove(probe).code(), StatusCode::kCorruption);
  // Put fixes only the page first fit picks, and a 24-byte name fits
  // first on the damaged page.
  EXPECT_EQ(cat->Put(ChainName(300), 300).code(), StatusCode::kCorruption);
  EXPECT_EQ(sys->stats().write_calls, writes) << "a rejected op wrote";
  EXPECT_EQ(PageBytes(sys, pages), before) << "a rejected op changed a page";

  // An absent name costs no I/O, and a name that fits on the first page
  // lands there: neither meets the damage.
  EXPECT_EQ(cat->Get("absent").status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(cat->Put("a_fresh_name", 9999).ok());
  const std::vector<std::string> after = PageBytes(sys, pages);
  EXPECT_NE(after[0], before[0]);
  EXPECT_EQ(after[1], before[1]);
  EXPECT_EQ(after[2], before[2]);

  EXPECT_EQ(cat->List().status().code(), StatusCode::kCorruption);
  EXPECT_EQ(cat->Size().status().code(), StatusCode::kCorruption);
  EXPECT_EQ(cat->Pages().status().code(), StatusCode::kCorruption);
  EXPECT_EQ(FsckDatabase(db.get()).status().code(), StatusCode::kCorruption);
  // Drop walks the whole chain before it frees a page.
  const uint64_t allocated = sys->meta_area()->allocated_pages();
  EXPECT_EQ(cat->Drop().code(), StatusCode::kCorruption);
  EXPECT_EQ(sys->meta_area()->allocated_pages(), allocated);
}

TEST(ObjectCatalogTest, BadMagicOnSecondPageIsCorruption) {
  ExpectCorruptionEverywhere([](char* p) { p[0] ^= 0x5A; }, ChainName(200));
}

TEST(ObjectCatalogTest, UsedPastPageOnSecondPageIsCorruption) {
  ExpectCorruptionEverywhere([](char* p) { SetPageUsed(p, 4096 - 12 + 1); },
                             ChainName(200));
}

TEST(ObjectCatalogTest, TruncatedEntryAfterMatchIsCorruption) {
  // Shrinking `used` by one byte truncates the page's last entry (name
  // 279); the probe is the entry just before it.
  ExpectCorruptionEverywhere(
      [](char* p) { SetPageUsed(p, static_cast<uint16_t>(PageUsed(p) - 1)); },
      ChainName(278));
}

TEST(ObjectCatalogTest, LoopingNextLinkIsCorruption) {
  std::unique_ptr<Database> db;
  ASSERT_NO_FATAL_FAILURE(BuildThreePageCatalog(&db));
  ObjectCatalog* cat = db->catalog();
  const std::vector<PageId> pages = *cat->Pages();
  // The third page links back to the second.
  EditPage(db->sys(), pages[2],
           [&](char* p) { SetPageNext(p, pages[1]); });
  EXPECT_EQ(ReopenCode(db.get(), "loop"), StatusCode::kCorruption);

  EXPECT_EQ(cat->List().status().code(), StatusCode::kCorruption);
  EXPECT_EQ(cat->Size().status().code(), StatusCode::kCorruption);
  EXPECT_EQ(cat->Pages().status().code(), StatusCode::kCorruption);
  EXPECT_EQ(cat->CheckIndex().code(), StatusCode::kCorruption);
  EXPECT_EQ(FsckDatabase(db.get()).status().code(), StatusCode::kCorruption);
  const uint64_t allocated = db->sys()->meta_area()->allocated_pages();
  EXPECT_EQ(cat->Drop().code(), StatusCode::kCorruption);
  EXPECT_EQ(db->sys()->meta_area()->allocated_pages(), allocated);
  // Lookups never follow the chain.
  EXPECT_EQ(cat->Get("absent").status().code(), StatusCode::kNotFound);
  auto id = cat->Get(ChainName(250));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 250u);
}

/// What a catalog op may move: the disk's counters and the pool's.
struct IoSnapshot {
  IoStats io;
  uint64_t hits, misses, evictions;

  explicit IoSnapshot(StorageSystem* sys)
      : io(sys->stats()),
        hits(sys->pool()->hits()),
        misses(sys->pool()->misses()),
        evictions(sys->pool()->evictions()) {}
  uint64_t fixes() const { return hits + misses; }
  bool operator==(const IoSnapshot& o) const {
    return io.read_calls == o.io.read_calls &&
           io.write_calls == o.io.write_calls &&
           io.pages_read == o.io.pages_read &&
           io.pages_written == o.io.pages_written && io.ms == o.io.ms &&
           hits == o.hits && misses == o.misses && evictions == o.evictions;
  }
};

TEST(ObjectCatalogTest, IndexedLookupsFixAtMostOnePage) {
  std::unique_ptr<Database> db;
  ASSERT_NO_FATAL_FAILURE(BuildThreePageCatalog(&db));
  ObjectCatalog* cat = db->catalog();
  StorageSystem* sys = db->sys();
  const IoSnapshot before(sys);
  EXPECT_EQ(cat->Get("absent").status().code(), StatusCode::kNotFound);
  auto has = cat->Contains("absent");
  ASSERT_TRUE(has.ok());
  EXPECT_FALSE(*has);
  EXPECT_EQ(cat->Put(ChainName(299), 1).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(cat->Put("", 1).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(cat->Remove("absent").code(), StatusCode::kNotFound);
  EXPECT_TRUE(IoSnapshot(sys) == before)
      << "an absent name or a duplicate Put did I/O";

  for (int i : {0, 200, 299}) {
    const IoSnapshot pre(sys);
    auto id = cat->Get(ChainName(i));
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(*id, static_cast<ObjectId>(i));
    EXPECT_EQ(IoSnapshot(sys).fixes(), pre.fixes() + 1) << ChainName(i);
  }
}

// Seeded differential test against std::map: Put, Get and Remove over a
// pool of names of 3..255 bytes, with duplicate and absent names, the
// empty name and a 256-byte one, and a Save + Open every 500 ops. The
// reopened catalog must hold the same pages, byte for byte.
TEST(ObjectCatalogTest, MatchesMapModelAcrossReopens) {
  const std::string path = TempPath("catalog_model");
  Rng rng(20261017);
  std::vector<std::string> names;
  for (int i = 0; i < 400; ++i) {
    std::string name = std::to_string(i) + ":";
    const size_t len = rng.Uniform(name.size(), 255);
    while (name.size() < len) {
      name += static_cast<char>('a' + rng.Uniform(0, 25));
    }
    names.push_back(name);
  }
  const std::string too_long(256, 'z');
  std::map<std::string, ObjectId> model;
  auto made = Database::Create();
  ASSERT_TRUE(made.ok());
  std::unique_ptr<Database> db = std::move(*made);
  size_t max_pages = 0;
  for (int op = 0; op < 3500; ++op) {
    const uint64_t pick = rng.Uniform(0, 99);
    const std::string& name = pick == 0   ? std::string()
                              : pick == 1 ? too_long
                                          : names[rng.Uniform(0, 399)];
    const bool valid = !name.empty() && name.size() <= 255;
    ObjectCatalog* cat = db->catalog();
    auto it = model.find(name);
    const uint64_t kind = rng.Uniform(0, 9);
    if (kind < 4) {
      const auto id = static_cast<ObjectId>(rng.Next());
      Status st = cat->Put(name, id);
      if (!valid || it != model.end()) {
        EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << op;
      } else {
        ASSERT_TRUE(st.ok()) << op << ": " << st.ToString();
        model.emplace(name, id);
      }
    } else if (kind < 7) {
      auto got = cat->Get(name);
      if (it == model.end()) {
        EXPECT_EQ(got.status().code(), StatusCode::kNotFound) << op;
      } else {
        ASSERT_TRUE(got.ok()) << op << ": " << got.status().ToString();
        EXPECT_EQ(*got, it->second) << op;
      }
    } else {
      Status st = cat->Remove(name);
      if (it == model.end()) {
        EXPECT_EQ(st.code(), StatusCode::kNotFound) << op;
      } else {
        ASSERT_TRUE(st.ok()) << op << ": " << st.ToString();
        model.erase(it);
      }
    }
    if (op % 500 != 499) continue;

    auto list = cat->List();
    ASSERT_TRUE(list.ok());
    const std::map<std::string, ObjectId> listed(list->begin(), list->end());
    EXPECT_EQ(listed.size(), list->size()) << "List repeats a name";
    EXPECT_EQ(listed, model) << op;
    EXPECT_TRUE(cat->CheckIndex().ok()) << op;
    auto pages = cat->Pages();
    ASSERT_TRUE(pages.ok());
    max_pages = std::max(max_pages, pages->size());
    const std::vector<std::string> bytes = PageBytes(db->sys(), *pages);
    ASSERT_TRUE(db->Save(path).ok());
    auto reopened = Database::Open(path);
    ASSERT_TRUE(reopened.ok()) << op << ": " << reopened.status().ToString();
    db = std::move(*reopened);
    auto reopened_pages = db->catalog()->Pages();
    ASSERT_TRUE(reopened_pages.ok());
    EXPECT_EQ(*reopened_pages, *pages) << op;
    EXPECT_EQ(PageBytes(db->sys(), *reopened_pages), bytes) << op;
    EXPECT_TRUE(db->catalog()->CheckIndex().ok()) << op;
  }
  EXPECT_GE(max_pages, 4u) << "the names should chain several pages";
  std::remove(path.c_str());
}

uint64_t Fnv1a(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// Pins the catalog's metered I/O, the pool's counters and the bytes of
// every catalog page over a deterministic script of creates (all three
// engines, names of 4..43 bytes), drops from the middle of the chain,
// duplicate creates and lookups of present and absent names. The page
// hashes come from a catalog that copied each page into owned entries and
// rewrote it whole, the reference for the page format: a catalog that
// places entries elsewhere or writes other bytes fails here. The I/O and
// pool counters come from the name-indexed catalog, which fixes only the
// page an op reads or writes: one that fixes, flushes, allocates or frees
// other pages, or in another order, fails here.
TEST(ObjectCatalogTest, GoldenIoAndPageBytes) {
  auto made = Database::Create();
  ASSERT_TRUE(made.ok());
  Database* db = made->get();
  uint64_t state = 0x9E3779B97F4A7C15ULL;
  auto next = [&state] {  // SplitMix64
    uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  };
  const Engine engines[] = {Engine::kEsm, Engine::kEos, Engine::kStarburst};
  std::vector<std::pair<std::string, ObjectId>> live;
  for (int i = 0; i < 1500; ++i) {
    std::string name = std::to_string(i) + "_";
    const size_t len = 4 + next() % 40;
    while (name.size() < len) name += static_cast<char>('a' + next() % 26);
    auto id = db->CreateObject(name, engines[i % 3], 4);
    ASSERT_TRUE(id.ok()) << i;
    live.emplace_back(name, *id);
    if (i % 4 == 3) {  // drop from the middle third of the live set
      const size_t victim = live.size() / 3 + next() % (live.size() / 3);
      ASSERT_TRUE(db->DropObject(live[victim].first).ok()) << i;
      live.erase(live.begin() + static_cast<long>(victim));
    }
    if (i % 25 == 24) {
      EXPECT_EQ(db->CreateObject(live[next() % live.size()].first,
                                 engines[next() % 3], 4)
                    .status()
                    .code(),
                StatusCode::kInvalidArgument)
          << i;
    }
    if (i % 10 == 9) {
      EXPECT_EQ(db->Lookup("absent_" + std::to_string(i)).status().code(),
                StatusCode::kNotFound);
    }
    if (i % 3 == 0) {
      const auto& [probe, want] = live[next() % live.size()];
      auto got = db->Lookup(probe);
      ASSERT_TRUE(got.ok()) << probe;
      EXPECT_EQ(*got, want);
    }
  }
  auto size = db->catalog()->Size();
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, live.size());
  auto pages = db->catalog()->Pages();
  ASSERT_TRUE(pages.ok());
  ASSERT_GE(pages->size(), 8u);

  const IoStats io = db->sys()->stats();
  const BufferPool* pool = db->sys()->pool();
  EXPECT_EQ(io.read_calls, 3327u);
  EXPECT_EQ(io.write_calls, 3367u);
  EXPECT_EQ(io.pages_read, 3327u);
  EXPECT_EQ(io.pages_written, 3367u);
  EXPECT_EQ(pool->hits(), 5118u);
  EXPECT_EQ(pool->misses(), 3327u);
  EXPECT_EQ(pool->evictions(), 4450u);
  std::vector<uint64_t> hashes;
  for (const std::string& bytes : PageBytes(db->sys(), *pages)) {
    hashes.push_back(Fnv1a(bytes));
  }
  const std::vector<uint64_t> want_hashes = {
      0xbc786a77ad8c5b64ULL, 0xb39659f7c375d4e0ULL, 0x6537c5c5ce67661aULL,
      0x733bf72940410c93ULL, 0x317d5e514e4bf111ULL, 0x51e15b1fb1094dadULL,
      0xa0fdc6b5f53bf7b9ULL, 0x6a1ea2048484704bULL};
  EXPECT_EQ(hashes, want_hashes);
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

/// A one-shot fault on the next write of meta page `page`.
FaultSpec WriteFaultOn(Database* db, PageId page) {
  FaultSpec spec;
  spec.match_reads = false;
  spec.match_range = true;
  spec.area = db->sys()->meta_area()->id();
  spec.first_page = page;
  spec.last_page = page;
  return spec;
}

/// `name` resolves to an object root exactly when `bound`, and fsck finds
/// the database clean.
void ExpectBoundAndClean(Database* db, std::string_view name, bool bound) {
  auto found = db->Lookup(name);
  if (bound) {
    ASSERT_TRUE(found.ok()) << found.status().ToString();
    EXPECT_TRUE(db->ObjectEngine(*found).ok());
  } else {
    EXPECT_EQ(found.status().code(), StatusCode::kNotFound);
  }
  auto report = FsckDatabase(db);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->HasCorruption()) << report->ToString();
  EXPECT_TRUE(report->clean()) << report->ToString();
}

TEST(DatabaseTest, FailedCatalogWriteInCreateLeavesNameUnbound) {
  auto db = Database::Create();
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->CreateObject("a", Engine::kEsm).ok());
  (*db)->sys()->disk()->ArmFault(
      WriteFaultOn(db->get(), (*db)->catalog()->head()));
  EXPECT_EQ((*db)->CreateObject("b", Engine::kEsm).status().code(),
            StatusCode::kInternal);
  ExpectBoundAndClean(db->get(), "b", false);
  ExpectBoundAndClean(db->get(), "a", true);
  ASSERT_TRUE((*db)->CreateObject("b", Engine::kEsm).ok());
  ExpectBoundAndClean(db->get(), "b", true);
}

TEST(DatabaseTest, FailedCatalogWriteInDropKeepsObjectBound) {
  auto db = Database::Create();
  ASSERT_TRUE(db.ok());
  auto id = (*db)->CreateObject("b", Engine::kEos, 4);
  ASSERT_TRUE(id.ok());
  auto mgr = (*db)->ManagerForObject(*id);
  ASSERT_TRUE(mgr.ok());
  const std::string bytes = Pattern(3, 20000);
  ASSERT_TRUE((*mgr)->Append(*id, bytes).ok());
  (*db)->sys()->disk()->ArmFault(
      WriteFaultOn(db->get(), (*db)->catalog()->head()));
  EXPECT_EQ((*db)->DropObject("b").code(), StatusCode::kInternal);
  ExpectBoundAndClean(db->get(), "b", true);
  std::string got;
  ASSERT_TRUE((*mgr)->Read(*id, 0, bytes.size(), &got).ok());
  EXPECT_EQ(got, bytes);
  ASSERT_TRUE((*db)->DropObject("b").ok());
  ExpectBoundAndClean(db->get(), "b", false);
}

TEST(DatabaseTest, FailedCatalogWriteWhileGrowingChainLeavesNameUnbound) {
  // 140 ChainNames fill the head page, so binding one more links a fresh
  // page: one write to the head links it, one to the fresh page binds.
  auto fill = [](std::unique_ptr<Database>* out) {
    auto db = Database::Create();
    ASSERT_TRUE(db.ok());
    for (int i = 0; i < 140; ++i) {
      ASSERT_TRUE((*db)->CreateObject(ChainName(i), Engine::kStarburst).ok());
    }
    *out = std::move(*db);
  };
  std::unique_ptr<Database> db;
  ASSERT_NO_FATAL_FAILURE(fill(&db));
  ASSERT_TRUE(db->CreateObject(ChainName(140), Engine::kStarburst).ok());
  const std::vector<PageId> grown = *db->catalog()->Pages();
  ASSERT_EQ(grown.size(), 2u);

  for (PageId faulted : grown) {  // the link, then the binding
    ASSERT_NO_FATAL_FAILURE(fill(&db));
    db->sys()->disk()->ArmFault(WriteFaultOn(db.get(), faulted));
    EXPECT_EQ(db->CreateObject(ChainName(140), Engine::kStarburst)
                  .status()
                  .code(),
              StatusCode::kInternal)
        << "fault on page " << faulted;
    ExpectBoundAndClean(db.get(), ChainName(140), false);
    ASSERT_TRUE(db->CreateObject(ChainName(140), Engine::kStarburst).ok());
    ExpectBoundAndClean(db.get(), ChainName(140), true);
    EXPECT_EQ(*db->catalog()->Pages(), grown);
  }
}

TEST(DatabaseTest, FsckReportsNameIndexDrift) {
  auto db = Database::Create();
  ASSERT_TRUE(db.ok());
  for (const char* name : {"a", "b", "c"}) {
    ASSERT_TRUE((*db)->CreateObject(name, Engine::kStarburst).ok());
  }
  ExpectBoundAndClean(db->get(), "c", true);
  // Cut the last entry, "c" (1 + 1 + 4 bytes), off the head page behind
  // the catalog's back.
  EditPage((*db)->sys(), (*db)->catalog()->head(), [](char* p) {
    SetPageCount(p, static_cast<uint16_t>(PageCount(p) - 1));
    SetPageUsed(p, static_cast<uint16_t>(PageUsed(p) - 6));
  });
  auto report = FsckDatabase(db->get());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->HasCorruption());
  EXPECT_TRUE(std::any_of(
      report->issues.begin(), report->issues.end(), [](const FsckIssue& i) {
        return i.kind == FsckIssueKind::kStructure &&
               i.detail.find("catalog index") != std::string::npos;
      }))
      << report->ToString();
  // The page no longer ends where the index says, so an op that fixes it
  // fails instead of binding "d" past a stale entry.
  EXPECT_EQ((*db)->Lookup("c").status().code(), StatusCode::kCorruption);
  EXPECT_EQ((*db)->CreateObject("d", Engine::kStarburst).status().code(),
            StatusCode::kCorruption);
}

TEST(DatabaseTest, DuplicateNameInImageIsCorruption) {
  auto db = Database::Create();
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->catalog()->Put("aa", 1).ok());
  ASSERT_TRUE((*db)->catalog()->Put("ab", 2).ok());
  // The second entry starts at 12 + 7; its name's second byte is at +2.
  EditPage((*db)->sys(), (*db)->catalog()->head(),
           [](char* p) { p[12 + 7 + 2] = 'a'; });
  EXPECT_EQ(ReopenCode(db->get(), "duplicate"), StatusCode::kCorruption);
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
