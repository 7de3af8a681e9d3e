// Splice edges of the engines' rewrites. A rewrite stages its result in
// one uninitialised buffer (buffer/staged_bytes.h): segments are read
// straight into it and the splice moves the bytes after the edit point. An
// off-by-one at a leaf or page boundary would leave unwritten bytes in the
// result or drop real ones. Each engine's table inserts, deletes and
// replaces at the offsets 0, 1, P-1, P, bytes-1 and bytes of every leaf of
// a freshly built object, plus the engine's own edge cases; after every op
// the object must equal a std::string model, and Validate and FsckObjects
// must be clean. An ESM append that no old leaf joins stages nothing and
// writes its leaves straight from the caller's buffer; its table also pins
// the leaf shape and what each append costs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "check/fsck.h"
#include "common/rng.h"
#include "core/factory.h"
#include "core/storage_system.h"

namespace lob {
namespace {

constexpr uint64_t kP = 4096;

std::string Pattern(uint64_t seed, size_t n) {
  std::string out(n, '\0');
  Rng rng(seed);
  for (auto& c : out) c = static_cast<char>('a' + rng.Uniform(0, 25));
  return out;
}

enum class Kind { kInsert, kDelete, kReplace, kAppend };

const char* KindName(Kind k) {
  switch (k) {
    case Kind::kInsert:
      return "insert";
    case Kind::kDelete:
      return "delete";
    case Kind::kReplace:
      return "replace";
    case Kind::kAppend:
      return "append";
  }
  return "?";
}

struct Leaf {
  uint64_t start;
  uint64_t bytes;
};

/// What one op cost: its disk calls and pages, and the pool's hits, misses
/// and evictions.
struct Cost {
  uint64_t read_calls = 0;
  uint64_t write_calls = 0;
  uint64_t pages_read = 0;
  uint64_t pages_written = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  bool operator==(const Cost&) const = default;
};

void PrintTo(const Cost& c, std::ostream* os) {
  *os << "{" << c.read_calls << ", " << c.write_calls << ", " << c.pages_read
      << ", " << c.pages_written << ", " << c.hits << ", " << c.misses << ", "
      << c.evictions << "}";
}

using MakeManager = std::unique_ptr<LargeObjectManager> (*)(StorageSystem*);

/// One object on its own StorageSystem, with a byte model of it.
class Subject {
 public:
  Subject(MakeManager make, const std::vector<size_t>& appends) {
    StorageConfig cfg;
    cfg.buddy_space_order = 12;
    sys_ = std::make_unique<StorageSystem>(cfg);
    mgr_ = make(sys_.get());
    auto id = mgr_->Create();
    LOB_CHECK_OK(id.status());
    id_ = *id;
    for (size_t n : appends) {
      const std::string chunk = Pattern(model_.size() + 1, n);
      LOB_CHECK_OK(mgr_->Append(id_, chunk));
      model_ += chunk;
    }
  }

  uint64_t size() const { return model_.size(); }

  /// What the last Apply's op cost (the checks after it not included).
  const Cost& last_cost() const { return last_cost_; }

  /// Leaves (segments) of the object in order.
  std::vector<Leaf> Leaves() {
    std::vector<Leaf> out;
    uint64_t at = 0;
    LOB_CHECK_OK(mgr_->VisitSegments(id_, [&](uint64_t bytes, uint32_t) {
      out.push_back({at, bytes});
      at += bytes;
      return Status::OK();
    }));
    return out;
  }

  /// Applies one op to the object and the model, then checks both agree
  /// and the object is well-formed.
  void Apply(Kind kind, uint64_t off, uint64_t n, const std::string& what) {
    SCOPED_TRACE(what + ": " + KindName(kind) + " " + std::to_string(n) +
                 " at " + std::to_string(off) + " of " +
                 std::to_string(size()));
    const std::string data = Pattern(off * 31 + n, n);
    const IoStats io0 = sys_->stats();
    const BufferPool& pool = *sys_->pool();
    const uint64_t hits0 = pool.hits();
    const uint64_t misses0 = pool.misses();
    const uint64_t evictions0 = pool.evictions();
    switch (kind) {
      case Kind::kInsert:
        ASSERT_TRUE(mgr_->Insert(id_, off, data).ok());
        model_.insert(off, data);
        break;
      case Kind::kDelete:
        ASSERT_TRUE(mgr_->Delete(id_, off, n).ok());
        model_.erase(off, n);
        break;
      case Kind::kReplace:
        ASSERT_TRUE(mgr_->Replace(id_, off, data).ok());
        model_.replace(off, n, data);
        break;
      case Kind::kAppend:
        ASSERT_TRUE(mgr_->Append(id_, data).ok());
        model_ += data;
        break;
    }
    const IoStats io = IoStats::Delta(io0, sys_->stats());
    last_cost_ = {io.read_calls,          io.write_calls,
                  io.pages_read,          io.pages_written,
                  pool.hits() - hits0,    pool.misses() - misses0,
                  pool.evictions() - evictions0};
    auto got_size = mgr_->Size(id_);
    ASSERT_TRUE(got_size.ok());
    ASSERT_EQ(*got_size, model_.size());
    std::string got;
    ASSERT_TRUE(mgr_->Read(id_, 0, model_.size(), &got).ok());
    ASSERT_TRUE(got == model_) << "content differs from the model";
    Status valid = mgr_->Validate(id_);
    ASSERT_TRUE(valid.ok()) << valid.ToString();
    auto report = FsckObjects(sys_.get(), {{id_, mgr_.get()}});
    ASSERT_TRUE(report.ok());
    ASSERT_TRUE(report->clean()) << report->ToString();
  }

 private:
  std::unique_ptr<StorageSystem> sys_;
  std::unique_ptr<LargeObjectManager> mgr_;
  ObjectId id_ = 0;
  std::string model_;
  Cost last_cost_;
};

/// Every op of the table at the offsets 0, 1, P-1, P, bytes-1 and bytes
/// of every leaf, each on a fresh object built by `appends`, whose leaves
/// must hold `leaf_bytes`. With `then_append`, each op is followed by a
/// 5000-byte append.
void RunEdgeTable(MakeManager make, const std::vector<size_t>& appends,
                  const std::vector<uint64_t>& leaf_bytes, bool then_append) {
  const std::vector<Leaf> leaves = Subject(make, appends).Leaves();
  ASSERT_EQ(leaves.size(), leaf_bytes.size());
  for (size_t i = 0; i < leaves.size(); ++i) {
    ASSERT_EQ(leaves[i].bytes, leaf_bytes[i]) << "leaf " << i;
  }
  const std::vector<std::pair<Kind, uint64_t>> ops = {
      {Kind::kInsert, 100},  {Kind::kInsert, 5000}, {Kind::kDelete, 100},
      {Kind::kDelete, 5000}, {Kind::kReplace, 100},
  };
  for (size_t li = 0; li < leaves.size(); ++li) {
    const Leaf& leaf = leaves[li];
    for (uint64_t local : {uint64_t{0}, uint64_t{1}, kP - 1, kP,
                           leaf.bytes - 1, leaf.bytes}) {
      for (const auto& [kind, want] : ops) {
        Subject s(make, appends);
        const uint64_t off = leaf.start + local;
        const uint64_t n =
            kind == Kind::kInsert ? want : std::min(want, s.size() - off);
        if (n == 0) continue;
        const std::string what = "leaf " + std::to_string(li) + " (" +
                                 std::to_string(leaf.bytes) + " bytes) +" +
                                 std::to_string(local);
        ASSERT_NO_FATAL_FAILURE(s.Apply(kind, off, n, what));
        if (then_append) {
          ASSERT_NO_FATAL_FAILURE(s.Apply(Kind::kAppend, s.size(), 5000,
                                          what + ", then"));
        }
      }
    }
  }
}

std::unique_ptr<LargeObjectManager> MakeEsm(StorageSystem* sys) {
  return CreateEsmManager(sys, 4);
}
std::unique_ptr<LargeObjectManager> MakeEos(StorageSystem* sys) {
  return CreateEosManager(sys, 4);
}
std::unique_ptr<LargeObjectManager> MakeStarburst(StorageSystem* sys) {
  return CreateStarburstManager(sys);
}

// ESM, leaf = 4 pages (16 384 bytes). One 59 152-byte append gives leaves
// of 16 384, 16 384, 13 192 and 13 192 bytes (the append distribution of
// paper 4.2): two full leaves and two with room. Inserts into the full
// ones overflow (neighbor redistribution or an even split); inserts into
// the others splice in place; deletes rewrite, and below half a leaf they
// merge or borrow.
TEST(SpliceEdges, EsmLeaf4) {
  const std::vector<size_t> build = {59152};
  RunEdgeTable(MakeEsm, build, {16384, 16384, 13192, 13192},
               /*then_append=*/false);

  // An insert that exactly fills leaf 2: it stays one leaf, now full.
  {
    Subject s(MakeEsm, build);
    const Leaf leaf = s.Leaves()[2];
    const uint64_t room = 4 * kP - leaf.bytes;
    ASSERT_NO_FATAL_FAILURE(
        s.Apply(Kind::kInsert, leaf.start + 7, room, "fill leaf 2"));
    EXPECT_EQ(s.Leaves()[2].bytes, 4 * kP);
    EXPECT_EQ(s.Leaves().size(), 4u);
  }
  // A delete that leaves leaf 2 exactly half full: no merge.
  {
    Subject s(MakeEsm, build);
    const Leaf leaf = s.Leaves()[2];
    const uint64_t take = leaf.bytes - 2 * kP;
    ASSERT_NO_FATAL_FAILURE(
        s.Apply(Kind::kDelete, leaf.start + 11, take, "leaf 2 to half"));
    EXPECT_EQ(s.Leaves()[2].bytes, 2 * kP);
    EXPECT_EQ(s.Leaves().size(), 4u);
  }
  // One byte more and leaf 2 falls below half: it borrows from its full
  // left neighbor, and every leaf ends at least half full.
  {
    Subject s(MakeEsm, build);
    const Leaf leaf = s.Leaves()[2];
    const uint64_t take = leaf.bytes - 2 * kP + 1;
    ASSERT_NO_FATAL_FAILURE(
        s.Apply(Kind::kDelete, leaf.start + 11, take, "leaf 2 below half"));
    for (const Leaf& l : s.Leaves()) EXPECT_GE(l.bytes, 2 * kP);
  }
}

// ESM appends that no old leaf joins: every append to an empty object,
// and one leaf's capacity appended after a full last leaf (the skip keeps
// every old leaf). They write the new leaves straight from the caller's
// buffer. The leaves must take the append distribution's shape (all but
// the last two full, the rest split evenly between those two, the left one
// taking the odd byte), and each append must cost what it cost when the
// bytes were staged first: the disk calls and pages and the pool's hits,
// misses and evictions below were recorded from that build.
TEST(SpliceEdges, EsmAppendFromTheCallersBuffer) {
  struct Case {
    uint32_t leaf_pages;
    uint64_t before;  // bytes in the object before the append
    uint64_t n;       // bytes appended
    std::vector<uint64_t> leaves;
    Cost cost;
  };
  std::vector<Case> cases;
  // Costs per leaf size, in the order of the cases built below.
  const std::vector<std::vector<Cost>> costs = {
      // leaf = 1: {read calls, write calls, pages read, pages written,
      // pool hits, misses, evictions}
      {{0, 1, 0, 1, 6, 0, 0},
       {0, 1, 0, 1, 6, 0, 0},
       {0, 1, 0, 1, 6, 0, 0},
       {0, 2, 0, 2, 10, 0, 0},
       {0, 2, 0, 2, 10, 0, 0},
       {0, 3, 0, 3, 14, 0, 0},
       {0, 4, 0, 4, 18, 0, 0},
       {0, 1, 0, 1, 8, 0, 0}},
      // leaf = 4
      {{0, 1, 0, 1, 6, 0, 0},
       {0, 1, 0, 4, 6, 0, 0},
       {0, 1, 0, 4, 6, 0, 0},
       {0, 2, 0, 5, 10, 0, 0},
       {0, 2, 0, 8, 10, 0, 0},
       {0, 3, 0, 9, 14, 0, 0},
       {0, 4, 0, 14, 18, 0, 0},
       {0, 1, 0, 4, 8, 0, 0}},
      // leaf = 16
      {{0, 1, 0, 1, 6, 0, 0},
       {0, 1, 0, 16, 6, 0, 0},
       {0, 1, 0, 16, 6, 0, 0},
       {0, 2, 0, 17, 10, 0, 0},
       {0, 2, 0, 32, 10, 0, 0},
       {0, 3, 0, 33, 14, 0, 0},
       {0, 4, 0, 50, 18, 0, 0},
       {0, 1, 0, 16, 8, 0, 0}},
  };
  const uint32_t leaf_sizes[] = {1, 4, 16};
  for (size_t li = 0; li < 3; ++li) {
    const uint32_t lp = leaf_sizes[li];
    const uint64_t cap = lp * kP;
    const std::vector<std::pair<uint64_t, std::vector<uint64_t>>> empty = {
        {1, {1}},
        {cap - 1, {cap - 1}},
        {cap, {cap}},
        {cap + 1, {cap / 2 + 1, cap / 2}},
        {2 * cap, {cap, cap}},
        {2 * cap + 1, {cap, cap / 2 + 1, cap / 2}},
        {3 * cap + 7, {cap, cap, cap / 2 + 4, cap / 2 + 3}},
    };
    for (size_t i = 0; i < empty.size(); ++i) {
      cases.push_back({lp, 0, empty[i].first, empty[i].second,
                       costs[li][i]});
    }
    cases.push_back({lp, cap, cap, {cap, cap}, costs[li][empty.size()]});
  }
  for (const Case& c : cases) {
    const std::string what = "leaf=" + std::to_string(c.leaf_pages) +
                             ", append " + std::to_string(c.n) + " to " +
                             std::to_string(c.before) + " bytes";
    SCOPED_TRACE(what);
    MakeManager make = nullptr;
    switch (c.leaf_pages) {
      case 1:
        make = [](StorageSystem* sys) { return CreateEsmManager(sys, 1); };
        break;
      case 4:
        make = MakeEsm;
        break;
      default:
        make = [](StorageSystem* sys) { return CreateEsmManager(sys, 16); };
        break;
    }
    Subject s(make, c.before == 0 ? std::vector<size_t>{}
                                  : std::vector<size_t>{c.before});
    ASSERT_NO_FATAL_FAILURE(s.Apply(Kind::kAppend, s.size(), c.n, what));
    std::vector<uint64_t> got;
    for (const Leaf& l : s.Leaves()) got.push_back(l.bytes);
    EXPECT_EQ(got, c.leaves);
    EXPECT_EQ(s.last_cost(), c.cost);
  }
}

// EOS, T = 4 pages. Appends of 20 000, 40 000, 30 000 and 100 000 bytes
// grow segments of 5, 10, 20 and 40 pages (each doubling the last); the
// first three fill exactly, the last holds 46 640 bytes. A small result
// (at most 2T + 2 pages) is spliced into one fresh segment; a larger one
// splits, and only the bytes straddling the split page move.
TEST(SpliceEdges, EosT4) {
  const std::vector<size_t> build = {20000, 40000, 30000, 100000};
  RunEdgeTable(MakeEos, build, {20480, 40960, 81920, 46640},
               /*then_append=*/false);

  // Straddles in the 81 920-byte segment, far above the small-result
  // bound: an insert and deletes whose edges fall mid-page.
  Subject probe(MakeEos, build);
  const Leaf big = probe.Leaves()[2];
  ASSERT_GT(big.bytes, 2 * 4 * kP + 2 * kP + 5 * kP);
  const struct {
    Kind kind;
    uint64_t local;
    uint64_t n;
    const char* what;
  } straddles[] = {
      {Kind::kInsert, kP + 10, 100, "insert splitting page 1 mid-page"},
      {Kind::kInsert, 3 * kP - 1, 3 * kP, "insert of 3 pages at P-1"},
      {Kind::kDelete, kP + 10, 2 * kP, "interior delete ending mid-page"},
      {Kind::kDelete, kP + 10, 2 * kP - 10, "interior delete to a page end"},
      {Kind::kDelete, 0, kP + 10, "prefix delete ending mid-page"},
      {Kind::kDelete, 10, big.bytes - 10, "suffix delete from byte 10"},
  };
  for (const auto& c : straddles) {
    Subject s(MakeEos, build);
    ASSERT_NO_FATAL_FAILURE(
        s.Apply(c.kind, big.start + c.local, c.n, c.what));
  }
}

// Starburst: the same growth pattern (5, 10, 20 and 40 pages). An insert
// or delete rebuilds the tail from the segment holding its offset; the
// append after it overflows the trimmed last segment and rebuilds it to
// pattern size together with the new bytes.
TEST(SpliceEdges, StarburstTailRebuild) {
  RunEdgeTable(MakeStarburst, {20000, 40000, 30000, 100000},
               {20480, 40960, 81920, 46640}, /*then_append=*/true);
}

}  // namespace
}  // namespace lob
