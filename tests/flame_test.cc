// Tests for the hierarchical cost flamegraph: ledger labels like
// "esm.insert.esm.append" roll up under their longest observed dotted
// prefix, folded-stack output is deterministic and speedscope-parsable,
// and the conservation checks catch both structural and span/ledger
// mismatches.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "common/rng.h"
#include "core/factory.h"
#include "core/storage_system.h"
#include "obs/flame.h"
#include "obs/obs_registry.h"

namespace lob {
namespace {

IoStats MakeIo(double ms, uint64_t reads) {
  IoStats io;
  io.read_calls = reads;
  io.pages_read = reads;
  io.ms = ms;
  return io;
}

/// One finished op: the metered call lands in the ledger
/// (AttributionRecord) and the op end feeds the histograms (RecordOpEnd) —
/// the same pairing OpScope produces.
void Record(ObsRegistry* obs, const char* label, double ms, uint64_t reads) {
  const IoStats io = MakeIo(ms, reads);
  obs->AttributionRecord(label)->io += io;
  obs->RecordOpEnd(label, io);
}

TEST(FlameGraphTest, BuildsTreeFromDottedLabels) {
  ObsRegistry obs;
  Record(&obs, "esm.insert", 100, 2);
  Record(&obs, "esm.insert.esm.append", 40, 1);
  Record(&obs, "eos.read", 30, 1);

  const FlameGraph g = FlameGraph::Build(obs);
  ASSERT_EQ(g.roots().size(), 2u);
  const FlameNode& insert = g.roots().at("esm.insert");
  EXPECT_DOUBLE_EQ(insert.self_ms, 100.0);
  // The nested label hangs under its parent, keyed by the label suffix.
  ASSERT_EQ(insert.children.size(), 1u);
  const FlameNode& nested = insert.children.at("esm.append");
  EXPECT_EQ(nested.label, "esm.insert.esm.append");
  EXPECT_DOUBLE_EQ(nested.self_ms, 40.0);
  EXPECT_DOUBLE_EQ(insert.TotalMs(), 140.0);
  EXPECT_DOUBLE_EQ(g.TotalMs(), 170.0);
}

TEST(FlameGraphTest, ParentIsLongestObservedPrefix) {
  // "a.b.c" must attach under "a.b" (the longest prefix), not "a".
  ObsRegistry obs;
  Record(&obs, "a", 1, 1);
  Record(&obs, "a.b", 2, 1);
  Record(&obs, "a.b.c", 4, 1);
  const FlameGraph g = FlameGraph::Build(obs);
  const FlameNode& a = g.roots().at("a");
  ASSERT_EQ(a.children.count("b"), 1u);
  const FlameNode& b = a.children.at("b");
  ASSERT_EQ(b.children.count("c"), 1u);
  EXPECT_DOUBLE_EQ(a.TotalMs(), 7.0);
}

TEST(FlameGraphTest, DotInLabelWithoutObservedParentStaysARoot) {
  // "esm.insert" with no plain "esm" entry is a root: the prefix rule
  // only splits on labels the ledger actually observed.
  ObsRegistry obs;
  Record(&obs, "esm.insert", 5, 1);
  const FlameGraph g = FlameGraph::Build(obs);
  ASSERT_EQ(g.roots().size(), 1u);
  EXPECT_EQ(g.roots().count("esm.insert"), 1u);
}

TEST(FlameGraphTest, FoldedOutputIsSortedAndSemicolonJoined) {
  ObsRegistry obs;
  Record(&obs, "esm.insert", 100, 2);
  Record(&obs, "esm.insert.esm.append", 40, 1);
  Record(&obs, "eos.read", 30, 1);
  const FlameGraph g = FlameGraph::Build(obs);
  // Folded lines carry exclusive (self) cost in integer microseconds.
  EXPECT_EQ(g.ToFolded(),
            "eos.read 30000\n"
            "esm.insert 100000\n"
            "esm.insert;esm.append 40000\n");
}

TEST(FlameGraphTest, CheckStructurePassesWhenTotalsMatchLedger) {
  ObsRegistry obs;
  Record(&obs, "x", 10, 1);
  Record(&obs, "x.y", 5, 1);
  const FlameGraph g = FlameGraph::Build(obs);
  const FlameGraph::Check ok = g.CheckStructure(15.0);
  EXPECT_TRUE(ok.ok) << (ok.problems.empty() ? "" : ok.problems[0]);
  const FlameGraph::Check bad = g.CheckStructure(99.0);
  EXPECT_FALSE(bad.ok);
  ASSERT_FALSE(bad.problems.empty());
}

TEST(FlameGraphTest, CheckConservationComparesSpansPerLabel) {
  ObsRegistry obs;
  Record(&obs, "x", 10, 1);
  Record(&obs, "x.y", 5, 1);
  const FlameGraph g = FlameGraph::Build(obs);
  std::map<std::string, double> spans = {{"x", 10.0}, {"x.y", 5.0}};
  EXPECT_TRUE(g.CheckConservation(spans).ok);
  spans["x.y"] = 4.0;  // span disagrees with ledger
  EXPECT_FALSE(g.CheckConservation(spans).ok);
  spans["x.y"] = 5.0;
  spans["ghost"] = 1.0;  // span with no ledger entry
  EXPECT_FALSE(g.CheckConservation(spans).ok);
}

TEST(FlameGraphTest, RealWorkloadConservesAgainstTheLedger) {
  // End to end: run a small mixed workload on the real engine and check
  // the flamegraph total equals the attribution ledger total.
  StorageSystem sys;
  auto mgr = CreateEsmManager(&sys, 4);
  auto id = mgr->Create();
  ASSERT_TRUE(id.ok());
  Rng rng(7);
  std::string data(20000, 'x');
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(mgr->Append(*id, data).ok());
  std::string buf;
  ASSERT_TRUE(mgr->Read(*id, 1000, 5000, &buf).ok());
  ASSERT_TRUE(mgr->Insert(*id, 500, data.substr(0, 3000)).ok());
  ASSERT_TRUE(mgr->Delete(*id, 200, 1000).ok());

  const FlameGraph g = FlameGraph::Build(*sys.obs());
  const FlameGraph::Check c =
      g.CheckStructure(sys.obs()->AttributedTotal().ms);
  EXPECT_TRUE(c.ok) << (c.problems.empty() ? "" : c.problems[0]);
  EXPECT_GT(g.TotalMs(), 0.0);
  EXPECT_FALSE(g.ToFolded().empty());
}

}  // namespace
}  // namespace lob
