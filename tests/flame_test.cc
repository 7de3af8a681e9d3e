// Tests for the folded-stack view of a span trace (TraceSession::Folded,
// `lobtool profile --format=folded`): paths are the span tree's names
// joined with ';' depth first in name order, each line carries the node's
// self cost (its modeled ms minus its children's) in integer microseconds,
// nodes without self cost are omitted, and on a real replay the lines sum
// to the disk's modeled clock.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>

#include "common/rng.h"
#include "core/factory.h"
#include "core/storage_system.h"
#include "trace/trace_session.h"

namespace lob {
namespace {

/// Disk counters after `reads` one-page reads and `writes` one-page
/// writes at 10 ms each.
IoStats Counters(uint64_t reads, uint64_t writes) {
  IoStats io;
  io.read_calls = reads;
  io.pages_read = reads;
  io.write_calls = writes;
  io.pages_written = writes;
  io.ms = 10.0 * static_cast<double>(reads + writes);
  return io;
}

/// Records one closed span from `open` to `close`.
void Span(TraceSession* s, const char* name, SpanKind kind,
          const IoStats& open, const IoStats& close) {
  s->EndSpan(s->BeginSpan(name, kind, open), close);
}

std::string FoldedOf(const TraceSession& s) {
  return TraceSession::Folded(s.Summarize());
}

TEST(FoldedTest, PathsAreSortedAndSemicolonJoined) {
  TraceSession s;
  const size_t insert = s.BeginSpan("esm.insert", SpanKind::kOp,
                                    Counters(0, 0));
  Span(&s, "tree.descend", SpanKind::kPhase, Counters(0, 0), Counters(1, 0));
  Span(&s, "esm.insert.esm.append", SpanKind::kOp, Counters(1, 0),
       Counters(1, 2));
  s.EndSpan(insert, Counters(1, 3));
  const size_t read = s.BeginSpan("eos.read", SpanKind::kOp, Counters(1, 3));
  Span(&s, "pool.miss", SpanKind::kPhase, Counters(1, 3), Counters(2, 3));
  s.EndSpan(read, Counters(3, 3));

  // Roots and siblings in name order, each child right after its parent.
  EXPECT_EQ(FoldedOf(s),
            "eos.read 10000\n"
            "eos.read;pool.miss 10000\n"
            "esm.insert 10000\n"
            "esm.insert;esm.insert.esm.append 20000\n"
            "esm.insert;tree.descend 10000\n");
}

TEST(FoldedTest, SelfCostIsNodeMinusChildren) {
  // Two eos.read spans merge into one node of 60 ms; their pool.miss
  // children merge into 20 ms, leaving 40 ms of self cost on the op.
  TraceSession s;
  for (uint64_t i = 0; i < 2; ++i) {
    const size_t op =
        s.BeginSpan("eos.read", SpanKind::kOp, Counters(3 * i, 0));
    Span(&s, "pool.miss", SpanKind::kPhase, Counters(3 * i, 0),
         Counters(3 * i + 1, 0));
    s.EndSpan(op, Counters(3 * i + 3, 0));
  }
  EXPECT_EQ(FoldedOf(s),
            "eos.read 40000\n"
            "eos.read;pool.miss 20000\n");
}

TEST(FoldedTest, ZeroSelfNodesAreOmitted) {
  // "x" is all child cost and "idle" did no I/O: neither gets a line,
  // but x's child keeps its full path.
  TraceSession s;
  const size_t x = s.BeginSpan("x", SpanKind::kOp, Counters(0, 0));
  Span(&s, "y", SpanKind::kPhase, Counters(0, 0), Counters(2, 0));
  s.EndSpan(x, Counters(2, 0));
  Span(&s, "idle", SpanKind::kOp, Counters(2, 0), Counters(2, 0));
  EXPECT_EQ(FoldedOf(s), "x;y 20000\n");
  EXPECT_EQ(TraceSession::Folded(TraceSession::SummaryNode()), "");
}

class FoldedReplayTest : public ::testing::TestWithParam<int> {};

TEST_P(FoldedReplayTest, MixedWorkloadSumsToModeledMs) {
  TraceSession session;
  StorageSystem sys;
  sys.disk()->set_trace(&session);
  sys.ResetStats();
  std::unique_ptr<LargeObjectManager> mgr =
      GetParam() == 0   ? CreateEsmManager(&sys, 4)
      : GetParam() == 1 ? CreateStarburstManager(&sys)
                        : CreateEosManager(&sys, 4);
  auto id = mgr->Create();
  ASSERT_TRUE(id.ok());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        mgr->Append(*id, std::string(30000, static_cast<char>('a' + i)))
            .ok());
  }
  Rng rng(11);
  std::string buf;
  for (int i = 0; i < 16; ++i) {
    auto size = mgr->Size(*id);
    ASSERT_TRUE(size.ok());
    const uint64_t off = rng.Next() % *size;
    const uint64_t len = std::min<uint64_t>(4000, *size - off);
    switch (i % 3) {
      case 0:
        ASSERT_TRUE(mgr->Read(*id, off, len, &buf).ok());
        break;
      case 1:
        ASSERT_TRUE(mgr->Insert(*id, off, std::string(2500, 'z')).ok());
        break;
      default:
        ASSERT_TRUE(mgr->Delete(*id, off, len).ok());
        break;
    }
  }
  sys.disk()->set_trace(nullptr);

  const std::string folded = FoldedOf(session);
  ASSERT_FALSE(folded.empty());
  std::istringstream lines(folded);
  std::string line;
  long long total_us = 0;
  bool saw_pool = false;
  while (std::getline(lines, line)) {
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const long long us = std::atoll(line.c_str() + space + 1);
    EXPECT_GT(us, 0) << line;
    total_us += us;
    saw_pool = saw_pool || line.find(";pool.") != std::string::npos;
  }
  EXPECT_TRUE(saw_pool) << "buffer pool phases show up as frames";
  EXPECT_EQ(total_us, std::llround(sys.stats().ms * 1000.0));
}

std::string ReplayEngineName(const ::testing::TestParamInfo<int>& info) {
  return info.param == 0 ? "Esm" : info.param == 1 ? "Starburst" : "Eos";
}

INSTANTIATE_TEST_SUITE_P(Engines, FoldedReplayTest, ::testing::Values(0, 1, 2),
                         ReplayEngineName);

}  // namespace
}  // namespace lob
