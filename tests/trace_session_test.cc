// Tests for the modeled-clock span tracing subsystem (src/trace):
//
// * TraceSession mechanics: strict nesting, parent wiring, each span
//   keeping the IoStats delta of its scope, and name interning.
// * Chrome trace-event / Perfetto JSON export shape and determinism.
// * The hook layer: OpScope opens kOp spans with the composed ledger
//   label on the disk's counters, UnmeteredSection suspends recording.
// * Spans are views of the one meter: per operation label, the op spans'
//   I/O minus their nested op spans' I/O equals the ledger's exclusive
//   IoStats field by field, and the root spans sum to the global stats —
//   for all three engines over a mixed workload.
// * TimelineSampler: the final sample reproduces the final MixPoint's
//   utilization (the paper's Figure 7/8 endpoints), and the CSV exporter
//   escapes labels per RFC 4180.
// * Thread-safety by isolation: per-job sessions through ParallelRunner
//   (run under TSan by scripts/check.sh).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/csv.h"
#include "common/rng.h"
#include "core/factory.h"
#include "core/storage_system.h"
#include "disk_test_util.h"
#include "exec/parallel_runner.h"
#include "obs/obs_registry.h"
#include "obs/op_scope.h"
#include "trace/timeline.h"
#include "trace/trace_session.h"
#include "workload/workload.h"

namespace lob {
namespace {

std::string Pattern(uint64_t seed, size_t n) {
  std::string out(n, '\0');
  Rng rng(seed);
  for (auto& c : out) c = static_cast<char>('a' + rng.Uniform(0, 25));
  return out;
}

/// Disk counters after `reads` one-page reads and `writes` one-page
/// writes at 10 ms each: the snapshots spans open and close on.
IoStats Counters(uint64_t reads, uint64_t writes) {
  IoStats io;
  io.read_calls = reads;
  io.pages_read = reads;
  io.write_calls = writes;
  io.pages_written = writes;
  io.ms = 10.0 * static_cast<double>(reads + writes);
  return io;
}

void ExpectSameIo(const IoStats& a, const IoStats& b, const std::string& what) {
  EXPECT_EQ(a.read_calls, b.read_calls) << what;
  EXPECT_EQ(a.write_calls, b.write_calls) << what;
  EXPECT_EQ(a.pages_read, b.pages_read) << what;
  EXPECT_EQ(a.pages_written, b.pages_written) << what;
  EXPECT_DOUBLE_EQ(a.ms, b.ms) << what;
}

// ---------------------------------------------------------------------------
// TraceSession mechanics

TEST(TraceSessionTest, SpansNestAndKeepTheCounterDeltaOfTheirScope) {
  TraceSession s;
  const size_t op = s.BeginSpan("eos.insert", SpanKind::kOp, Counters(1, 0));
  const size_t phase =
      s.BeginSpan("tree.descend", SpanKind::kPhase, Counters(2, 0));
  s.EndSpan(phase, Counters(4, 0));
  s.EndSpan(op, Counters(4, 3));

  ASSERT_EQ(s.events().size(), 2u);
  const auto& events = s.events();
  EXPECT_EQ(s.Name(events[0].name_id), "eos.insert");
  EXPECT_EQ(events[0].parent, -1);
  EXPECT_DOUBLE_EQ(events[0].start_ms, 10.0);
  ExpectSameIo(events[0].io, Counters(3, 3), "op");  // io.ms is 60 ms
  EXPECT_EQ(s.Name(events[1].name_id), "tree.descend");
  EXPECT_EQ(events[1].parent, 0);
  EXPECT_DOUBLE_EQ(events[1].start_ms, 20.0);
  ExpectSameIo(events[1].io, Counters(2, 0), "phase");
  EXPECT_EQ(s.open_spans(), 0u);
}

TEST(TraceSessionTest, NamesAreInternedOnce) {
  TraceSession s;
  const uint32_t a = s.InternName("buddy.alloc");
  const uint32_t b = s.InternName("buddy.alloc");
  const uint32_t c = s.InternName("buddy.free");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(TraceSessionTest, SummarizeMergesSiblingSpansByName) {
  TraceSession s;
  for (uint64_t i = 0; i < 3; ++i) {
    const size_t op =
        s.BeginSpan("eos.read", SpanKind::kOp, Counters(2 * i, 0));
    const size_t miss =
        s.BeginSpan("pool.miss", SpanKind::kPhase, Counters(2 * i, 0));
    s.EndSpan(miss, Counters(2 * i + 1, 0));
    s.EndSpan(op, Counters(2 * i + 2, 0));
  }
  const TraceSession::SummaryNode root = s.Summarize();
  ASSERT_EQ(root.children.count("eos.read"), 1u);
  const auto& op_node = root.children.at("eos.read");
  EXPECT_EQ(op_node.count, 3u);
  EXPECT_DOUBLE_EQ(op_node.io.ms, 60.0);
  EXPECT_EQ(op_node.io.read_calls, 6u);
  ASSERT_EQ(op_node.children.count("pool.miss"), 1u);
  const auto& miss_node = op_node.children.at("pool.miss");
  EXPECT_EQ(miss_node.count, 3u);
  EXPECT_EQ(miss_node.io.read_calls, 3u);
  EXPECT_EQ(miss_node.io.pages_read, 3u);
  EXPECT_DOUBLE_EQ(miss_node.io.ms, 30.0);
}

// ---------------------------------------------------------------------------
// Chrome trace-event / Perfetto JSON export

TEST(TraceSessionTest, ChromeTraceJsonShape) {
  TraceSession s;
  IoStats start = Counters(0, 0);
  start.ms = 1.5;
  const size_t op = s.BeginSpan("eos.insert", SpanKind::kOp, start);
  const size_t idle = s.BeginSpan("tree.descend", SpanKind::kPhase, start);
  s.EndSpan(idle, start);  // no I/O: no args
  IoStats end = start;
  end.read_calls = 1;
  end.pages_read = 4;
  end.ms = 3.5;
  s.EndSpan(op, end);
  const std::string json =
      TraceSession::ChromeTraceJson({{"mean_op=100/EOS", &s}});
  // Document shell.
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\": ["), std::string::npos);
  // Process-name metadata record for the cell label.
  EXPECT_NE(json.find("\"ph\": \"M\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"mean_op=100/EOS\""), std::string::npos);
  // Complete events with category + microsecond timestamps (1.5 ms op).
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"op\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"phase\""), std::string::npos);
  EXPECT_EQ(json.find("\"cat\": \"io\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\": 1500.000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\": 2000.000"), std::string::npos);
  // The op span's I/O rides along as args; the idle phase carries none.
  EXPECT_NE(json.find("\"args\": {\"reads\": 1, \"writes\": 0, "
                      "\"pages\": 4}"),
            std::string::npos);
  EXPECT_EQ(json.find("\"reads\""), json.rfind("\"reads\""));
  // Balanced document (cheap well-formedness check).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(TraceSessionTest, ChromeTraceJsonMergesSessionsInGivenOrder) {
  TraceSession a;
  const size_t sa = a.BeginSpan("one", SpanKind::kOp, Counters(0, 0));
  a.EndSpan(sa, Counters(1, 0));
  TraceSession b;
  const size_t sb = b.BeginSpan("two", SpanKind::kOp, Counters(0, 0));
  b.EndSpan(sb, Counters(0, 1));
  const std::string json =
      TraceSession::ChromeTraceJson({{"cell-a", &a}, {"cell-b", &b}});
  const size_t pos_a = json.find("cell-a");
  const size_t pos_b = json.find("cell-b");
  ASSERT_NE(pos_a, std::string::npos);
  ASSERT_NE(pos_b, std::string::npos);
  EXPECT_LT(pos_a, pos_b);
  // pids distinguish the sessions.
  EXPECT_NE(json.find("\"pid\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"pid\": 1"), std::string::npos);
  // Same inputs, same bytes: the export is a pure function.
  EXPECT_EQ(json, TraceSession::ChromeTraceJson({{"cell-a", &a},
                                                 {"cell-b", &b}}));
}

// ---------------------------------------------------------------------------
// CSV escaping shared by the timeline exporter and lobtool stats

TEST(CsvEscapeTest, PlainFieldsAreByteStable) {
  EXPECT_EQ(CsvEscape("eos.read"), "eos.read");
  EXPECT_EQ(CsvEscape(""), "");
}

TEST(CsvEscapeTest, SpecialCharactersQuotePerRfc4180) {
  EXPECT_EQ(CsvEscape("mean_op=100,EOS"), "\"mean_op=100,EOS\"");
  EXPECT_EQ(CsvEscape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvEscape("a\nb"), "\"a\nb\"");
  EXPECT_EQ(CsvEscape("a\rb"), "\"a\rb\"");
}

// ---------------------------------------------------------------------------
// Hook layer: OpScope spans on the SimDisk counters

TEST(TraceHooksTest, OpScopeSpansAreViewsOfTheDiskCounters) {
  StorageConfig cfg;
  SimDisk disk(cfg);
  TraceSession session;
  disk.set_trace(&session);
  const AreaId area = disk.CreateArea();
  std::string page(cfg.page_size, 'x');
  {
    OpScope op(&disk, "outer");
    ASSERT_TRUE(WritePages(&disk, area, 0, 1, page.data()).ok());
    {
      OpScope inner(&disk, "inner");
      ASSERT_TRUE(ReadPages(&disk, area, 0, 1, page.data()).ok());
    }
  }
  disk.set_trace(nullptr);
  ASSERT_TRUE(WritePages(&disk, area, 1, 1, page.data()).ok());  // not recorded

  ASSERT_EQ(session.events().size(), 2u);
  const auto& ev = session.events();
  EXPECT_EQ(session.Name(ev[0].name_id), "outer");
  EXPECT_EQ(ev[0].kind, SpanKind::kOp);
  // The nested scope's span carries the composed ledger label, so span
  // attribution and ledger attribution agree by construction.
  EXPECT_EQ(session.Name(ev[1].name_id), "outer.inner");
  EXPECT_EQ(ev[1].kind, SpanKind::kOp);
  EXPECT_EQ(ev[1].parent, 0);
  // Each span holds exactly the calls the disk metered inside it.
  const double call_ms = kSeekMs + cfg.PageTransferMs();
  EXPECT_EQ(ev[0].io.write_calls, 1u);
  EXPECT_EQ(ev[0].io.read_calls, 1u);
  EXPECT_EQ(ev[0].io.PagesTransferred(), 2u);
  EXPECT_DOUBLE_EQ(ev[0].io.ms, 2 * call_ms);
  EXPECT_EQ(ev[1].io.write_calls, 0u);
  EXPECT_EQ(ev[1].io.read_calls, 1u);
  EXPECT_DOUBLE_EQ(ev[1].io.ms, call_ms);
  EXPECT_DOUBLE_EQ(ev[1].start_ms, call_ms);
}

TEST(TraceHooksTest, UnmeteredSectionSuspendsRecording) {
  StorageSystem sys;
  auto mgr = CreateEosManager(&sys, 4);
  auto id = mgr->Create();
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(mgr->Append(*id, Pattern(1, 100000)).ok());

  TraceSession session;
  sys.disk()->set_trace(&session);
  {
    StorageSystem::UnmeteredSection unmetered(&sys);
    std::string buf;
    ASSERT_TRUE(mgr->Read(*id, 0, 100000, &buf).ok());
  }
  EXPECT_TRUE(session.empty()) << "unmetered I/O must not produce spans";
  std::string buf;
  ASSERT_TRUE(mgr->Read(*id, 0, 1000, &buf).ok());
  sys.disk()->set_trace(nullptr);
  EXPECT_FALSE(session.empty());
}

// ---------------------------------------------------------------------------
// Spans are views of the ledger's meter, all three engines

class TraceConservationTest : public ::testing::TestWithParam<int> {
 protected:
  TraceConservationTest() {
    switch (GetParam()) {
      case 0:
        mgr_ = CreateEsmManager(&sys_, 4);
        break;
      case 1:
        mgr_ = CreateStarburstManager(&sys_);
        break;
      default:
        mgr_ = CreateEosManager(&sys_, 4);
        break;
    }
    sys_.disk()->set_trace(&session_);
  }
  ~TraceConservationTest() override { sys_.disk()->set_trace(nullptr); }

  StorageSystem sys_;
  TraceSession session_;
  std::unique_ptr<LargeObjectManager> mgr_;
};

TEST_P(TraceConservationTest, OpSpansMinusNestedOpSpansEqualTheLedger) {
  auto id = mgr_->Create();
  ASSERT_TRUE(id.ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        mgr_->Append(*id, Pattern(static_cast<uint64_t>(i), 40000)).ok());
  }
  Rng rng(7);
  std::string buf;
  for (int i = 0; i < 24; ++i) {
    auto size = mgr_->Size(*id);
    ASSERT_TRUE(size.ok());
    const uint64_t sz = *size;
    const uint64_t off = sz == 0 ? 0 : rng.Next() % sz;
    switch (i % 4) {
      case 0:
        ASSERT_TRUE(
            mgr_->Read(*id, off, std::min<uint64_t>(8000, sz - off), &buf)
                .ok());
        break;
      case 1:
        ASSERT_TRUE(mgr_->Insert(*id, off, Pattern(rng.Next(), 3000)).ok());
        break;
      case 2:
        ASSERT_TRUE(
            mgr_->Delete(*id, off, std::min<uint64_t>(2500, sz - off)).ok());
        break;
      default: {
        const uint64_t len = std::min<uint64_t>(1500, sz - off);
        ASSERT_TRUE(mgr_->Replace(*id, off, Pattern(rng.Next(), len)).ok());
        break;
      }
    }
  }
  ASSERT_FALSE(session_.empty());
  EXPECT_EQ(session_.open_spans(), 0u);

  // Exclusive I/O of each op span: its own I/O minus that of the op spans
  // nested in it (directly or under phase spans). The ledger charges each
  // call to the innermost label, so per label the two must agree field
  // by field.
  const auto& events = session_.events();
  std::vector<IoStats> exclusive(events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i].kind != SpanKind::kOp) continue;
    exclusive[i] = events[i].io;
    int32_t p = events[i].parent;
    while (p >= 0 && events[static_cast<size_t>(p)].kind != SpanKind::kOp) {
      p = events[static_cast<size_t>(p)].parent;
    }
    if (p >= 0) {
      IoStats& outer = exclusive[static_cast<size_t>(p)];
      outer = outer - events[i].io;
    }
  }
  std::map<std::string, IoStats> by_label;
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i].kind == SpanKind::kOp) {
      by_label[session_.Name(events[i].name_id)] += exclusive[i];
    }
  }
  const ObsRegistry* obs = sys_.obs();
  ASSERT_NE(obs, nullptr);
  for (const auto& [label, io] : by_label) {
    ASSERT_EQ(obs->ops().count(label), 1u) << label;
    ExpectSameIo(io, obs->ops().at(label).io, label);
  }
  // Every op ran traced, so every ledger label has its op spans.
  for (const auto& [label, rec] : obs->ops()) {
    EXPECT_EQ(by_label.count(label), 1u) << label;
  }

  // The root spans cover every metered call: they sum to the global
  // stats.
  IoStats roots;
  for (const TraceSession::Event& e : events) {
    if (e.parent < 0) roots += e.io;
  }
  ExpectSameIo(roots, sys_.stats(), "root spans vs global stats");
}

std::string TraceEngineName(const ::testing::TestParamInfo<int>& info) {
  return info.param == 0 ? "Esm" : info.param == 1 ? "Starburst" : "Eos";
}

INSTANTIATE_TEST_SUITE_P(Engines, TraceConservationTest,
                         ::testing::Values(0, 1, 2), TraceEngineName);

// ---------------------------------------------------------------------------
// Thread-safety by isolation: per-job sessions through the fan-out runner
// (scripts/check.sh runs this suite under TSan).

TEST(TraceConcurrencyTest, PerJobSessionsAreIndependentAndDeterministic) {
  ParallelRunner runner(4);
  const size_t kJobs = 8;
  std::vector<std::unique_ptr<TraceSession>> sessions;
  for (size_t i = 0; i < kJobs; ++i) {
    sessions.push_back(std::make_unique<TraceSession>());
  }
  Mapped<double> mapped = runner.Map<double>(
      kJobs, [&sessions](size_t i, JobOutput* out) {
        StorageSystem sys;
        sys.disk()->set_trace(sessions[i].get());
        auto mgr = CreateEosManager(&sys, 4);
        auto id = mgr->Create();
        if (!id.ok()) throw std::runtime_error("create failed");
        MixSpec mix;
        mix.mean_op_bytes = 2000;
        mix.total_ops = 120;
        mix.window_ops = 40;
        auto built = BuildObject(&sys, mgr.get(), *id, 200000, 10000);
        if (!built.ok()) throw std::runtime_error("build failed");
        auto points = RunUpdateMix(&sys, mgr.get(), *id, mix);
        if (!points.ok()) throw std::runtime_error("mix failed");
        sys.disk()->set_trace(nullptr);
        out->SetModeledMs(sys.stats().ms);
        return sys.stats().ms;
      });
  // Identical jobs, private state: every job reproduces the same modeled
  // cost and the same trace bytes.
  const std::string first_json =
      TraceSession::ChromeTraceJson({{"job", sessions[0].get()}});
  EXPECT_FALSE(sessions[0]->empty());
  for (size_t i = 1; i < kJobs; ++i) {
    EXPECT_DOUBLE_EQ(mapped.values[i], mapped.values[0]) << i;
    EXPECT_EQ(TraceSession::ChromeTraceJson({{"job", sessions[i].get()}}),
              first_json)
        << i;
  }
}

// ---------------------------------------------------------------------------
// TimelineSampler

TEST(TimelineTest, FinalSampleReproducesFinalMixPointUtilization) {
  StorageSystem sys;
  auto mgr = CreateEosManager(&sys, 4);
  auto id = mgr->Create();
  ASSERT_TRUE(id.ok());
  auto built = BuildObject(&sys, mgr.get(), *id, 400000, 10000);
  ASSERT_TRUE(built.ok());

  TimelineSampler sampler(100);
  MixSpec mix;
  mix.mean_op_bytes = 2000;
  mix.total_ops = 250;  // not a multiple of every_n: exercises the
  mix.window_ops = 50;  // explicit final-op sample
  mix.timeline = &sampler;
  auto points = RunUpdateMix(&sys, mgr.get(), *id, mix);
  ASSERT_TRUE(points.ok());
  ASSERT_FALSE(points->empty());

  const auto& samples = sampler.samples();
  // op 0 baseline, ops 100 and 200, final op 250.
  ASSERT_EQ(samples.size(), 4u);
  EXPECT_EQ(samples.front().ops_done, 0u);
  EXPECT_EQ(samples[1].ops_done, 100u);
  EXPECT_EQ(samples.back().ops_done, 250u);
  // Figure 7/8 endpoint: the last sample's utilization is exactly the
  // last MixPoint's.
  EXPECT_DOUBLE_EQ(samples.back().utilization,
                   points->back().utilization);
  for (const TimelineSample& s : samples) {
    EXPECT_GT(s.object_bytes, 0u);
    EXPECT_GE(s.allocated_bytes, s.object_bytes);
    EXPECT_GT(s.segments, 0u);
    EXPECT_LE(s.seg_bytes_min, s.seg_bytes_max);
    EXPECT_GE(s.seg_bytes_mean, static_cast<double>(s.seg_bytes_min));
    EXPECT_LE(s.seg_bytes_mean, static_cast<double>(s.seg_bytes_max));
    EXPECT_GT(s.utilization, 0.0);
    EXPECT_LE(s.utilization, 1.0);
  }
  // The modeled clock is monotone across samples (sampling itself is
  // unmetered).
  for (size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GE(samples[i].modeled_ms, samples[i - 1].modeled_ms);
  }
}

TEST(TimelineTest, SamplingDoesNotPerturbMeasuredCosts) {
  auto run = [](TimelineSampler* sampler) {
    StorageSystem sys;
    auto mgr = CreateEosManager(&sys, 4);
    auto id = mgr->Create();
    EXPECT_TRUE(id.ok());
    EXPECT_TRUE(BuildObject(&sys, mgr.get(), *id, 300000, 10000).ok());
    MixSpec mix;
    mix.mean_op_bytes = 2000;
    mix.total_ops = 200;
    mix.window_ops = 50;
    mix.timeline = sampler;
    auto points = RunUpdateMix(&sys, mgr.get(), *id, mix);
    EXPECT_TRUE(points.ok());
    return sys.stats().ms;
  };
  TimelineSampler sampler(25);
  EXPECT_DOUBLE_EQ(run(nullptr), run(&sampler));
}

TEST(TimelineTest, CsvExportEscapesLabelsAndEmitsOneRowPerSample) {
  TimelineSampler sampler(10);
  TimelineSample s;
  s.ops_done = 10;
  s.modeled_ms = 12.5;
  s.object_bytes = 1000;
  s.allocated_bytes = 2000;
  s.utilization = 0.5;
  s.segments = 3;
  s.seg_bytes_min = 100;
  s.seg_bytes_mean = 333.3;
  s.seg_bytes_max = 600;
  s.free_pages = 7;
  s.largest_free_extent = 4;
  s.free_extents[1] = 3;
  s.free_extents[4] = 1;
  sampler.Add(s);
  sampler.Add(s);

  std::string csv = TimelineSampler::CsvHeader();
  EXPECT_EQ(csv.find("config,ops,modeled_ms"), 0u);
  const size_t header_len = csv.size();
  sampler.AppendCsv("mean_op=100,EOS cks", &csv);
  const std::string body = csv.substr(header_len);
  // The comma-bearing label is quoted...
  EXPECT_EQ(body.find("\"mean_op=100,EOS cks\",10,"), 0u) << body;
  // ...one row per sample...
  EXPECT_EQ(std::count(body.begin(), body.end(), '\n'), 2);
  // ...and the free-extent histogram serializes as pages:count pairs.
  EXPECT_NE(body.find("1:3;4:1"), std::string::npos) << body;
}

}  // namespace
}  // namespace lob
