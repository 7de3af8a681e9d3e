// lobbench: runs one workload of the repository benchmark and prints its
// metrics as one JSON line on stdout (progress goes to stderr).
//
//   lobbench --workload doc_edit|media_stream|catalog_churn --seed N
//            [--seconds S] [--ops N] [--spans PATH]
//   lobbench --self-test
//
// A run is a sequence of rounds. Each round builds a fresh store (timed as
// setup_s), replays the same fixed list of ops with one closed-loop client
// and no think time (the timed window), and then checks, untimed: every
// op's Status, sampled reads against the generator's oracle, fsck, and in
// the first round every object's bytes. Rounds repeat until they add up to
// --seconds, at least kMinRounds times. Every round replays the same state
// sequence, so faster code measures more rounds of the same states, never
// further states; the exact metrics must repeat in every round, and each
// wall figure is the median of its per-round values.
//
// The window is the time spent inside ops: the client's own checks between
// ops are think time it does not have. Flushing is the library's own per-op
// policy; nothing calls Save or FlushAll.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "lobbench/trace.h"
#include "lobbench/workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kMinRounds = 3;
/// A latency percentile is printed only with this many samples beyond it.
constexpr uint64_t kMinBeyond = 10;
constexpr uint64_t kBytePoolSpan = 16 * 1024 * 1024;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

uint64_t Ns(Clock::duration d) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}

[[noreturn]] void Fail(const std::string& what) {
  std::fprintf(stderr, "lobbench: FAILED: %s\n", what.c_str());
  std::exit(1);
}

/// Nearest-rank `pct` percentile of sorted samples. Refuses (returns false)
/// when fewer than kMinBeyond samples lie beyond the rank, so no tail is
/// reported that a handful of samples decide.
bool GuardedPercentile(const std::vector<uint64_t>& sorted, uint64_t pct,
                       uint64_t* value) {
  const uint64_t n = sorted.size();
  const uint64_t rank = std::max<uint64_t>(1, (pct * n + 99) / 100);
  if (n == 0 || n - rank < kMinBeyond) return false;
  *value = sorted[rank - 1];
  return true;
}

/// Metrics that are a pure function of (workload, seed, op count): they
/// must repeat in every round, across runs and between the two builds.
struct Exact {
  double modeled_read_ms = 0;
  double modeled_write_ms = 0;
  double space_amp = 0;
  double read_amp = 0;
  double write_amp = 0;
  double hit_rate = 0;
  double evictions_per_op = 0;
  uint64_t free_chunks = 0;
  uint64_t largest_free_pages = 0;
  uint64_t max_height = 0;
  uint64_t catalog_pages = 0;
  bool operator==(const Exact&) const = default;
};

/// Wall figures of one round; a run reports the median of each over rounds.
struct RoundWall {
  double setup_s = 0;
  double ops_per_s = 0;
  double read_p50_us = 0, read_p99_us = 0;
  double write_p50_us = 0, write_p99_us = 0;
};

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// What one timed window produced besides its latencies.
struct Window {
  uint64_t failed = 0;
  std::string first_error;
  std::vector<uint64_t> hashes;
  uint64_t busy_ns = 0;
  uint64_t reads = 0, writes = 0;
  double read_ms = 0, write_ms = 0;
  uint64_t bytes_read = 0, bytes_written = 0;
  lob::IoStats io;
  uint64_t hits = 0, misses = 0, evictions = 0;
};

Window RunWindow(Store& store, const Plan& plan,
                 std::vector<uint64_t>* read_ns,
                 std::vector<uint64_t>* write_ns) {
  Window w;
  lob::StorageSystem* sys = store.sys();
  const lob::IoStats io0 = sys->stats();
  const uint64_t hits0 = sys->pool()->hits();
  const uint64_t misses0 = sys->pool()->misses();
  const uint64_t evictions0 = sys->pool()->evictions();
  std::string out;
  trace::BeginWindow();
  for (size_t i = 0; i < plan.ops.size(); ++i) {
    const Op& op = plan.ops[i];
    trace::SetOp(static_cast<uint32_t>(i));
    const double ms0 = sys->stats().ms;
    const Clock::time_point t0 = Clock::now();
    lob::Status st;
    {
      ScopedSpan span(Site::kOp);
      st = store.Execute(op, &out);
    }
    const uint64_t ns = Ns(Clock::now() - t0);
    const double ms = sys->stats().ms - ms0;
    w.busy_ns += ns;
    if (IsRead(op.kind)) {
      read_ns->push_back(ns);
      ++w.reads;
      w.read_ms += ms;
      w.bytes_read += out.size();
      if (op.sampled) w.hashes.push_back(Hash(out));
    } else {
      write_ns->push_back(ns);
      ++w.writes;
      w.write_ms += ms;
      if (op.kind != OpKind::kDelete) w.bytes_written += op.len;
    }
    if (!st.ok() && w.failed++ == 0) {
      w.first_error = "op " + std::to_string(i) + ": " + st.ToString();
    }
  }
  trace::EndWindow();
  w.io = lob::IoStats::Delta(io0, sys->stats());
  w.hits = sys->pool()->hits() - hits0;
  w.misses = sys->pool()->misses() - misses0;
  w.evictions = sys->pool()->evictions() - evictions0;
  return w;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

Exact ComputeExact(Store& store, const Plan& plan, const Window& w) {
  lob::StorageSystem* sys = store.sys();
  const double page = sys->config().page_size;
  Exact e;
  e.modeled_read_ms = Ratio(w.read_ms, static_cast<double>(w.reads));
  e.modeled_write_ms = Ratio(w.write_ms, static_cast<double>(w.writes));
  e.space_amp = Ratio(static_cast<double>(sys->AllocatedBytes()),
                      static_cast<double>(plan.live_bytes_at_end));
  e.read_amp = Ratio(static_cast<double>(w.io.pages_read) * page,
                     static_cast<double>(w.bytes_read));
  e.write_amp = Ratio(static_cast<double>(w.io.pages_written) * page,
                      static_cast<double>(w.bytes_written));
  e.hit_rate = Ratio(static_cast<double>(w.hits),
                     static_cast<double>(w.hits + w.misses));
  e.evictions_per_op = Ratio(static_cast<double>(w.evictions),
                             static_cast<double>(plan.ops.size()));
  std::map<uint32_t, uint64_t> chunks;
  for (lob::DatabaseArea* area : {sys->meta_area(), sys->leaf_area()}) {
    area->AccumulateFreeChunks(&chunks);
    e.largest_free_pages =
        std::max<uint64_t>(e.largest_free_pages, area->LargestFreeExtent());
  }
  for (const auto& [size, count] : chunks) e.free_chunks += count;
  auto height = store.MaxTreeHeight();
  if (!height.ok()) Fail("tree height: " + height.status().ToString());
  e.max_height = *height;
  auto pages = store.CatalogPages();
  if (!pages.ok()) Fail("catalog pages: " + pages.status().ToString());
  e.catalog_pages = *pages;
  return e;
}

/// Untimed correctness checks after a round's window.
void CheckRound(Store& store, const Plan& plan, const BytePool& pool,
                const Window& w, bool full) {
  if (w.failed != 0) {
    Fail(std::to_string(w.failed) + " of " + std::to_string(plan.ops.size()) +
         " ops failed; first: " + w.first_error);
  }
  if (w.hashes.size() != plan.expected.size()) Fail("sampled read count");
  for (size_t i = 0; i < w.hashes.size(); ++i) {
    if (w.hashes[i] != plan.expected[i]) {
      Fail("sampled read " + std::to_string(i) + " differs from the oracle");
    }
  }
  auto report = store.Fsck();
  if (!report.ok()) Fail("fsck: " + report.status().ToString());
  if (!report->clean()) Fail("fsck:\n" + report->ToString());
  if (!full) return;
  std::string got, want;
  for (size_t s = 0; s < plan.final_content.size(); ++s) {
    if (!plan.live_at_end[s]) continue;
    const Content& c = plan.final_content[s];
    lob::Status st = store.ReadAll(static_cast<uint32_t>(s), &got);
    if (!st.ok()) Fail("reading object " + std::to_string(s) + ": " +
                       st.ToString());
    c.Gather(pool, 0, c.size(), &want);
    if (got != want) {
      Fail("object " + std::to_string(s) + " differs from the oracle");
    }
  }
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  uint64_t ops = 0;
  std::string spans;
  bool self_test = false;
};

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      a.self_test = true;
      continue;
    }
    if (i + 1 >= argc) Fail("missing value for " + flag);
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
    } else if (flag == "--ops") {
      a.ops = std::strtoull(v, &end, 10);
    } else if (flag == "--spans") {
      a.spans = v;
    } else {
      Fail("unknown flag " + flag);
    }
    if (end != nullptr && (*end != '\0' || end == v)) {
      Fail("bad value for " + flag + ": " + v);
    }
  }
  return a;
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Unit checks of lobbench's own rules, run by perfbench/test_perfbench.py.
int SelfTest() {
  // Percentile guard: p99 of n samples has n - ceil(0.99 n) samples beyond.
  std::vector<uint64_t> s(999);
  for (size_t i = 0; i < s.size(); ++i) s[i] = i;
  uint64_t v = 0;
  if (GuardedPercentile(s, 99, &v)) Fail("p99 of 999 samples was printed");
  s.push_back(999);
  if (!GuardedPercentile(s, 99, &v) || v != 989) {
    Fail("p99 of 1000 samples refused or wrong");
  }
  if (!GuardedPercentile(s, 50, &v) || v != 499) Fail("p50 wrong");
  // Oracle: random edits against a plain string model.
  BytePool pool(7, 1 << 16);
  Rng rng(7);
  Content c;
  std::string model, got;
  for (int i = 0; i < 20000; ++i) {
    const uint64_t k = rng.Below(3);
    const Piece p{pool.RandomOffset(rng), rng.Between(1, 300)};
    if (k == 0 || model.size() < 600) {
      const uint64_t at = rng.Between(0, model.size());
      c.Insert(at, p);
      model.insert(at, pool.Slice(p.src, p.len));
    } else if (k == 1) {
      const uint64_t n = rng.Between(1, 500);
      const uint64_t at = rng.Between(0, model.size() - n);
      c.Erase(at, n);
      model.erase(at, n);
    } else {
      c.Append(p);
      model.append(pool.Slice(p.src, p.len));
    }
    const uint64_t n = rng.Between(0, std::min<uint64_t>(model.size(), 2000));
    const uint64_t at = rng.Between(0, model.size() - n);
    c.Gather(pool, at, n, &got);
    if (c.size() != model.size() || got != model.substr(at, n)) {
      Fail("oracle diverged from the string model at edit " +
           std::to_string(i));
    }
  }
  std::printf("self-test ok\n");
  return 0;
}

int Main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  if (args.self_test) return SelfTest();
  const auto& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    Fail("unknown workload '" + args.workload + "'");
  }
  if (trace::kEnabled && !trace::MissingEntryPoints().empty()) {
    std::fprintf(stderr, "lobbench: not traced (absent in the library): %s\n",
                 trace::MissingEntryPoints().c_str());
  }
  const uint64_t ops =
      args.ops != 0 ? args.ops : DefaultOpsPerRound(args.workload);
  const BytePool pool(args.seed, kBytePoolSpan);
  const Plan plan = MakePlan(args.workload, args.seed, ops, pool);

  std::vector<RoundWall> walls;
  std::vector<uint64_t> read_ns, write_ns;
  uint64_t busy_ns = 0, pages_moved = 0;
  Exact exact;
  const Clock::time_point run_start = Clock::now();
  for (int round = 0;; ++round) {
    RoundWall rw;
    const Clock::time_point t0 = Clock::now();
    auto made = MakeStore(plan, pool);
    if (!made.ok()) Fail("store: " + made.status().ToString());
    std::unique_ptr<Store> store = std::move(*made);
    std::string out;
    for (const Op& op : plan.setup) {
      lob::Status st = store->Execute(op, &out);
      if (!st.ok()) Fail("set-up: " + st.ToString());
    }
    rw.setup_s = Seconds(Clock::now() - t0);
    read_ns.clear();
    write_ns.clear();
    const Window w = RunWindow(*store, plan, &read_ns, &write_ns);
    busy_ns += w.busy_ns;
    pages_moved += w.io.PagesTransferred();
    const Exact e = ComputeExact(*store, plan, w);
    CheckRound(*store, plan, pool, w, round == 0);
    if (round == 0) {
      exact = e;
    } else if (!(e == exact)) {
      Fail("round " + std::to_string(round) +
           " did not repeat the exact metrics of round 0");
    }
    store.reset();

    std::sort(read_ns.begin(), read_ns.end());
    std::sort(write_ns.begin(), write_ns.end());
    uint64_t rp50, rp99, wp50, wp99;
    if (!GuardedPercentile(read_ns, 50, &rp50) ||
        !GuardedPercentile(read_ns, 99, &rp99) ||
        !GuardedPercentile(write_ns, 50, &wp50) ||
        !GuardedPercentile(write_ns, 99, &wp99)) {
      Fail("too few samples for a p99 (" + std::to_string(read_ns.size()) +
           " reads, " + std::to_string(write_ns.size()) +
           " writes per round; need " + std::to_string(100 * kMinBeyond) +
           " of each)");
    }
    rw.ops_per_s = static_cast<double>(plan.ops.size()) * 1e9 /
                   static_cast<double>(w.busy_ns);
    rw.read_p50_us = static_cast<double>(rp50) / 1e3;
    rw.read_p99_us = static_cast<double>(rp99) / 1e3;
    rw.write_p50_us = static_cast<double>(wp50) / 1e3;
    rw.write_p99_us = static_cast<double>(wp99) / 1e3;
    walls.push_back(rw);
    std::fprintf(stderr,
                 "round %d: setup %.3f s, %.0f ops/s, read p50/p99 %.2f/%.2f "
                 "us, write p50/p99 %.2f/%.2f us\n",
                 round, rw.setup_s, rw.ops_per_s, rw.read_p50_us,
                 rw.read_p99_us, rw.write_p50_us, rw.write_p99_us);
    if (round + 1 >= kMinRounds &&
        Seconds(Clock::now() - run_start) >= args.seconds) {
      break;
    }
  }

  auto median = [&](double RoundWall::*field) {
    std::vector<double> v;
    for (const RoundWall& rw : walls) v.push_back(rw.*field);
    return Median(std::move(v));
  };
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const uint64_t rounds = walls.size();
  const uint64_t attempted = rounds * plan.ops.size();

  std::string j = "{\"workload\":\"" + args.workload + "\"";
  j += ",\"seed\":" + std::to_string(args.seed);
  j += ",\"traced\":" + std::to_string(trace::kEnabled ? 1 : 0);
  j += ",\"rounds\":" + std::to_string(rounds);
  j += ",\"ops_per_round\":" + std::to_string(plan.ops.size());
  j += ",\"attempted\":" + std::to_string(attempted) + ",\"failed\":0";
  j += ",\"samples_per_round\":{\"read\":" + std::to_string(read_ns.size()) +
       ",\"write\":" + std::to_string(write_ns.size()) + "}";
  j += ",\"wall\":{\"ops_per_s\":" + Num(median(&RoundWall::ops_per_s));
  j += ",\"read_p50_us\":" + Num(median(&RoundWall::read_p50_us));
  j += ",\"read_p99_us\":" + Num(median(&RoundWall::read_p99_us));
  j += ",\"write_p50_us\":" + Num(median(&RoundWall::write_p50_us));
  j += ",\"write_p99_us\":" + Num(median(&RoundWall::write_p99_us));
  j += ",\"setup_s\":" + Num(median(&RoundWall::setup_s));
  j += ",\"peak_rss_mb\":" + Num(static_cast<double>(ru.ru_maxrss) / 1024.0);
  j += "},\"exact\":{\"modeled_read_ms\":" + Num(exact.modeled_read_ms);
  j += ",\"modeled_write_ms\":" + Num(exact.modeled_write_ms);
  j += ",\"space_amp\":" + Num(exact.space_amp);
  j += ",\"iomodel.read_amp\":" + Num(exact.read_amp);
  j += ",\"iomodel.write_amp\":" + Num(exact.write_amp);
  j += ",\"buffer.hit_rate\":" + Num(exact.hit_rate);
  j += ",\"buffer.evictions_per_op\":" + Num(exact.evictions_per_op);
  j += ",\"buddy.free_chunks\":" + std::to_string(exact.free_chunks);
  j += ",\"buddy.largest_free_pages\":" +
       std::to_string(exact.largest_free_pages);
  j += ",\"lobtree.max_height\":" + std::to_string(exact.max_height);
  j += ",\"core.catalog_pages\":" + std::to_string(exact.catalog_pages) + "}";
  if (trace::kEnabled) {
    const SiteTotals& t = trace::Totals();
    const size_t n_layers = static_cast<size_t>(Layer::kCount);
    std::vector<uint64_t> calls(n_layers), self(n_layers);
    for (size_t s = 0; s < kSiteCount; ++s) {
      const size_t l = static_cast<size_t>(SiteLayer(static_cast<Site>(s)));
      calls[l] += t.calls[s];
      self[l] += t.self_ns[s];
    }
    const double n = static_cast<double>(attempted);
    j += ",\"layers\":{";
    for (size_t l = 0; l < n_layers; ++l) {
      const std::string name = LayerName(static_cast<Layer>(l));
      if (l != 0) j += ",";
      j += "\"" + name + ".calls_per_op\":" +
           Num(static_cast<double>(calls[l]) / n);
      j += ",\"" + name + ".self_us_per_op\":" +
           Num(static_cast<double>(self[l]) / n / 1e3);
      j += ",\"" + name + ".share\":" +
           Num(static_cast<double>(self[l]) / static_cast<double>(busy_ns));
    }
    const size_t io = static_cast<size_t>(Layer::kIoModel);
    j += ",\"iomodel.ns_per_page\":" +
         Num(Ratio(static_cast<double>(self[io]),
                   static_cast<double>(pages_moved)));
    j += "}";
    if (!args.spans.empty() && !trace::WriteSpans(args.spans)) {
      Fail("cannot write spans to " + args.spans);
    }
  }
  j += ",\"correct\":true}";
  std::printf("%s\n", j.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
