// Micro-benchmarks (google-benchmark) for the substrate layers: buddy
// allocation, positional tree search/update, buffer pool fixes, simulated
// disk calls. These measure wall-clock CPU cost of the simulator itself
// (not modeled I/O time) and guard against performance regressions in the
// library.
//
// Beyond the google-benchmark timers, `--cells=N` switches the binary
// into cell-throughput mode: it runs N full build+update-mix workload
// cells back to back on one thread and reports cells/sec and modeled
// pages/sec. With --bench-json=PATH those counters land under "metrics"
// in BENCH_micro_substrates.json, which is what the CI perf-smoke gate
// compares against the committed baseline (see scripts/bench_wall.sh).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>

#include "bench_common.h"
#include "buddy/buddy_tree.h"
#include "common/logging.h"
#include "buffer/op_context.h"
#include "core/factory.h"
#include "core/storage_system.h"
#include "lobtree/positional_tree.h"
#include "workload/workload.h"

namespace lob {
namespace {

void BM_BuddyAllocateFree(benchmark::State& state) {
  BuddyTree tree(14);
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    auto a = tree.Allocate(n);
    benchmark::DoNotOptimize(a.ok());
    if (a.ok()) {
      benchmark::DoNotOptimize(tree.Free(*a, n));
    }
  }
}
BENCHMARK(BM_BuddyAllocateFree)->Arg(1)->Arg(16)->Arg(256);

void BM_BufferPoolFixHit(benchmark::State& state) {
  StorageConfig cfg;
  SimDisk disk(cfg);
  BufferPool pool(&disk, cfg);
  AreaId a = disk.CreateArea();
  { auto g = pool.FixPage(a, 0, FixMode::kNew); }
  for (auto _ : state) {
    auto g = pool.FixPage(a, 0, FixMode::kRead);
    benchmark::DoNotOptimize(g.ok());
  }
}
BENCHMARK(BM_BufferPoolFixHit);

void BM_TreeFindLeaf(benchmark::State& state) {
  StorageConfig cfg;
  SimDisk disk(cfg);
  BufferPool pool(&disk, cfg);
  AreaId meta = disk.CreateArea();
  DatabaseArea area(&pool, meta, cfg);
  TreeConfig tc;
  tc.pool = &pool;
  tc.meta_area = &area;
  PositionalTree tree(tc);
  OpContext ctx(&pool);
  auto root = tree.CreateObject(0);
  uint64_t at = 0;
  for (int i = 0; i < state.range(0); ++i) {
    // Dropped errors here would measure FindLeaf over a partially built
    // (or silently empty) tree.
    Status inserted = tree.InsertLeaf(
        *root, at, {4096, static_cast<PageId>(100000 + i)}, &ctx);
    LOB_CHECK(inserted.ok());
    Status finished = ctx.Finish();
    LOB_CHECK(finished.ok());
    at += 4096;
  }
  Rng rng(1);
  for (auto _ : state) {
    auto leaf = tree.FindLeaf(*root, rng.Uniform(0, at - 1));
    benchmark::DoNotOptimize(leaf.ok());
  }
}
BENCHMARK(BM_TreeFindLeaf)->Arg(256)->Arg(2560);

void BM_SimDiskAppendGrowth(benchmark::State& state) {
  // One-page-at-a-time appends into a fresh area: the pattern that made
  // the per-page `pages.resize(page + 1)` quadratic-ish before the page
  // vector switched to geometric reserve. Items/sec here is the direct
  // measure of that satellite fix.
  StorageConfig cfg;
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  std::vector<char> page(cfg.page_size, 'x');
  const char* src = page.data();
  for (auto _ : state) {
    SimDisk disk(cfg);
    AreaId a = disk.CreateArea();
    for (uint32_t p = 0; p < n; ++p) {
      benchmark::DoNotOptimize(disk.WriteRun(a, p, 1, &src));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_SimDiskAppendGrowth)->Arg(1024)->Arg(16384);

void BM_SimDiskReadRunZeroCopy(benchmark::State& state) {
  // Borrowed-span batched read: one modeled seek + N transfers, no
  // memcpy.
  StorageConfig cfg;
  SimDisk disk(cfg);
  AreaId a = disk.CreateArea();
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  // A failed setup write would silently benchmark reads of unwritten
  // pages; null sources zero-fill.
  std::vector<const char*> zeros(n, nullptr);
  Status seeded = disk.WriteRun(a, 0, n, zeros.data());
  LOB_CHECK(seeded.ok());
  std::vector<PageRef> refs(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(disk.ReadRun(a, 0, n, refs.data()));
    benchmark::DoNotOptimize(refs.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * n *
                          cfg.page_size);
}
BENCHMARK(BM_SimDiskReadRunZeroCopy)->Arg(1)->Arg(4)->Arg(64);

void BM_EndToEndRead10K(benchmark::State& state) {
  StorageSystem sys;
  auto mgr = CreateEosManager(&sys, 4);
  auto id = mgr->Create();
  auto built = BuildObject(&sys, mgr.get(), *id, 4 * 1024 * 1024, 100 * 1024);
  LOB_CHECK(built.ok());
  Rng rng(2);
  std::string buf;
  for (auto _ : state) {
    const uint64_t off = rng.Uniform(0, 4 * 1024 * 1024 - 10001);
    benchmark::DoNotOptimize(mgr->Read(*id, off, 10000, &buf));
  }
}
BENCHMARK(BM_EndToEndRead10K);

// One cell-throughput workload cell: quick-scale build (2 MB object via
// 100K appends) plus the paper's 40/30/30 update mix (2000 ops). This is
// deliberately the same unit of work the fan-out benches call a "cell",
// so cells/sec measured here speaks for the whole suite.
struct CellResult {
  double wall_ms = 0;
  double pages = 0;  ///< modeled pages transferred by the cell
};

// `agg` accumulates every cell's ledger and `pool` its pool counters, so
// the profile can embed one aggregate metrics snapshot covering all three
// engines' op labels.
CellResult RunThroughputCell(const bench::EngineSpec& spec, uint64_t seed,
                             ObsRegistry* agg,
                             MetricsSnapshot::PoolStats* pool) {
  // LOBLINT(wallclock): cell-throughput self-timing; the wall clock
  // feeds BENCH_*.json metrics, never modeled output.
  const auto t0 = std::chrono::steady_clock::now();
  StorageSystem sys;
  auto mgr = spec.make(&sys);
  auto id = mgr->Create();
  LOB_CHECK_OK(id.status());
  LOB_CHECK_OK(BuildObject(&sys, mgr.get(), *id, 2ull * 1024 * 1024,
                           100 * 1024)
                   .status());
  MixSpec mix;
  mix.mean_op_bytes = 10000;
  mix.total_ops = 2000;
  mix.window_ops = 200;
  mix.seed = 7 + seed;
  auto points = RunUpdateMix(&sys, mgr.get(), *id, mix);
  LOB_CHECK_OK(points.status());
  agg->MergeFrom(*sys.obs());
  pool->hits += sys.pool()->hits();
  pool->misses += sys.pool()->misses();
  pool->evictions += sys.pool()->evictions();
  // LOBLINT(wallclock): see above.
  const auto t1 = std::chrono::steady_clock::now();
  CellResult r;
  // LOBLINT(wallclock): see above.
  r.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  r.pages = static_cast<double>(sys.stats().PagesTransferred());
  return r;
}

// Runs `n_cells` cells single-threaded, rotating over the three engines,
// and writes cells/sec + modeled pages/sec into the --bench-json profile.
int RunCellThroughput(uint32_t n_cells, const std::string& json_path) {
  std::vector<bench::EngineSpec> specs;
  specs.push_back(bench::EsmSpecs()[1]);   // ESM leaf=4
  specs.push_back(bench::EosSpecs()[1]);   // EOS T=4
  specs.push_back(bench::StarburstSpec());
  BenchProfile profile("micro_substrates_cells", /*jobs=*/1,
                       std::thread::hardware_concurrency(),
                       BenchProfile::MakeHostNote());
  double wall_ms = 0;
  double pages = 0;
  ObsRegistry agg;
  MetricsSnapshot::PoolStats pool;
  for (uint32_t i = 0; i < n_cells; ++i) {
    const bench::EngineSpec& spec = specs[i % specs.size()];
    const CellResult r = RunThroughputCell(spec, i, &agg, &pool);
    profile.AddCell(spec.label + " #" + std::to_string(i), r.wall_ms, 0);
    wall_ms += r.wall_ms;
    pages += r.pages;
  }
  // Schema v2: one aggregate snapshot over every cell's registry — the
  // per-op percentile table spans all three engines, and the CI gate
  // (scripts/check_perf.py) reads its p99_ms columns. Purely modeled
  // state, byte-identical run to run.
  MetricsSnapshot snap = MetricsSnapshot::FromRegistry(agg);
  snap.pool = pool;
  profile.set_snapshot_json(snap.ToJson("  "));
  const double secs = wall_ms / 1000.0;
  const double cells_per_sec = secs > 0 ? n_cells / secs : 0;
  const double pages_per_sec = secs > 0 ? pages / secs : 0;
  profile.AddMetric("cells", n_cells);
  profile.AddMetric("cells_per_sec", cells_per_sec);
  profile.AddMetric("pages_per_sec", pages_per_sec);
  profile.set_suite_wall_ms(wall_ms);
  std::printf("cell throughput: %u cells in %.0f ms = %.2f cells/sec, "
              "%.0f modeled pages/sec\n",
              n_cells, wall_ms, cells_per_sec, pages_per_sec);
  if (!json_path.empty() && !profile.WriteJson(json_path)) return 1;
  return 0;
}

}  // namespace
}  // namespace lob

int main(int argc, char** argv) {
  const uint32_t cells = lob::FlagValue<uint32_t>(argc, argv, "cells", 0);
  const std::string json =
      lob::FlagValueString(argc, argv, "bench-json", "");
  if (cells > 0) {
    // Throughput mode replaces the google-benchmark run: one process does
    // one job, so the gate's numbers are not polluted by timer warm-up.
    return lob::RunCellThroughput(cells, json);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
