// Shared scaffolding for the reproduction benches: engine line-ups,
// experiment runners, parallel fan-out and table printing.
//
// Every bench binary accepts:
//   --quick            shrink object size and op counts (CI smoke run)
//   --object-mb=N      object size (default 10, as in the paper)
//   --ops=N            operations for update-mix experiments (default 20000)
//   --window=N         mark window for update-mix experiments
//                      (default ops/10; validated 1 <= N <= ops)
//   --jobs=N           worker threads for the configuration fan-out,
//                      the main thread included (default
//                      hardware_concurrency; 0 and 1 both run every cell
//                      on the main thread in grid order; never more
//                      threads than cells; output bytes are identical for
//                      every value)
//   --bench-json=PATH  write the wall-clock/modeled-ms profile of this
//                      run as JSON (see scripts/bench_wall.sh)
//   --obs              print the per-operation I/O attribution ledger
//                      (engine x op: count, seeks, pages, modeled ms) after
//                      each configuration run, with a conservation check
//   --trace=PATH       (mix benches) record every configuration's span
//                      stream on the modeled clock and write one merged
//                      Chrome trace-event / Perfetto JSON file; per-job
//                      buffers merge in submission order, so the bytes are
//                      identical for every --jobs value.
//   --timeline=PATH    (mix benches) write per-configuration storage-state
//                      timelines (utilization, fragmentation histogram,
//                      segment size distribution) as one CSV file, sampled
//                      at every --window mark
//
// Any other argument (a typo, or a flag only some bench takes, such as the
// mix figures' --csv, given to another) exits with status 2 and
// "unknown flag --name" on stderr.

#ifndef LOB_BENCH_BENCH_COMMON_H_
#define LOB_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/factory.h"
#include "core/metrics_snapshot.h"
#include "core/storage_system.h"
#include "exec/bench_profile.h"
#include "exec/parallel_runner.h"
#include "trace/timeline.h"
#include "trace/trace_session.h"
#include "workload/workload.h"

namespace lob::bench {

/// One storage structure configuration under test.
struct EngineSpec {
  std::string label;
  std::function<std::unique_ptr<LargeObjectManager>(StorageSystem*)> make;
};

inline std::vector<EngineSpec> EsmSpecs() {
  std::vector<EngineSpec> specs;
  for (uint32_t leaf : {1u, 4u, 16u, 64u}) {
    specs.push_back({"ESM leaf=" + std::to_string(leaf),
                     [leaf](StorageSystem* sys) {
                       return CreateEsmManager(sys, leaf);
                     }});
  }
  return specs;
}

inline std::vector<EngineSpec> EosSpecs() {
  std::vector<EngineSpec> specs;
  for (uint32_t t : {1u, 4u, 16u, 64u}) {
    specs.push_back({"EOS T=" + std::to_string(t),
                     [t](StorageSystem* sys) {
                       return CreateEosManager(sys, t);
                     }});
  }
  return specs;
}

inline EngineSpec StarburstSpec() {
  return {"Starburst",
          [](StorageSystem* sys) { return CreateStarburstManager(sys); }};
}

/// The paper's Figure 5 x-axis (append/scan sizes, kilobytes).
inline std::vector<uint64_t> PaperAppendSizesKb() {
  return {3,  4,  5,  6,  7,  8,   10,  12,  14,  16, 20,
          24, 28, 32, 50, 64, 100, 128, 200, 256, 512};
}

/// Prints the Table 1 banner every bench starts with.
inline void PrintBanner(const char* title, const char* reproduces) {
  std::printf("================================================================\n");
  std::printf("%s\n", title);
  std::printf("reproduces: %s\n", reproduces);
  std::printf("fixed parameters (paper Table 1): 4K pages, 12-page pool,\n");
  std::printf("  4-page pool segment limit, 33 ms seek, 1 KB/ms transfer\n");
  std::printf("================================================================\n");
}

/// Appends the per-operation I/O attribution ledger of `sys` (fed by the
/// OpScope tags inside the managers) plus the conservation check against
/// the global counters to `out`. Jobs run in parallel, so the ledger goes
/// through the job's output buffer, never straight to stdout.
inline void PrintOpAttribution(const std::string& title, StorageSystem* sys,
                               JobOutput* out) {
  const ObsRegistry* obs = sys->obs();
  out->Printf("-- per-op I/O attribution: %s\n", title.c_str());
  out->Printf("%-24s %10s %10s %10s %14s\n", "op", "count", "seeks", "pages",
              "ms");
  for (const auto& [label, rec] : obs->ops()) {
    out->Printf("%-24s %10llu %10llu %10llu %14.1f\n", label.c_str(),
                static_cast<unsigned long long>(rec.count),
                static_cast<unsigned long long>(rec.io.Seeks()),
                static_cast<unsigned long long>(rec.io.PagesTransferred()),
                rec.io.ms);
  }
  out->Printf("conservation (sum attributed == global): %s\n",
              obs->ConservationHolds(sys->stats()) ? "OK" : "VIOLATED");
}

/// Writes `content` to `path`; empty paths are skipped.
inline void WriteTextFile(const std::string& path,
                          const std::string& content) {
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
}

/// Common command line handling.
struct BenchArgs {
  uint64_t object_bytes = 10ull * 1024 * 1024;
  uint32_t ops = 20000;
  uint32_t window = 2000;
  uint32_t jobs = 1;
  bool quick = false;
  bool obs = false;
  std::string bench_json;
  std::string trace;           ///< merged Chrome/Perfetto JSON output path
  std::string timeline;        ///< merged timeline CSV output path

  /// Parses the flags above; `extra_switch` is one more valueless flag
  /// the calling bench reads itself (the mix figures' "--csv").
  static BenchArgs Parse(int argc, char** argv,
                         std::string_view extra_switch = {}) {
    RejectUnknownFlags(argc, argv, extra_switch);
    BenchArgs args;
    args.quick = FlagPresent(argc, argv, "quick");
    // At least 1 MB, and few enough that the byte count fits in uint64_t.
    const uint64_t mb =
        FlagValue<uint64_t>(argc, argv, "object-mb", args.quick ? 2 : 10, 1,
                            std::numeric_limits<uint64_t>::max() >> 20);
    args.object_bytes = mb << 20;
    args.ops =
        FlagValue<uint32_t>(argc, argv, "ops", args.quick ? 2000 : 20000, 1);
    args.window = FlagValue<uint32_t>(argc, argv, "window",
                                      std::max(1u, args.ops / 10));
    if (args.window < 1 || args.window > args.ops) {
      std::fprintf(stderr,
                   "invalid --window=%u: must satisfy 1 <= window <= "
                   "ops (%u)\n",
                   args.window, args.ops);
      std::exit(2);
    }
    args.jobs = FlagValue<uint32_t>(argc, argv, "jobs",
                                    ParallelRunner::DefaultWorkers());
    args.obs = FlagPresent(argc, argv, "obs");
    args.bench_json = FlagValueString(argc, argv, "bench-json", "");
    args.trace = FlagValueString(argc, argv, "trace", "");
    args.timeline = FlagValueString(argc, argv, "timeline", "");
    return args;
  }

 private:
  static void RejectUnknownFlags(int argc, char** argv,
                                 std::string_view extra_switch) {
    static constexpr std::string_view kFlags[] = {
        "--quick", "--obs", "--object-mb=", "--ops=", "--window=",
        "--jobs=", "--bench-json=", "--trace=", "--timeline="};
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      const bool known =
          (!extra_switch.empty() && arg == extra_switch) ||
          std::ranges::any_of(kFlags, [arg](std::string_view flag) {
            return flag.ends_with('=') ? arg.starts_with(flag) : arg == flag;
          });
      if (!known) {
        const std::string_view name = arg.substr(0, arg.find('='));
        std::fprintf(stderr, "unknown flag %.*s\n",
                     static_cast<int>(name.size()), name.data());
        std::exit(2);
      }
    }
  }
};

/// The per-bench harness: the deterministic fan-out runner sized by --jobs
/// and the wall-clock profile exported by --bench-json.
/// One BenchEngine per binary; Map() may be called several times (each
/// grid contributes its cells to the same profile).
class BenchEngine {
 public:
  BenchEngine(std::string name, const BenchArgs& args)
      : runner_(args.jobs),
        profile_(std::move(name), args.jobs == 0 ? 1u : args.jobs,
                 std::thread::hardware_concurrency(),
                 BenchProfile::MakeHostNote()),
        json_path_(args.bench_json),
        // LOBLINT(wallclock): bench-profile self-timing measures the
        // simulator's own wall-clock cost; it never reaches modeled output.
        start_(std::chrono::steady_clock::now()) {}

  /// Fans one job per cell label out across the runner; returns values,
  /// captured per-job text and timings in cell order and feeds the
  /// wall/modeled milliseconds of every cell into the profile.
  template <typename T>
  Mapped<T> Map(const std::vector<std::string>& cell_labels,
                const std::function<T(size_t, JobOutput*)>& fn) {
    Mapped<T> mapped = runner_.Map<T>(cell_labels.size(), fn);
    for (size_t i = 0; i < cell_labels.size(); ++i) {
      profile_.AddCell(cell_labels[i], mapped.stats[i].wall_ms,
                       mapped.stats[i].modeled_ms);
    }
    return mapped;
  }

  /// Records the total wall clock and writes BENCH_<name>.json when
  /// --bench-json was given. Call once, after all output is printed.
  void Finish() {
    // LOBLINT(wallclock): bench-profile suite timing (BENCH_*.json only).
    const auto end = std::chrono::steady_clock::now();
    profile_.set_suite_wall_ms(
        // LOBLINT(wallclock): wall-ms goes to BENCH_*.json, not bench stdout.
        std::chrono::duration<double, std::milli>(end - start_).count());
    if (!json_path_.empty()) profile_.WriteJson(json_path_);
  }

  const BenchProfile& profile() const { return profile_; }

  /// Index the next Map() call's first cell will get in the profile;
  /// pair with SetCellSnapshot to attach per-cell snapshots afterwards.
  size_t next_cell_index() const { return profile_.cells().size(); }

  /// Attaches a metrics-snapshot JSON block to profile cell `index`.
  void SetCellSnapshot(size_t index, std::string snapshot_json) {
    profile_.SetCellSnapshot(index, std::move(snapshot_json));
  }

 private:
  ParallelRunner runner_;
  BenchProfile profile_;
  std::string json_path_;
  // LOBLINT(wallclock): bench-profile self-timing state.
  std::chrono::steady_clock::time_point start_;
};

/// Result of one update-mix configuration run.
struct MixRun {
  std::vector<MixPoint> points;
  double final_utilization = 0;
  double modeled_ms = 0;  ///< total modeled I/O (build + mix) of the cell
  /// Schema-v2 metrics snapshot of the cell's StorageSystem (percentile
  /// table, pool/allocator/fault state), captured before the system is
  /// torn down. Pure modeled state: byte-identical for any --jobs. The
  /// indentation matches the "cells" nesting of BENCH_*.json.
  std::string snapshot_json;
};

/// Builds an object (100K appends, mirroring a bulk load) and runs the
/// paper's 40/30/30 mix with the given mean operation size. Safe to call
/// from a fan-out job: the StorageSystem is private to this call and all
/// text goes through `out` (pass print_obs=false / out=nullptr when the
/// attribution ledger is not wanted). When `trace` is given it is attached
/// to the cell's SimDisk for the whole run (build phase included); when
/// `timeline` is given the update mix samples storage state into it.
inline MixRun RunMixFor(const EngineSpec& spec, uint64_t object_bytes,
                        uint64_t mean_op, uint32_t ops, uint32_t window,
                        bool print_obs = false, JobOutput* out = nullptr,
                        TraceSession* trace = nullptr,
                        TimelineSampler* timeline = nullptr) {
  StorageSystem sys;
  sys.disk()->set_trace(trace);
  auto mgr = spec.make(&sys);
  auto id = mgr->Create();
  LOB_CHECK_OK(id.status());
  LOB_CHECK_OK(
      BuildObject(&sys, mgr.get(), *id, object_bytes, 100 * 1024).status());
  MixSpec mix;
  mix.mean_op_bytes = mean_op;
  mix.total_ops = ops;
  mix.window_ops = window;
  mix.seed = 7 + mean_op;
  mix.timeline = timeline;
  auto points = RunUpdateMix(&sys, mgr.get(), *id, mix);
  LOB_CHECK_OK(points.status());
  sys.disk()->set_trace(nullptr);
  if (print_obs && out != nullptr) PrintOpAttribution(spec.label, &sys, out);
  MixRun run;
  run.points = *points;
  run.final_utilization = points->empty() ? 1.0
                                          : points->back().utilization;
  run.modeled_ms = sys.stats().ms;
  run.snapshot_json = MetricsSnapshot::Collect(&sys).ToJson("    ");
  if (out != nullptr) out->SetModeledMs(run.modeled_ms);
  return run;
}

/// Prints one mix metric (selected by `get`) as a series table: one row per
/// mark, one column per spec.
inline void PrintMixSeries(
    const std::vector<std::string>& labels,
    const std::vector<std::vector<MixPoint>>& series,
    const std::function<double(const MixPoint&)>& get, const char* unit) {
  std::printf("%10s", "ops");
  for (const auto& label : labels) std::printf("  %14s", label.c_str());
  std::printf("   [%s]\n", unit);
  if (series.empty() || series[0].empty()) return;
  for (size_t row = 0; row < series[0].size(); ++row) {
    std::printf("%10u", series[0][row].ops_done);
    for (const auto& s : series) {
      std::printf("  %14.2f", row < s.size() ? get(s[row]) : 0.0);
    }
    std::printf("\n");
  }
}

}  // namespace lob::bench

#endif  // LOB_BENCH_BENCH_COMMON_H_
