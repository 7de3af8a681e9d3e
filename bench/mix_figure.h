// Shared driver for Figures 7-12: run the 40/30/30 random update mix over
// a freshly built object for every (engine config, mean operation size)
// pair and print one metric as a per-mark series.
//
// Mean operation sizes are the paper's 100 bytes, 10 K and 100 K, each
// varied +/-50%; marks land every `window` operations and show the average
// cost of the operations in the window that just ended (paper 4.4).
//
// The (mean_op x engine) grid is fanned out across the --jobs thread pool:
// every cell builds its own private StorageSystem and runs independently;
// results and any --obs ledger text come back in submission order, so the
// bytes printed are identical for every worker count.

#ifndef LOB_BENCH_MIX_FIGURE_H_
#define LOB_BENCH_MIX_FIGURE_H_

#include "bench/bench_common.h"

namespace lob::bench {

enum class MixMetric { kUtilization, kReadMs, kInsertMs, kDeleteMs };

inline double GetMetric(const MixPoint& pt, MixMetric metric) {
  switch (metric) {
    case MixMetric::kUtilization:
      return pt.utilization * 100.0;
    case MixMetric::kReadMs:
      return pt.avg_read_ms;
    case MixMetric::kInsertMs:
      return pt.avg_insert_ms;
    case MixMetric::kDeleteMs:
      return pt.avg_delete_ms;
  }
  return 0;
}

inline const char* MetricUnit(MixMetric metric) {
  return metric == MixMetric::kUtilization ? "percent" : "ms per op";
}

/// Short bench name for the profile: everything before the first ':' of
/// the banner title (e.g. "fig9_esm_read_cost").
inline std::string BenchNameFromTitle(const char* title) {
  const std::string t = title;
  const size_t colon = t.find(':');
  return colon == std::string::npos ? t : t.substr(0, colon);
}

inline int RunMixFigure(int argc, char** argv, const char* title,
                        const char* reproduces,
                        const std::vector<EngineSpec>& specs,
                        MixMetric metric, const char* anchors) {
  const BenchArgs args = BenchArgs::Parse(argc, argv, "--csv");
  const bool csv = FlagPresent(argc, argv, "csv");
  if (!csv) {
    PrintBanner(title, reproduces);
    std::printf("object: %.1f MB, ops: %u (marks every %u)%s\n",
                static_cast<double>(args.object_bytes) / 1048576.0, args.ops,
                args.window, args.quick ? " (--quick)" : "");
  } else {
    std::printf("mean_op,ops,engine,value\n");
  }

  const std::vector<uint64_t> mean_ops = {100, 10000, 100000};

  // Flatten the (mean_op x spec) grid into one job per cell.
  struct Cell {
    uint64_t mean_op;
    size_t spec;
  };
  std::vector<Cell> cells;
  std::vector<std::string> cell_labels;
  for (uint64_t mean_op : mean_ops) {
    for (size_t k = 0; k < specs.size(); ++k) {
      cells.push_back(Cell{mean_op, k});
      cell_labels.push_back("mean_op=" + std::to_string(mean_op) + "/" +
                            specs[k].label);
    }
  }

  // Per-cell trace sessions / timeline samplers: each fan-out job records
  // only into its own slot, and the merge below walks the slots in
  // submission order, so the exported bytes are identical for any --jobs.
  std::vector<std::unique_ptr<TraceSession>> traces;
  std::vector<std::unique_ptr<TimelineSampler>> timelines;
  for (size_t i = 0; i < cells.size(); ++i) {
    traces.push_back(args.trace.empty() ? nullptr
                                        : std::make_unique<TraceSession>());
    timelines.push_back(args.timeline.empty()
                            ? nullptr
                            : std::make_unique<TimelineSampler>(args.window));
  }

  BenchEngine engine(BenchNameFromTitle(title), args);
  const size_t first_cell = engine.next_cell_index();
  Mapped<MixRun> runs = engine.Map<MixRun>(
      cell_labels, [&](size_t i, JobOutput* out) {
        const Cell& cell = cells[i];
        return RunMixFor(specs[cell.spec], args.object_bytes, cell.mean_op,
                         args.ops, args.window, args.obs, out,
                         traces[i].get(), timelines[i].get());
      });
  // Schema v2: each cell carries the metrics snapshot its job captured
  // (values come back in submission order, so cell indices line up).
  for (size_t i = 0; i < cells.size(); ++i) {
    engine.SetCellSnapshot(first_cell + i,
                           std::move(runs.values[i].snapshot_json));
  }

  if (!args.trace.empty()) {
    std::vector<std::pair<std::string, const TraceSession*>> sessions;
    for (size_t i = 0; i < cells.size(); ++i) {
      sessions.emplace_back(cell_labels[i], traces[i].get());
    }
    WriteTextFile(args.trace, TraceSession::ChromeTraceJson(sessions));
  }
  if (!args.timeline.empty()) {
    std::string timeline_csv = TimelineSampler::CsvHeader();
    for (size_t i = 0; i < cells.size(); ++i) {
      timelines[i]->AppendCsv(cell_labels[i], &timeline_csv);
    }
    WriteTextFile(args.timeline, timeline_csv);
  }

  // Emit in the exact order the serial loops used: per mean_op group, the
  // section header, each cell's captured --obs text, then the table.
  size_t idx = 0;
  for (uint64_t mean_op : mean_ops) {
    if (!csv) {
      std::printf("\n--- mean operation size: %llu bytes (+/-50%%) ---\n",
                  static_cast<unsigned long long>(mean_op));
    }
    std::vector<std::string> labels;
    std::vector<std::vector<MixPoint>> series;
    for (size_t k = 0; k < specs.size(); ++k, ++idx) {
      std::fputs(runs.texts[idx].c_str(), stdout);
      labels.push_back(specs[k].label);
      series.push_back(runs.values[idx].points);
    }
    if (csv) {
      // Machine-readable long format, one row per (mark, engine).
      for (size_t k = 0; k < series.size(); ++k) {
        for (const MixPoint& pt : series[k]) {
          std::printf("%llu,%u,%s,%.3f\n",
                      static_cast<unsigned long long>(mean_op), pt.ops_done,
                      labels[k].c_str(), GetMetric(pt, metric));
        }
      }
      continue;
    }
    PrintMixSeries(labels, series,
                   [metric](const MixPoint& pt) {
                     return GetMetric(pt, metric);
                   },
                   MetricUnit(metric));
  }
  if (!csv) std::printf("\npaper anchors: %s\n", anchors);
  engine.Finish();
  return 0;
}

}  // namespace lob::bench

#endif  // LOB_BENCH_MIX_FIGURE_H_
