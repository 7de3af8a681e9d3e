// lob_campaign: fault-injection campaign CLI.
//
//   lob_campaign <trace-file|--demo> [--jobs=N] [--stride=K] [--progress]
//                [--format=csv|json] [--out=FILE]
//
// Replays the trace against all three engines, once per fault point k
// (fail the (k+1)-th attributed I/O call), runs fsck over each outcome and
// emits the (engine, op, k) classification matrix. The matrix is
// byte-identical for any --jobs value. --progress reports completed-cell
// counts on stderr as workers finish (off by default: completion order is
// wall-clock-dependent, so it stays away from byte-compare runs). Exit
// status: 0 when every cell is clean-pass or clean-fail, 1 when any leak
// or corrupt cell exists, 2 on usage/setup errors.

#include <cstdio>
#include <string>

#include "exec/campaign.h"
#include "workload/trace.h"
#include "workload/workload.h"

using namespace lob;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: lob_campaign <trace-file|--demo> [--jobs=N] "
               "[--stride=K] [--progress] [--format=csv|json] "
               "[--out=FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string source;
  CampaignOptions options;
  // A malformed or out-of-range number exits 2 here.
  options.jobs = FlagValue<uint32_t>(argc, argv, "jobs", options.jobs);
  options.stride = FlagValue<uint32_t>(argc, argv, "stride", options.stride);
  std::string format = "csv";
  std::string out_path;
  bool demo = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--demo") {
      demo = true;
    } else if (arg.rfind("--jobs=", 0) == 0 ||
               arg.rfind("--stride=", 0) == 0) {
      continue;  // parsed above
    } else if (arg == "--progress") {
      options.progress = true;
    } else if (arg.rfind("--format=", 0) == 0) {
      format = arg.substr(9);
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg.rfind("--", 0) == 0) {
      return Usage();
    } else {
      source = arg;
    }
  }
  if (!demo && source.empty()) return Usage();
  if (format != "csv" && format != "json") return Usage();

  Trace trace;
  if (demo) {
    trace = DemoCampaignTrace();
  } else {
    auto loaded = LoadTrace(source);
    if (!loaded.ok()) {
      std::fprintf(stderr, "lob_campaign: %s\n",
                   loaded.status().ToString().c_str());
      return 2;
    }
    trace = std::move(*loaded);
  }

  auto result = RunCampaign(trace, options);
  if (!result.ok()) {
    std::fprintf(stderr, "lob_campaign: %s\n",
                 result.status().ToString().c_str());
    return 2;
  }

  const std::string rendered =
      format == "json" ? result->ToJson() : result->ToCsv();
  if (out_path.empty()) {
    std::fwrite(rendered.data(), 1, rendered.size(), stdout);
  } else {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "lob_campaign: cannot write %s\n",
                   out_path.c_str());
      return 2;
    }
    std::fwrite(rendered.data(), 1, rendered.size(), f);
    std::fclose(f);
  }

  std::fprintf(stderr,
               "campaign: %zu cells | clean-pass %llu, clean-fail %llu, "
               "leak %llu, corrupt %llu\n",
               result->cells.size(),
               static_cast<unsigned long long>(
                   result->CountOutcome(CellOutcome::kCleanPass)),
               static_cast<unsigned long long>(
                   result->CountOutcome(CellOutcome::kCleanFail)),
               static_cast<unsigned long long>(
                   result->CountOutcome(CellOutcome::kLeak)),
               static_cast<unsigned long long>(
                   result->CountOutcome(CellOutcome::kCorrupt)));
  return (result->HasLeaks() || result->HasCorruption()) ? 1 : 0;
}
