// Extension: on-demand reorganization. Starburst pays Table 3 prices on
// every update but keeps a perfect layout; ESM/EOS update cheaply but
// degrade (Figures 7-10). CompactObject closes the loop: after the
// standard update mix, rewrite the object once and measure how much read
// cost and utilization recover, and what the one-time compaction costs.

#include "bench/bench_common.h"
#include "workload/maintenance.h"

using namespace lob;
using namespace lob::bench;

namespace {

double AvgReadMs(StorageSystem* sys, LargeObjectManager* mgr, ObjectId id,
                 uint32_t reads) {
  auto size = mgr->Size(id);
  LOB_CHECK_OK(size.status());
  Rng rng(17);
  std::string buf;
  const IoStats before = sys->stats();
  for (uint32_t i = 0; i < reads; ++i) {
    const uint64_t n = std::min<uint64_t>(10000, *size);
    const uint64_t off = rng.Uniform(0, *size - n);
    LOB_CHECK_OK(mgr->Read(id, off, n, &buf));
  }
  return IoStats::Delta(before, sys->stats()).ms / reads;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::Parse(argc, argv);
  PrintBanner("ext_reorganize: read cost recovery through compaction",
              "beyond the paper (on-demand reorganization of degraded "
              "objects)");
  std::printf("object: %.1f MB, %u mix ops, 10 K reads\n\n",
              static_cast<double>(args.object_bytes) / 1048576.0, args.ops);

  std::vector<EngineSpec> specs = {EsmSpecs()[0],
                                   {"EOS T=4",
                                    [](StorageSystem* sys) {
                                      return CreateEosManager(sys, 4);
                                    }},
                                   {"EOS T=16", [](StorageSystem* sys) {
                                      return CreateEosManager(sys, 16);
                                    }}};
  std::printf("%12s  %12s  %12s  %12s  %12s  %12s\n", "engine",
              "degraded ms", "compacted ms", "util before", "util after",
              "compact [s]");
  for (const auto& spec : specs) {
    StorageSystem sys;
    auto mgr = spec.make(&sys);
    auto id = mgr->Create();
    LOB_CHECK_OK(id.status());
    LOB_CHECK_OK(BuildObject(&sys, mgr.get(), *id, args.object_bytes,
                             100 * 1024)
                     .status());
    MixSpec mix;
    mix.mean_op_bytes = 10000;
    mix.total_ops = args.ops;
    mix.window_ops = args.ops;
    LOB_CHECK_OK(RunUpdateMix(&sys, mgr.get(), *id, mix).status());

    const double degraded = AvgReadMs(&sys, mgr.get(), *id, 300);
    auto util_before = CurrentUtilization(&sys, mgr.get(), *id);
    LOB_CHECK_OK(util_before.status());
    auto cost = CompactObject(&sys, mgr.get(), *id);
    LOB_CHECK_OK(cost.status());
    const double compacted = AvgReadMs(&sys, mgr.get(), *id, 300);
    auto util_after = CurrentUtilization(&sys, mgr.get(), *id);
    LOB_CHECK_OK(util_after.status());
    LOB_CHECK_OK(mgr->Validate(*id));

    std::printf("%12s  %12.1f  %12.1f  %11.1f%%  %11.1f%%  %12.1f\n",
                spec.label.c_str(), degraded, compacted,
                *util_before * 100, *util_after * 100, cost->ms / 1000.0);
  }
  std::printf(
      "\nexpected: compaction restores near-built read costs and ~100%%\n"
      "utilization; at 10 MB it costs 1.5x-11x one Starburst update "
      "(Table 3).\n");
  return 0;
}
