// Extension: update cost vs object size (paper 4.4.3). ESM and EOS insert
// costs are independent of the object size; Starburst's cost is
// proportional to it (the whole tail is copied), rising to minutes on a
// 100 M-byte object. The (size x engine) grid runs as one fan-out job per
// cell.

#include "bench/bench_common.h"

using namespace lob;
using namespace lob::bench;

namespace {

double AvgInsertMs(StorageSystem* sys, LargeObjectManager* mgr, ObjectId id,
                   uint64_t object_bytes, uint32_t ops) {
  Rng rng(55);
  // Per-phase buffer: FillBytes overwrites in place once capacity settles.
  std::string buf;
  double total = 0;
  for (uint32_t i = 0; i < ops; ++i) {
    const uint64_t n = rng.Uniform(5000, 15000);
    const uint64_t off = rng.Uniform(0, object_bytes - 1);
    Rng content(rng.Next());
    FillBytes(&content, n, &buf, NoZeroInit{});
    const IoStats before = sys->stats();
    LOB_CHECK_OK(mgr->Insert(id, off, buf));
    total += IoStats::Delta(before, sys->stats()).ms;
    LOB_CHECK_OK(mgr->Delete(id, off, n));
  }
  return total / ops;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::Parse(argc, argv);
  PrintBanner("ext_update_scaling: insert cost vs object size",
              "4.4.3 (ESM/EOS flat, Starburst linear in object size)");
  const uint32_t ops = args.quick ? 5 : 20;
  std::printf("mean insert: 10 K bytes, %u inserts per point\n\n", ops);

  std::vector<EngineSpec> specs = {EsmSpecs()[1],
                                   {"EOS T=4",
                                    [](StorageSystem* sys) {
                                      return CreateEosManager(sys, 4);
                                    }},
                                   StarburstSpec()};
  std::vector<uint64_t> sizes_mb =
      args.quick ? std::vector<uint64_t>{1, 4}
                 : std::vector<uint64_t>{1, 10, 50, 100};

  std::vector<std::string> cell_labels;
  for (uint64_t mb : sizes_mb) {
    for (const auto& spec : specs) {
      cell_labels.push_back("object_mb=" + std::to_string(mb) + "/" +
                            spec.label);
    }
  }
  BenchEngine engine("ext_update_scaling", args);
  Mapped<double> insert_ms = engine.Map<double>(
      cell_labels, [&](size_t i, JobOutput* out) {
        const uint64_t mb = sizes_mb[i / specs.size()];
        const EngineSpec& spec = specs[i % specs.size()];
        StorageSystem sys;
        auto mgr = spec.make(&sys);
        auto id = mgr->Create();
        LOB_CHECK_OK(id.status());
        const uint64_t bytes = mb * 1024 * 1024;
        LOB_CHECK_OK(
            BuildObject(&sys, mgr.get(), *id, bytes, 100 * 1024).status());
        const double ms = AvgInsertMs(&sys, mgr.get(), *id, bytes, ops);
        out->SetModeledMs(sys.stats().ms);
        return ms;
      });

  std::printf("%10s", "object_mb");
  for (const auto& s : specs) std::printf("  %16s", s.label.c_str());
  std::printf("   [ms per insert]\n");
  size_t idx = 0;
  for (uint64_t mb : sizes_mb) {
    std::printf("%10llu", static_cast<unsigned long long>(mb));
    for (size_t k = 0; k < specs.size(); ++k, ++idx) {
      std::printf("  %16.1f", insert_ms.values[idx]);
    }
    std::printf("\n");
  }
  std::printf(
      "\npaper anchors: ESM/EOS columns flat; Starburst grows ~linearly "
      "(22.3 s\n  at 10 MB, ~2.5 min at 100 MB).\n");
  engine.Finish();
  return 0;
}
