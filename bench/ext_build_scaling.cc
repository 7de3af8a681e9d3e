// Extension: object build cost vs object size. The paper (4.2) states the
// cost of creating an object grows linearly with its size ("to obtain the
// time required to build a 100 M-byte object, just multiply the numbers in
// Figure 5 by 10"). This bench reports seconds-per-megabyte at several
// object sizes; a flat column means linear scaling. The (size x engine)
// grid runs as one fan-out job per cell.

#include "bench/bench_common.h"

using namespace lob;
using namespace lob::bench;

int main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::Parse(argc, argv);
  PrintBanner("ext_build_scaling: build cost per MB vs object size",
              "4.2 (build cost grows linearly with object size)");
  const uint64_t append = 32 * 1024;
  std::printf("append size: %llu KB\n\n",
              static_cast<unsigned long long>(append / 1024));

  std::vector<EngineSpec> specs = {EsmSpecs()[1], StarburstSpec(),
                                   {"EOS T=4", [](StorageSystem* sys) {
                                      return CreateEosManager(sys, 4);
                                    }}};
  std::vector<uint64_t> sizes_mb = args.quick
                                       ? std::vector<uint64_t>{1, 2, 4}
                                       : std::vector<uint64_t>{1, 5, 10, 20,
                                                               50};

  std::vector<std::string> cell_labels;
  for (uint64_t mb : sizes_mb) {
    for (const auto& spec : specs) {
      cell_labels.push_back("object_mb=" + std::to_string(mb) + "/" +
                            spec.label);
    }
  }
  BenchEngine engine("ext_build_scaling", args);
  Mapped<double> per_mb = engine.Map<double>(
      cell_labels, [&](size_t i, JobOutput* out) {
        const uint64_t mb = sizes_mb[i / specs.size()];
        const EngineSpec& spec = specs[i % specs.size()];
        StorageSystem sys;
        auto mgr = spec.make(&sys);
        auto id = mgr->Create();
        LOB_CHECK_OK(id.status());
        auto r = BuildObject(&sys, mgr.get(), *id, mb * 1024 * 1024, append);
        LOB_CHECK_OK(r.status());
        out->SetModeledMs(r->Ms());
        return r->Seconds() / static_cast<double>(mb);
      });

  std::printf("%10s", "object_mb");
  for (const auto& s : specs) std::printf("  %16s", s.label.c_str());
  std::printf("   [seconds per MB]\n");
  size_t idx = 0;
  for (uint64_t mb : sizes_mb) {
    std::printf("%10llu", static_cast<unsigned long long>(mb));
    for (size_t k = 0; k < specs.size(); ++k, ++idx) {
      std::printf("  %16.2f", per_mb.values[idx]);
    }
    std::printf("\n");
  }
  std::printf("\npaper anchor: per-MB cost is constant (linear scaling).\n");
  engine.Finish();
  return 0;
}
