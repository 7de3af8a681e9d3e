// Table 2: Starburst read I/O cost for mean operation sizes 100 B, 10 K
// and 100 K (+/-50%), uniformly placed over a 10 M-byte long field.
// Because Starburst completely reorganizes the affected segments on every
// update, read cost does not depend on prior updates; this bench measures
// reads over a freshly built field.
//
// Paper values: 37 ms (100 B), 54 ms (10 K), 201 ms (100 K).

#include "bench/bench_common.h"

using namespace lob;
using namespace lob::bench;

int main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::Parse(argc, argv);
  PrintBanner("table2_starburst_read: Starburst read I/O cost",
              "Table 2 (Starburst read I/O cost)");
  const uint32_t reads = args.quick ? 200 : 2000;
  std::printf("object: %.1f MB, reads per size: %u\n\n",
              static_cast<double>(args.object_bytes) / 1048576.0, reads);

  StorageSystem sys;
  auto mgr = CreateStarburstManager(&sys);
  auto id = mgr->Create();
  LOB_CHECK_OK(id.status());
  LOB_CHECK_OK(
      BuildObject(&sys, mgr.get(), *id, args.object_bytes, 100 * 1024)
          .status());

  std::printf("%18s  %14s  %14s\n", "mean op size", "measured [ms]",
              "paper [ms]");
  const double paper[] = {37, 54, 201};
  int row = 0;
  for (uint64_t mean : {100ull, 10000ull, 100000ull}) {
    Rng rng(mean);
    std::string buf;
    double total = 0;
    for (uint32_t i = 0; i < reads; ++i) {
      uint64_t n = rng.Uniform(mean / 2, mean * 3 / 2);
      n = std::min<uint64_t>(n, args.object_bytes);
      const uint64_t off = rng.Uniform(0, args.object_bytes - n);
      const IoStats before = sys.stats();
      LOB_CHECK_OK(mgr->Read(*id, off, n, &buf));
      total += IoStats::Delta(before, sys.stats()).ms;
    }
    std::printf("%18llu  %14.1f  %14.0f\n",
                static_cast<unsigned long long>(mean), total / reads,
                paper[row++]);
  }
  return 0;
}
