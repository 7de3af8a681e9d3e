// Table 3: Starburst insert and delete I/O cost. The cost is dominated by
// copying the long field's segments to new disk locations through the
// 512 K-byte staging buffer, so it is flat in the operation size and the
// same for inserts and deletes.
//
// Paper value: 22.3 s on the 10 M-byte object, for every operation size -
// consistent with copying the whole field (20 x (545 ms read + 545 ms
// write) ~ 21.8 s), which is what kFullCopy models; the 3.5 prototype
// description (copy from the containing segment onward) is kTailCopy.
// Both modes are reported.

#include "bench/bench_common.h"
#include "starburst/starburst_manager.h"

using namespace lob;
using namespace lob::bench;

int main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::Parse(argc, argv);
  PrintBanner("table3_starburst_update: Starburst insert/delete I/O cost",
              "Table 3 (Starburst insert and delete I/O cost)");
  const uint32_t ops = args.quick ? 10 : 60;
  std::printf("object: %.1f MB, insert+delete pairs per size: %u\n\n",
              static_cast<double>(args.object_bytes) / 1048576.0, ops);

  std::printf("%12s  %12s  %14s  %14s  %12s\n", "copy mode", "mean op",
              "insert [s]", "delete [s]", "paper [s]");
  for (UpdateCopyMode mode :
       {UpdateCopyMode::kTailCopy, UpdateCopyMode::kFullCopy}) {
    for (uint64_t mean : {100ull, 10000ull, 100000ull}) {
      StorageSystem sys;
      StarburstOptions opt;
      opt.copy_mode = mode;
      StarburstManager mgr(&sys, opt);
      auto id = mgr.Create();
      LOB_CHECK_OK(id.status());
      LOB_CHECK_OK(
          BuildObject(&sys, &mgr, *id, args.object_bytes, 100 * 1024)
              .status());
      Rng rng(mean);
      std::string buf;
      double insert_ms = 0, delete_ms = 0;
      for (uint32_t i = 0; i < ops; ++i) {
        const uint64_t n = rng.Uniform(mean / 2, mean * 3 / 2);
        const uint64_t off = rng.Uniform(0, args.object_bytes - 1);
        Rng content(rng.Next());
        FillBytes(&content, n, &buf);
        IoStats before = sys.stats();
        LOB_CHECK_OK(mgr.Insert(*id, off, buf));
        insert_ms += IoStats::Delta(before, sys.stats()).ms;
        // Delete the same number of bytes (paper: delete size = size of
        // the immediately previous insert) to keep the object stable.
        before = sys.stats();
        LOB_CHECK_OK(mgr.Delete(*id, off, n));
        delete_ms += IoStats::Delta(before, sys.stats()).ms;
      }
      std::printf("%12s  %12llu  %14.1f  %14.1f  %12s\n",
                  mode == UpdateCopyMode::kTailCopy ? "tail" : "full",
                  static_cast<unsigned long long>(mean),
                  insert_ms / ops / 1000.0, delete_ms / ops / 1000.0,
                  "22.3");
    }
  }
  std::printf(
      "\npaper anchors: flat across op sizes; equal for inserts and "
      "deletes;\n  ~2.5 minutes on a 100 M-byte object (cost scales with "
      "object size).\n");
  return 0;
}
