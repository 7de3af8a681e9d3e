// Extension: many objects sharing the database areas. The paper runs a
// single 10 MB object; real systems store many objects whose allocations
// interleave in the buddy spaces. This bench keeps N objects alive under
// the update mix and reports aggregate utilization and read cost,
// checking that the buddy allocator's fragmentation stays benign when
// segments of many objects mix. Each engine configuration runs as one
// fan-out job with its own private StorageSystem.

#include "bench/bench_common.h"

using namespace lob;
using namespace lob::bench;

namespace {

struct MultiResult {
  double read_ms = 0;
  double insert_ms = 0;
  double utilization = 0;
};

MultiResult RunMulti(const EngineSpec& spec, uint32_t n_objects,
                     uint64_t per_object, uint32_t total_ops,
                     JobOutput* out) {
  StorageSystem sys;
  auto mgr = spec.make(&sys);
  std::vector<ObjectId> ids;
  uint64_t logical_bytes = 0;
  for (uint32_t i = 0; i < n_objects; ++i) {
    auto id = mgr->Create();
    LOB_CHECK_OK(id.status());
    LOB_CHECK_OK(BuildObject(&sys, mgr.get(), *id, per_object, 100 * 1024,
                             /*seed=*/100 + i)
                     .status());
    ids.push_back(*id);
    logical_bytes += per_object;
  }
  // Interleaved update mix across all objects.
  Rng rng(5);
  std::string buf;
  double read_ms = 0, insert_ms = 0;
  uint32_t reads = 0, inserts = 0;
  uint64_t last_insert = 10000;
  for (uint32_t op = 0; op < total_ops; ++op) {
    LargeObjectManager* m = mgr.get();
    const ObjectId id = ids[rng.Uniform(0, ids.size() - 1)];
    auto size_or = m->Size(id);
    LOB_CHECK_OK(size_or.status());
    const uint64_t size = *size_or;
    const double p = rng.NextDouble();
    const IoStats before = sys.stats();
    if (p < 0.4) {
      uint64_t n = std::min<uint64_t>(rng.Uniform(5000, 15000), size);
      if (n == 0) continue;
      LOB_CHECK_OK(m->Read(id, rng.Uniform(0, size - n), n, &buf));
      read_ms += IoStats::Delta(before, sys.stats()).ms;
      reads++;
    } else if (p < 0.7) {
      const uint64_t n = rng.Uniform(5000, 15000);
      Rng content(rng.Next());
      FillBytes(&content, n, &buf, NoZeroInit{});
      LOB_CHECK_OK(m->Insert(id, rng.Uniform(0, size), buf));
      insert_ms += IoStats::Delta(before, sys.stats()).ms;
      inserts++;
      last_insert = n;
      logical_bytes += n;
    } else {
      const uint64_t n = std::min(last_insert, size);
      if (n == 0) continue;
      LOB_CHECK_OK(m->Delete(id, rng.Uniform(0, size - n), n));
      logical_bytes -= n;
    }
  }
  for (ObjectId id : ids) LOB_CHECK_OK(mgr->Validate(id));
  out->SetModeledMs(sys.stats().ms);
  MultiResult result;
  result.read_ms = reads ? read_ms / reads : 0;
  result.insert_ms = inserts ? insert_ms / inserts : 0;
  result.utilization = static_cast<double>(logical_bytes) /
                       static_cast<double>(sys.AllocatedBytes());
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::Parse(argc, argv);
  PrintBanner("ext_multi_object: N interleaved objects per area",
              "beyond the paper (single-object study; here allocations "
              "interleave)");
  const uint32_t n_objects = 8;
  const uint64_t per_object = args.object_bytes / n_objects;
  std::printf("%u objects x %.2f MB, 10 K mix, %u ops total\n\n", n_objects,
              static_cast<double>(per_object) / 1048576.0, args.ops);

  std::vector<EngineSpec> specs = {EsmSpecs()[1],
                                   {"EOS T=4",
                                    [](StorageSystem* sys) {
                                      return CreateEosManager(sys, 4);
                                    }},
                                   {"EOS T=16", [](StorageSystem* sys) {
                                      return CreateEosManager(sys, 16);
                                    }}};

  std::vector<std::string> cell_labels;
  for (const auto& spec : specs) cell_labels.push_back(spec.label);
  BenchEngine engine("ext_multi_object", args);
  Mapped<MultiResult> results = engine.Map<MultiResult>(
      cell_labels, [&](size_t i, JobOutput* out) {
        return RunMulti(specs[i], n_objects, per_object, args.ops, out);
      });

  std::printf("%12s  %14s  %14s  %14s\n", "engine", "read [ms]",
              "insert [ms]", "utilization");
  for (size_t k = 0; k < specs.size(); ++k) {
    const MultiResult& r = results.values[k];
    std::printf("%12s  %14.1f  %14.1f  %13.1f%%\n", specs[k].label.c_str(),
                r.read_ms, r.insert_ms, r.utilization * 100);
  }
  std::printf(
      "\nexpected: per-object behaviour carries over - interleaving many\n"
      "objects in shared buddy spaces does not change the ranking.\n");
  engine.Finish();
  return 0;
}
