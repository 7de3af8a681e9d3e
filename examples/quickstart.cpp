// Quickstart: create a storage system, store a large object with each of
// the three engines, and exercise the byte-range API.
//
// Build: cmake -B build -G Ninja && cmake --build build
// Run:   ./build/examples/quickstart

#include <cstdio>
#include <memory>
#include <string>

#include "core/factory.h"
#include "core/storage_system.h"

using namespace lob;

namespace {

/// Returns false if the object could not be built.
bool Demo(const char* name,
          std::unique_ptr<LargeObjectManager> (*make)(StorageSystem*)) {
  // A StorageSystem bundles the simulated disk, the 12-page buffer pool
  // and the two buddy-managed database areas (Table 1 defaults).
  StorageSystem sys;
  auto mgr = make(&sys);

  auto id = mgr->Create();
  if (!id.ok()) {
    std::printf("create failed: %s\n", id.status().ToString().c_str());
    return false;
  }

  // Objects are built by appending chunks - the way the paper expects
  // large objects to come into existence.
  std::string chunk(100 * 1024, 'a');
  for (int i = 0; i < 10; ++i) {
    chunk.assign(chunk.size(), static_cast<char>('a' + i));
    if (Status s = mgr->Append(*id, chunk); !s.ok()) {
      std::printf("append failed: %s\n", s.ToString().c_str());
      return false;
    }
  }

  // Byte-range operations at arbitrary positions.
  (void)mgr->Insert(*id, 150 * 1024, "<-- inserted -->");
  (void)mgr->Delete(*id, 400 * 1024, 64 * 1024);
  (void)mgr->Replace(*id, 0, "REPLACED HEADER");

  std::string out;
  (void)mgr->Read(*id, 150 * 1024 - 4, 24, &out);

  auto size = mgr->Size(*id);
  auto stats = mgr->GetStorageStats(*id);
  std::printf("%-10s size=%8llu bytes  segments=%4u  util=%5.1f%%  "
              "modeled I/O=%8.1f ms  window@150K=\"%s\"\n",
              name, static_cast<unsigned long long>(size.ok() ? *size : 0),
              stats.ok() ? stats->segments : 0,
              stats.ok() ? stats->Utilization(sys.config().page_size) * 100
                         : 0.0,
              sys.stats().ms, out.c_str());
  return true;
}

std::unique_ptr<LargeObjectManager> MakeEsm(StorageSystem* sys) {
  return CreateEsmManager(sys, /*leaf_pages=*/4);
}
std::unique_ptr<LargeObjectManager> MakeStarburst(StorageSystem* sys) {
  return CreateStarburstManager(sys);
}
std::unique_ptr<LargeObjectManager> MakeEos(StorageSystem* sys) {
  return CreateEosManager(sys, /*threshold_pages=*/4);
}

}  // namespace

int main() {
  std::printf("lobstore quickstart: one ~1 MB object per engine\n\n");
  bool built = Demo("ESM", MakeEsm);
  built &= Demo("Starburst", MakeStarburst);
  built &= Demo("EOS", MakeEos);
  std::printf(
      "\nNote the modeled I/O column: same logical work, different storage\n"
      "structures - the subject of the SIGMOD '92 study this library\n"
      "reproduces.\n");
  return built ? 0 : 1;
}
