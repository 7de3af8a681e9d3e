// lobtool: command line shell around a lobstore database image.
//
//   lobtool <db.img> init
//   lobtool <db.img> create <name> <esm|starburst|eos> [param]
//   lobtool <db.img> put <name> <file>            append file contents
//   lobtool <db.img> cat <name> [offset [bytes]]  object bytes to stdout
//   lobtool <db.img> insert <name> <offset> <file>
//   lobtool <db.img> delete <name> <offset> <bytes>
//   lobtool <db.img> ls
//   lobtool <db.img> rm <name>
//   lobtool <db.img> stat <name>
//   lobtool <db.img> info
//   lobtool <db.img> fsck [param]
//       cross-engine consistency check: per-object structural invariants,
//       extent cross-referencing against the buddy allocator (leaks,
//       double allocations, dangling references) and byte accounting.
//       `param` is the structural parameter for ESM/EOS objects (leaf
//       pages / threshold; default 4). Exit 1 when issues are found.
//   lobtool <db.img> stats [name] [table|json|csv]
//       per-operation I/O attribution ledger for this invocation. With a
//       name, the object is first scanned sequentially through its engine
//       so the ledger shows attributed read costs; image-load I/O shows up
//       under "(unattributed)". json/csv select the export format
//       (--json is accepted as an alias for json). The table adds
//       p50/p90/p99 modeled ms to the ledger; json prints the schema-v2
//       metrics snapshot: per-op p50/p90/p99/max modeled ms, pool
//       hit/miss/eviction rates, buddy free-extent stats and fault
//       counters.
//   lobtool profile <op-script> [esm|starburst|eos] [param]
//       [--format=tree|folded|json] [--out=FILE]
//       replays the op script (workload/trace.h text format: one
//       "<kind> <offset> <size> <seed>" per line) against a fresh
//       in-memory system of the chosen engine (default eos) with span
//       tracing attached, and renders the one recording in one of three
//       views: `tree` (default) is the aggregated span tree with count,
//       modeled ms, calls and pages per span; `folded` is that tree as
//       folded stacks (one "path;to;span <modeled-us>" line per node with
//       nonzero self cost; feed to speedscope or inferno-flamegraph);
//       `json` is the Chrome trace-event / Perfetto stream. --out writes
//       the view to FILE instead of stdout.
//
// Numeric arguments (offsets, byte counts, engine parameters) must be
// plain decimal numbers in range; anything else is an error (exit 1),
// never a silently truncated guess.
//
// Every mutating command reopens the image, applies the change, and saves
// it back - a deliberately simple single-shot model matching the
// simulated (volatile) disk underneath.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "check/fsck.h"
#include "core/database.h"
#include "core/factory.h"
#include "core/metrics_snapshot.h"
#include "trace/trace_session.h"
#include "workload/trace.h"
#include "workload/workload.h"

using namespace lob;

namespace {

int Fail(const Status& s) {
  std::fprintf(stderr, "lobtool: %s\n", s.ToString().c_str());
  return 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: lobtool <db.img> "
               "init|create|put|cat|insert|delete|ls|rm|stat|info|stats"
               "|fsck ...\n"
               "       lobtool profile <op-script> [esm|starburst|eos] "
               "[param] [--format=tree|folded|json] [--out=FILE]\n");
  return 2;
}

StatusOr<std::string> ReadFile(const std::string& path) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  if (f == nullptr) return Status::NotFound("cannot open " + path);
  std::string out;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f.get())) > 0) {
    out.append(buf, n);
  }
  return out;
}

StatusOr<Engine> ParseEngine(const std::string& name) {
  if (name == "esm") return Engine::kEsm;
  if (name == "starburst") return Engine::kStarburst;
  if (name == "eos") return Engine::kEos;
  return Status::InvalidArgument("unknown engine (esm|starburst|eos)");
}

/// `lobtool profile <op-script> [engine] [param] [--format=F] [--out=FILE]`:
/// replays the script on a fresh in-memory system of one engine with span
/// tracing attached and renders the recording as a tree, folded stacks or
/// Chrome/Perfetto JSON.
int RunProfile(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string script = argv[2];
  std::string engine_name = "eos";
  std::string format = "tree";
  std::string out_path;
  uint32_t param = 0;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--format=", 0) == 0) {
      format = arg.substr(9);
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (ParseEngine(arg).ok()) {
      engine_name = arg;
    } else {
      auto parsed = ParseNumber<uint32_t>(arg, "param");
      if (!parsed.ok()) return Fail(parsed.status());
      param = *parsed;
    }
  }
  if (format != "tree" && format != "folded" && format != "json") {
    return Fail(Status::InvalidArgument("bad --format=" + format +
                                        " (tree|folded|json)"));
  }

  auto trace = LoadTrace(script);
  if (!trace.ok()) return Fail(trace.status());
  // Declared before the system so it outlives the disk that points at it.
  TraceSession session;
  StorageSystem sys;
  sys.disk()->set_trace(&session);
  std::unique_ptr<LargeObjectManager> mgr;
  if (engine_name == "esm") {
    mgr = CreateEsmManager(&sys, param == 0 ? 4 : param);
  } else if (engine_name == "starburst") {
    mgr = CreateStarburstManager(&sys);
  } else {
    mgr = CreateEosManager(&sys, param == 0 ? 4 : param);
  }
  auto id = mgr->Create();
  if (!id.ok()) return Fail(id.status());
  auto io = ApplyTrace(&sys, mgr.get(), *id, *trace);
  if (!io.ok()) return Fail(io.status());
  sys.disk()->set_trace(nullptr);

  std::FILE* out = stdout;
  if (!out_path.empty()) {
    out = std::fopen(out_path.c_str(), "w");
    if (out == nullptr) {
      return Fail(Status::NotFound("cannot write " + out_path));
    }
  }
  if (format == "json") {
    std::fputs(TraceSession::ChromeTraceJson(
                   {{engine_name + " replay of " + script, &session}})
                   .c_str(),
               out);
  } else if (format == "folded") {
    std::fputs(TraceSession::Folded(session.Summarize()).c_str(), out);
  } else {
    std::fprintf(out, "replayed %zu ops (%s) from %s\n", trace->ops.size(),
                 engine_name.c_str(), script.c_str());
    std::fprintf(out, "modeled I/O: %s\n\n", io->ToString().c_str());
    TraceSession::PrintSummary(session.Summarize(), out);
  }
  if (out != stdout) std::fclose(out);
  return 0;
}

int Run(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string image = argv[1];
  const std::string cmd = argv[2];

  if (image == "profile") return RunProfile(argc, argv);

  if (cmd == "init") {
    auto db = Database::Create();
    if (!db.ok()) return Fail(db.status());
    if (Status s = (*db)->Save(image); !s.ok()) return Fail(s);
    std::printf("initialized %s\n", image.c_str());
    return 0;
  }

  auto db = Database::Open(image);
  if (!db.ok()) return Fail(db.status());

  if (cmd == "create") {
    if (argc < 5) return Usage();
    auto engine = ParseEngine(argv[4]);
    if (!engine.ok()) return Fail(engine.status());
    auto param = argc > 5 ? ParseNumber<uint32_t>(argv[5], "param")
                          : StatusOr<uint32_t>(4);
    if (!param.ok()) return Fail(param.status());
    auto id = (*db)->CreateObject(argv[3], *engine, *param);
    if (!id.ok()) return Fail(id.status());
    if (Status s = (*db)->Save(image); !s.ok()) return Fail(s);
    std::printf("created %s (%s, id %u)\n", argv[3], argv[4], *id);
    return 0;
  }

  if (cmd == "put" || cmd == "insert") {
    if (argc < (cmd == "put" ? 5 : 6)) return Usage();
    auto id = (*db)->Lookup(argv[3]);
    if (!id.ok()) return Fail(id.status());
    auto mgr = (*db)->ManagerForObject(*id);
    if (!mgr.ok()) return Fail(mgr.status());
    auto data = ReadFile(argv[cmd == "put" ? 4 : 5]);
    if (!data.ok()) return Fail(data.status());
    Status s;
    if (cmd == "put") {
      s = (*mgr)->Append(*id, *data);
    } else {
      auto off = ParseNumber<uint64_t>(argv[4], "offset");
      if (!off.ok()) return Fail(off.status());
      s = (*mgr)->Insert(*id, *off, *data);
    }
    if (!s.ok()) return Fail(s);
    if (Status saved = (*db)->Save(image); !saved.ok()) return Fail(saved);
    std::printf("%s %zu bytes into %s\n",
                cmd == "put" ? "appended" : "inserted", data->size(),
                argv[3]);
    return 0;
  }

  if (cmd == "cat") {
    if (argc < 4) return Usage();
    auto id = (*db)->Lookup(argv[3]);
    if (!id.ok()) return Fail(id.status());
    auto mgr = (*db)->ManagerForObject(*id);
    if (!mgr.ok()) return Fail(mgr.status());
    auto size = (*mgr)->Size(*id);
    if (!size.ok()) return Fail(size.status());
    auto off = argc > 4 ? ParseNumber<uint64_t>(argv[4], "offset")
                        : StatusOr<uint64_t>(0);
    if (!off.ok()) return Fail(off.status());
    auto n = argc > 5 ? ParseNumber<uint64_t>(argv[5], "bytes")
                      : StatusOr<uint64_t>(*size > *off ? *size - *off : 0);
    if (!n.ok()) return Fail(n.status());
    std::string out;
    if (Status s = (*mgr)->Read(*id, *off, *n, &out); !s.ok()) return Fail(s);
    std::fwrite(out.data(), 1, out.size(), stdout);
    return 0;
  }

  if (cmd == "delete") {
    if (argc < 6) return Usage();
    auto id = (*db)->Lookup(argv[3]);
    if (!id.ok()) return Fail(id.status());
    auto mgr = (*db)->ManagerForObject(*id);
    if (!mgr.ok()) return Fail(mgr.status());
    auto off = ParseNumber<uint64_t>(argv[4], "offset");
    if (!off.ok()) return Fail(off.status());
    auto n = ParseNumber<uint64_t>(argv[5], "bytes");
    if (!n.ok()) return Fail(n.status());
    if (Status s = (*mgr)->Delete(*id, *off, *n); !s.ok()) return Fail(s);
    if (Status saved = (*db)->Save(image); !saved.ok()) return Fail(saved);
    std::printf("deleted %llu bytes at %llu from %s\n",
                static_cast<unsigned long long>(*n),
                static_cast<unsigned long long>(*off), argv[3]);
    return 0;
  }

  if (cmd == "ls") {
    auto list = (*db)->catalog()->List();
    if (!list.ok()) return Fail(list.status());
    for (const auto& [name, id] : *list) {
      auto engine = (*db)->ObjectEngine(id);
      auto mgr = (*db)->ManagerForObject(id);
      uint64_t size = 0;
      if (mgr.ok()) {
        auto s = (*mgr)->Size(id);
        if (s.ok()) size = *s;
      }
      std::printf("%-32s %-10s %12llu bytes\n", name.c_str(),
                  engine.ok() ? EngineName(*engine) : "?",
                  static_cast<unsigned long long>(size));
    }
    return 0;
  }

  if (cmd == "rm") {
    if (argc < 4) return Usage();
    if (Status s = (*db)->DropObject(argv[3]); !s.ok()) return Fail(s);
    if (Status saved = (*db)->Save(image); !saved.ok()) return Fail(saved);
    std::printf("removed %s\n", argv[3]);
    return 0;
  }

  if (cmd == "stat") {
    if (argc < 4) return Usage();
    auto id = (*db)->Lookup(argv[3]);
    if (!id.ok()) return Fail(id.status());
    auto mgr = (*db)->ManagerForObject(*id);
    if (!mgr.ok()) return Fail(mgr.status());
    auto stats = (*mgr)->GetStorageStats(*id);
    if (!stats.ok()) return Fail(stats.status());
    auto engine = (*db)->ObjectEngine(*id);
    std::printf("name:        %s\n", argv[3]);
    std::printf("engine:      %s\n",
                engine.ok() ? EngineName(*engine) : "?");
    std::printf("size:        %llu bytes\n",
                static_cast<unsigned long long>(stats->object_bytes));
    std::printf("segments:    %u\n", stats->segments);
    std::printf("leaf pages:  %llu\n",
                static_cast<unsigned long long>(stats->leaf_pages));
    std::printf("index pages: %llu\n",
                static_cast<unsigned long long>(stats->index_pages));
    std::printf("tree height: %u\n", stats->tree_height);
    std::printf("utilization: %.1f%%\n",
                stats->Utilization((*db)->sys()->config().page_size) * 100);
    return 0;
  }

  if (cmd == "stats") {
    StorageSystem* sys = (*db)->sys();
    std::string fmt = "table";
    std::string name;
    for (int i = 3; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "table" || arg == "json" || arg == "csv") {
        fmt = arg;
      } else if (arg == "--json") {
        fmt = "json";
      } else {
        name = arg;
      }
    }
    if (!name.empty()) {
      // Scan the named object through its engine so the ledger contains
      // attributed per-op rows, not just the unattributed image load.
      auto id = (*db)->Lookup(name);
      if (!id.ok()) return Fail(id.status());
      auto mgr = (*db)->ManagerForObject(*id);
      if (!mgr.ok()) return Fail(mgr.status());
      auto size = (*mgr)->Size(*id);
      if (!size.ok()) return Fail(size.status());
      std::string chunk;
      const uint64_t step = 256 * 1024;
      for (uint64_t off = 0; off < *size; off += step) {
        const uint64_t n = std::min<uint64_t>(step, *size - off);
        if (Status s = (*mgr)->Read(*id, off, n, &chunk); !s.ok()) {
          return Fail(s);
        }
      }
    }
    const ObsRegistry* obs = sys->obs();
    if (fmt == "json") {
      std::printf("%s\n", MetricsSnapshot::Collect(sys).ToJson().c_str());
      return 0;
    }
    if (fmt == "csv") {
      std::fputs(obs->ToCsv().c_str(), stdout);
      return 0;
    }
    std::printf("%-24s %10s %10s %10s %10s %12s %9s %9s %9s\n", "op", "count",
                "reads", "writes", "pages", "ms", "p50", "p90", "p99");
    for (const auto& [label, rec] : obs->ops()) {
      std::printf("%-24s %10llu %10llu %10llu %10llu %12.1f", label.c_str(),
                  static_cast<unsigned long long>(rec.count),
                  static_cast<unsigned long long>(rec.io.read_calls),
                  static_cast<unsigned long long>(rec.io.write_calls),
                  static_cast<unsigned long long>(rec.io.PagesTransferred()),
                  rec.io.ms);
      if (rec.count > 0) {
        std::printf(" %9.1f %9.1f %9.1f\n", rec.ms.Quantile(0.5),
                    rec.ms.Quantile(0.9), rec.ms.Quantile(0.99));
      } else {
        std::printf(" %9s %9s %9s\n", "-", "-", "-");
      }
    }
    std::printf("global: %s\n", sys->stats().ToString().c_str());
    std::printf("conservation: %s\n",
                obs->ConservationHolds(sys->stats()) ? "OK" : "VIOLATED");
    return 0;
  }

  if (cmd == "fsck") {
    auto param = argc > 3 ? ParseNumber<uint32_t>(argv[3], "param")
                          : StatusOr<uint32_t>(4);
    if (!param.ok()) return Fail(param.status());
    auto report = FsckDatabase(db->get(), *param);
    if (!report.ok()) return Fail(report.status());
    std::fputs(report->ToString().c_str(), stdout);
    return report->clean() ? 0 : 1;
  }

  if (cmd == "info") {
    StorageSystem* sys = (*db)->sys();
    auto count = (*db)->catalog()->Size();
    std::printf("objects:          %llu\n",
                static_cast<unsigned long long>(count.ok() ? *count : 0));
    std::printf("meta area pages:  %llu allocated (%u buddy spaces)\n",
                static_cast<unsigned long long>(
                    sys->meta_area()->allocated_pages()),
                sys->meta_area()->num_spaces());
    std::printf("leaf area pages:  %llu allocated (%u buddy spaces)\n",
                static_cast<unsigned long long>(
                    sys->leaf_area()->allocated_pages()),
                sys->leaf_area()->num_spaces());
    std::printf("allocated bytes:  %llu\n",
                static_cast<unsigned long long>(sys->AllocatedBytes()));
    return 0;
  }

  return Usage();
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
