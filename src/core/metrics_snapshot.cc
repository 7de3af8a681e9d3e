#include "core/metrics_snapshot.h"

#include <cstdio>

#include "buddy/database_area.h"
#include "buffer/buffer_pool.h"
#include "common/json.h"
#include "core/storage_system.h"
#include "iomodel/sim_disk.h"

namespace lob {

namespace {

MetricsSnapshot::AreaStats SnapshotArea(const DatabaseArea& area) {
  MetricsSnapshot::AreaStats s;
  s.allocated_pages = area.allocated_pages();
  s.free_pages = area.free_pages();
  s.num_spaces = area.num_spaces();
  s.largest_free_extent = area.LargestFreeExtent();
  area.AccumulateFreeChunks(&s.free_chunks);
  return s;
}

}  // namespace

double MetricsSnapshot::PoolStats::HitRate() const {
  const uint64_t fixes = hits + misses;
  return fixes == 0 ? 0.0
                    : static_cast<double>(hits) / static_cast<double>(fixes);
}

MetricsSnapshot MetricsSnapshot::FromRegistry(const ObsRegistry& obs) {
  MetricsSnapshot snap;
  for (const auto& [label, rec] : obs.ops()) {
    OpStats op;
    op.count = rec.count;
    op.io = rec.io;
    op.mean_ms =
        rec.count == 0 ? 0.0 : rec.io.ms / static_cast<double>(rec.count);
    op.p50_ms = rec.ms.Quantile(0.5);
    op.p90_ms = rec.ms.Quantile(0.9);
    op.p99_ms = rec.ms.Quantile(0.99);
    op.max_ms = rec.ms.max();
    snap.ops[label] = op;
  }
  return snap;
}

MetricsSnapshot MetricsSnapshot::Collect(StorageSystem* sys) {
  MetricsSnapshot snap = FromRegistry(*sys->obs());
  snap.has_substrate = true;
  snap.pool.hits = sys->pool()->hits();
  snap.pool.misses = sys->pool()->misses();
  snap.pool.evictions = sys->pool()->evictions();
  snap.faults.armed = sys->disk()->armed_faults();
  snap.faults.fired = sys->disk()->faults_fired();
  snap.faults.foreground_calls = sys->disk()->foreground_calls();
  snap.areas["leaf"] = SnapshotArea(*sys->leaf_area());
  snap.areas["meta"] = SnapshotArea(*sys->meta_area());
  return snap;
}

std::string MetricsSnapshot::ToJson(const std::string& indent) const {
  // One nesting level per line; `in` is the indentation of members.
  const std::string in = indent + "  ";
  const std::string in2 = in + "  ";
  std::string out = "{";
  bool first_section = true;
  auto section = [&](const char* name) {
    AppendF(&out, "%s\n%s\"%s\": ", first_section ? "" : ",", in.c_str(),
            name);
    first_section = false;
  };

  if (has_substrate) {
    section("areas");
    out += "{";
    bool first_area = true;
    for (const auto& [name, a] : areas) {
      AppendF(&out,
              "%s\n%s\"%s\": {\"allocated_pages\": %llu, "
              "\"free_chunks\": [",
              first_area ? "" : ",", in2.c_str(), JsonEscape(name).c_str(),
              static_cast<unsigned long long>(a.allocated_pages));
      bool first_chunk = true;
      for (const auto& [size, n] : a.free_chunks) {
        AppendF(&out, "%s[%u, %llu]", first_chunk ? "" : ", ", size,
                static_cast<unsigned long long>(n));
        first_chunk = false;
      }
      AppendF(&out,
              "], \"free_pages\": %llu, \"largest_free_extent\": %u, "
              "\"num_spaces\": %u}",
              static_cast<unsigned long long>(a.free_pages),
              a.largest_free_extent, a.num_spaces);
      first_area = false;
    }
    AppendF(&out, "\n%s}", in.c_str());
  }

  if (has_substrate) {
    section("faults");
    AppendF(&out,
            "{\"armed\": %u, \"fired\": %llu, \"foreground_calls\": %llu}",
            faults.armed, static_cast<unsigned long long>(faults.fired),
            static_cast<unsigned long long>(faults.foreground_calls));
  }

  section("ops");
  out += "{";
  bool first = true;
  for (const auto& [label, op] : ops) {
    AppendF(&out,
            "%s\n%s\"%s\": {\"count\": %llu, \"max_ms\": %llu, "
            "\"mean_ms\": %.3f, \"ms\": %.3f, \"p50_ms\": %.3f, "
            "\"p90_ms\": %.3f, \"p99_ms\": %.3f, \"pages\": %llu, "
            "\"seeks\": %llu}",
            first ? "" : ",", in2.c_str(), JsonEscape(label).c_str(),
            static_cast<unsigned long long>(op.count),
            static_cast<unsigned long long>(op.max_ms), op.mean_ms, op.io.ms,
            op.p50_ms, op.p90_ms, op.p99_ms,
            static_cast<unsigned long long>(op.io.PagesTransferred()),
            static_cast<unsigned long long>(op.io.Seeks()));
    first = false;
  }
  AppendF(&out, "%s%s}", first ? "" : "\n", first ? "" : in.c_str());

  section("pool");
  AppendF(&out,
          "{\"evictions\": %llu, \"hit_rate\": %.6f, \"hits\": %llu, "
          "\"misses\": %llu}",
          static_cast<unsigned long long>(pool.evictions), pool.HitRate(),
          static_cast<unsigned long long>(pool.hits),
          static_cast<unsigned long long>(pool.misses));

  section("schema_version");
  out += "2";
  AppendF(&out, "\n%s}", indent.c_str());
  return out;
}

}  // namespace lob
