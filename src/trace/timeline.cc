#include "trace/timeline.h"

#include <cstdio>

#include "common/csv.h"

namespace lob {

std::string TimelineSampler::CsvHeader() {
  return "config,ops,modeled_ms,object_bytes,allocated_bytes,utilization,"
         "segments,seg_bytes_min,seg_bytes_mean,seg_bytes_max,free_pages,"
         "largest_free_extent,free_extents\n";
}

void TimelineSampler::AppendCsv(const std::string& label,
                                std::string* out) const {
  const std::string escaped = CsvEscape(label);
  for (const TimelineSample& s : samples_) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  ",%u,%.3f,%llu,%llu,%.6f,%llu,%llu,%.1f,%llu,%llu,%llu,",
                  s.ops_done, s.modeled_ms,
                  static_cast<unsigned long long>(s.object_bytes),
                  static_cast<unsigned long long>(s.allocated_bytes),
                  s.utilization, static_cast<unsigned long long>(s.segments),
                  static_cast<unsigned long long>(s.seg_bytes_min),
                  s.seg_bytes_mean,
                  static_cast<unsigned long long>(s.seg_bytes_max),
                  static_cast<unsigned long long>(s.free_pages),
                  static_cast<unsigned long long>(s.largest_free_extent));
    out->append(escaped);
    out->append(buf);
    // Histogram field: "pages:count;..." — ';' keeps it one CSV field.
    std::string histo;
    for (const auto& [pages, count] : s.free_extents) {
      if (!histo.empty()) histo.push_back(';');
      char pair_buf[48];
      std::snprintf(pair_buf, sizeof(pair_buf), "%u:%llu", pages,
                    static_cast<unsigned long long>(count));
      histo.append(pair_buf);
    }
    out->append(CsvEscape(histo));
    out->push_back('\n');
  }
}

}  // namespace lob
