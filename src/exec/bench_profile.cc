#include "exec/bench_profile.h"

#include <cstdio>
#include <cstdlib>

#include "common/json.h"

namespace lob {

std::string BenchProfile::MakeHostNote() {
  const char* note = std::getenv("LOB_BENCH_HOST_NOTE");
  return note == nullptr ? std::string() : std::string(note);
}

double BenchProfile::CellWallMsTotal() const {
  double total = 0;
  for (const Cell& c : cells_) total += c.wall_ms;
  return total;
}

double BenchProfile::CellModeledMsTotal() const {
  double total = 0;
  for (const Cell& c : cells_) total += c.modeled_ms;
  return total;
}

std::string BenchProfile::ToJson() const {
  std::string out = "{\n  \"bench\": \"";
  out += JsonEscape(bench_);
  out += "\",\n  \"schema_version\": " + std::to_string(kSchemaVersion);
  out += ",\n  \"jobs\": " + std::to_string(jobs_);
  out += ",\n  \"hardware_concurrency\": " +
         std::to_string(hardware_concurrency_);
  out += ",\n  \"host_note\": \"";
  out += JsonEscape(host_note_);
  out += "\",\n  \"suite_wall_ms\": ";
  AppendF(&out, "%.3f", suite_wall_ms_);
  out += ",\n  \"cell_wall_ms_total\": ";
  AppendF(&out, "%.3f", CellWallMsTotal());
  out += ",\n  \"cell_modeled_ms_total\": ";
  AppendF(&out, "%.3f", CellModeledMsTotal());
  if (!metrics_.empty()) {
    out += ",\n  \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      out += i == 0 ? "" : ", ";
      out += "\"";
      out += JsonEscape(metrics_[i].first);
      out += "\": ";
      AppendF(&out, "%.3f", metrics_[i].second);
    }
    out += "}";
  }
  if (!snapshot_json_.empty()) {
    out += ",\n  \"metrics_snapshot\": " + snapshot_json_;
  }
  out += ",\n  \"cells\": [";
  for (size_t i = 0; i < cells_.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"config\": \"";
    out += JsonEscape(cells_[i].config);
    out += "\", \"wall_ms\": ";
    AppendF(&out, "%.3f", cells_[i].wall_ms);
    out += ", \"modeled_ms\": ";
    AppendF(&out, "%.3f", cells_[i].modeled_ms);
    if (!cells_[i].snapshot_json.empty()) {
      out += ", \"metrics_snapshot\": " + cells_[i].snapshot_json;
    }
    out += "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

bool BenchProfile::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "BenchProfile: cannot write %s\n", path.c_str());
    return false;
  }
  const std::string json = ToJson();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  std::fclose(f);
  return ok;
}

}  // namespace lob
