#include "obs/obs_registry.h"

#include <cmath>
#include <cstdio>
#include <string_view>

#include "common/csv.h"
#include "common/json.h"

namespace lob {

void Histogram::Add(uint64_t value) {
  buckets_[BucketIndex(value)]++;
  count_++;
  sum_ += value;
  if (value < min_) min_ = value;
  if (value > max_) max_ = value;
}

double Histogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  if (q <= 0.0) return static_cast<double>(min_);
  if (q >= 1.0) return static_cast<double>(max_);
  const double target = q * static_cast<double>(count_ - 1);
  uint64_t cum = 0;
  for (int i = 0; i < kBuckets; ++i) {
    const uint64_t n = buckets_[i];
    if (n == 0) continue;
    if (target < static_cast<double>(cum) + static_cast<double>(n)) {
      const double lo = static_cast<double>(BucketLowerBound(i));
      const double hi = i == 0 ? 1.0
                        : i == kBuckets - 1
                            ? static_cast<double>(max_) + 1.0
                            : static_cast<double>(uint64_t{1} << i);
      const double pos = target - static_cast<double>(cum);
      double v = lo + (hi - lo) * (pos / static_cast<double>(n));
      if (v < static_cast<double>(min_)) v = static_cast<double>(min_);
      if (v > static_cast<double>(max_)) v = static_cast<double>(max_);
      return v;
    }
    cum += n;
  }
  return static_cast<double>(max_);
}

void Histogram::MergeFrom(const Histogram& other) {
  for (int i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_ += other.sum_;
  if (other.count_ > 0) {
    if (other.min_ < min_) min_ = other.min_;
    if (other.max_ > max_) max_ = other.max_;
  }
}

int Histogram::BucketIndex(uint64_t value) {
  if (value == 0) return 0;
  int i = 1;
  while (value > 1 && i < kBuckets - 1) {
    value >>= 1;
    ++i;
  }
  return i;
}

uint64_t Histogram::BucketLowerBound(int i) {
  if (i <= 0) return 0;
  return uint64_t{1} << (i - 1);
}

void ObsRegistry::RecordOpEnd(const char* label, const IoStats& op_delta,
                              bool /*unused*/) {
  // One heterogeneous lookup per op end; the label's ledger record and
  // histogram destinations are resolved (and their name strings built)
  // only the first time the label is seen.
  auto it = op_end_memo_.find(std::string_view(label));
  if (it == op_end_memo_.end()) {
    const std::string base(label);
    OpEndEntry e;
    e.rec = &ops_[base];
    e.ms = &Histo(base + ".ms");
    e.seeks = &Histo(base + ".seeks");
    e.pages = &Histo(base + ".pages");
    it = op_end_memo_.emplace(base, e).first;
  }
  OpEndEntry& e = it->second;
  e.rec->count++;
  e.ms->Add(
      static_cast<uint64_t>(std::llround(op_delta.ms < 0 ? 0 : op_delta.ms)));
  e.seeks->Add(op_delta.Seeks());
  e.pages->Add(op_delta.PagesTransferred());
}

IoStats ObsRegistry::AttributedTotal() const {
  IoStats total;
  for (const auto& [label, rec] : ops_) total += rec.io;
  return total;
}

bool ObsRegistry::ConservationHolds(const IoStats& global) const {
  const IoStats sum = AttributedTotal();
  return sum.read_calls == global.read_calls &&
         sum.write_calls == global.write_calls &&
         sum.pages_read == global.pages_read &&
         sum.pages_written == global.pages_written &&
         std::fabs(sum.ms - global.ms) < 1e-6 * (1.0 + std::fabs(global.ms));
}

void ObsRegistry::MergeFrom(const ObsRegistry& other) {
  for (const auto& [label, rec] : other.ops_) {
    OpRecord& mine = ops_[label];
    mine.count += rec.count;
    mine.io += rec.io;
  }
  for (const auto& [name, value] : other.counters_) counters_[name] += value;
  for (const auto& [name, h] : other.histograms_) {
    histograms_[name].MergeFrom(h);
  }
}

void ObsRegistry::Reset() {
  ops_.clear();
  counters_.clear();
  histograms_.clear();
  op_end_memo_.clear();
  ++attr_gen_;
}

std::string ObsRegistry::ToJson() const {
  std::string out = "{\n  \"ops\": {";
  bool first = true;
  for (const auto& [label, rec] : ops_) {
    AppendF(&out,
            "%s\n    \"%s\": {\"count\": %llu, \"read_calls\": %llu, "
            "\"write_calls\": %llu, \"pages_read\": %llu, "
            "\"pages_written\": %llu, \"ms\": %.3f}",
            first ? "" : ",", JsonEscape(label).c_str(),
            static_cast<unsigned long long>(rec.count),
            static_cast<unsigned long long>(rec.io.read_calls),
            static_cast<unsigned long long>(rec.io.write_calls),
            static_cast<unsigned long long>(rec.io.pages_read),
            static_cast<unsigned long long>(rec.io.pages_written),
            rec.io.ms);
    first = false;
  }
  out += "\n  },\n  \"counters\": {";
  first = true;
  for (const auto& [name, value] : counters_) {
    AppendF(&out, "%s\n    \"%s\": %llu", first ? "" : ",",
            JsonEscape(name).c_str(), static_cast<unsigned long long>(value));
    first = false;
  }
  out += "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    AppendF(&out,
            "%s\n    \"%s\": {\"count\": %llu, \"sum\": %llu, "
            "\"min\": %llu, \"max\": %llu, \"p50\": %.3f, \"p90\": %.3f, "
            "\"p99\": %.3f, \"buckets\": [",
            first ? "" : ",", JsonEscape(name).c_str(),
            static_cast<unsigned long long>(h.count()),
            static_cast<unsigned long long>(h.sum()),
            static_cast<unsigned long long>(h.min()),
            static_cast<unsigned long long>(h.max()), h.Quantile(0.5),
            h.Quantile(0.9), h.Quantile(0.99));
    bool first_bucket = true;
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      if (h.bucket(i) == 0) continue;
      AppendF(&out, "%s[%llu, %llu]", first_bucket ? "" : ", ",
              static_cast<unsigned long long>(Histogram::BucketLowerBound(i)),
              static_cast<unsigned long long>(h.bucket(i)));
      first_bucket = false;
    }
    out += "]}";
    first = false;
  }
  out += "\n  }\n}\n";
  return out;
}

std::string ObsRegistry::ToCsv() const {
  std::string out =
      "op,count,read_calls,write_calls,pages_read,pages_written,seeks,pages,"
      "ms\n";
  for (const auto& [label, rec] : ops_) {
    // RFC-4180 escaping: labels (and future span names) may contain
    // commas or quotes; shared with the timeline CSV exporter.
    AppendF(&out, "%s,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%.3f\n",
            CsvEscape(label).c_str(),
            static_cast<unsigned long long>(rec.count),
            static_cast<unsigned long long>(rec.io.read_calls),
            static_cast<unsigned long long>(rec.io.write_calls),
            static_cast<unsigned long long>(rec.io.pages_read),
            static_cast<unsigned long long>(rec.io.pages_written),
            static_cast<unsigned long long>(rec.io.Seeks()),
            static_cast<unsigned long long>(rec.io.PagesTransferred()),
            rec.io.ms);
  }
  return out;
}

}  // namespace lob
