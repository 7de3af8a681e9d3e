#include "obs/obs_registry.h"

#include <cmath>

#include "common/csv.h"
#include "common/json.h"

namespace lob {

void Histogram::Add(uint64_t value) {
  buckets_[BucketIndex(value)]++;
  count_++;
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
      // Bucket 0 holds only 0 and bucket 1 only 1: nothing to interpolate.
      if (i <= 1) return static_cast<double>(i);
      const double lo = static_cast<double>(BucketLowerBound(i));
      const double hi = i == kBuckets - 1
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

ObsRegistry::OpRecord* ObsRegistry::AttributionRecord(
    std::string_view label) {
  auto it = ops_.find(label);
  if (it == ops_.end()) {
    it = ops_.emplace(std::string(label), OpRecord()).first;
  }
  return &it->second;
}

void ObsRegistry::RecordOpEnd(const char* label, const IoStats& op_delta,
                              bool /*unused*/) {
  OpRecord* rec = AttributionRecord(label);
  rec->count++;
  rec->ms.Add(
      static_cast<uint64_t>(std::llround(op_delta.ms < 0 ? 0 : op_delta.ms)));
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
    OpRecord* mine = AttributionRecord(label);
    mine->count += rec.count;
    mine->io += rec.io;
    mine->ms.MergeFrom(rec.ms);
  }
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
