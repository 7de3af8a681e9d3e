#include "lobbench/trace.h"

#include <chrono>
#include <cstdio>
#include <vector>

namespace perfbench {

namespace {

constexpr const char* kSiteNames[] = {
#define PERFBENCH_SITE_NAME(id, name, layer) name,
    PERFBENCH_SITES(PERFBENCH_SITE_NAME)
#undef PERFBENCH_SITE_NAME
};

constexpr Layer kSiteLayers[] = {
#define PERFBENCH_SITE_LAYER(id, name, layer) Layer::layer,
    PERFBENCH_SITES(PERFBENCH_SITE_LAYER)
#undef PERFBENCH_SITE_LAYER
};

constexpr uint32_t kNoSpan = UINT32_MAX;
/// Spans of the first kKeptOps ops of a window are kept for WriteSpans;
/// the totals cover every span. A doc_edit window has ~35 spans per op.
constexpr uint32_t kKeptOps = 10000;

struct SpanRecord {
  uint64_t start_ns;
  uint64_t end_ns;
  uint32_t parent;
  uint32_t op;
  Site site;
};

struct OpenSpan {
  uint64_t start_ns;
  uint64_t child_ns;  ///< time covered by directly nested spans
  uint32_t record;    ///< index in Recorder::spans, or kNoSpan
  Site site;
};

struct Recorder {
  bool recording = false;
  uint32_t op = 0;
  std::vector<SpanRecord> spans;
  std::vector<OpenSpan> stack;
  SiteTotals totals;
};

Recorder& recorder() {
  static Recorder r;
  return r;
}

[[maybe_unused]] uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kClient: return "client";
    case Layer::kIoModel: return "iomodel";
    case Layer::kBuffer: return "buffer";
    case Layer::kBuddy: return "buddy";
    case Layer::kLobTree: return "lobtree";
    case Layer::kCore: return "core";
    case Layer::kObs: return "obs";
    case Layer::kEsm: return "esm";
    case Layer::kEos: return "eos";
    case Layer::kStarburst: return "starburst";
    case Layer::kCount: break;
  }
  return "?";
}

const char* SiteName(Site site) {
  return kSiteNames[static_cast<size_t>(site)];
}

Layer SiteLayer(Site site) { return kSiteLayers[static_cast<size_t>(site)]; }

#if PERFBENCH_TRACED

ScopedSpan::ScopedSpan(Site site) {
  Recorder& r = recorder();
  open_ = r.recording;
  if (!open_) return;
  const uint64_t now = NowNs();
  uint32_t record = kNoSpan;
  if (r.op < kKeptOps) {
    record = static_cast<uint32_t>(r.spans.size());
    const uint32_t parent = r.stack.empty() ? kNoSpan : r.stack.back().record;
    r.spans.push_back({now, 0, parent, r.op, site});
  }
  r.stack.push_back({now, 0, record, site});
}

ScopedSpan::~ScopedSpan() {
  if (!open_) return;
  Recorder& r = recorder();
  const uint64_t now = NowNs();
  const OpenSpan s = r.stack.back();
  r.stack.pop_back();
  const uint64_t dur = now - s.start_ns;
  const size_t site = static_cast<size_t>(s.site);
  r.totals.calls[site] += 1;
  r.totals.self_ns[site] += dur - s.child_ns;
  if (s.record != kNoSpan) r.spans[s.record].end_ns = now;
  if (!r.stack.empty()) r.stack.back().child_ns += dur;
}

#endif

namespace trace {

void BeginWindow() {
  Recorder& r = recorder();
  r.spans.clear();
  r.recording = kEnabled;
}

void EndWindow() { recorder().recording = false; }

void SetOp(uint32_t op) { recorder().op = op; }

const SiteTotals& Totals() { return recorder().totals; }

bool WriteSpans(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "span\tparent\top\tsite\tstart_ns\tend_ns\n");
  const std::vector<SpanRecord>& spans = recorder().spans;
  const uint64_t base = spans.empty() ? 0 : spans.front().start_ns;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    const long long parent =
        s.parent == kNoSpan ? -1 : static_cast<long long>(s.parent);
    std::fprintf(f, "%zu\t%lld\t%u\t%s\t%llu\t%llu\n", i, parent, s.op,
                 SiteName(s.site),
                 static_cast<unsigned long long>(s.start_ns - base),
                 static_cast<unsigned long long>(s.end_ns - base));
  }
  return std::fclose(f) == 0;
}

#if !PERFBENCH_TRACED
std::string MissingEntryPoints() { return ""; }
#endif

}  // namespace trace
}  // namespace perfbench
