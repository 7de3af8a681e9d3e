// TraceSession: structured span recording on the modeled clock.
//
// The paper's figures are endpoint numbers; the mechanisms behind them —
// tree descents, buddy splits, EOS shuffle/merge cascades, Starburst
// copy-to-end rewrites — are trajectories of modeled milliseconds. A
// TraceSession records them as a stream of strictly nested spans:
//
//   kOp    — a logical operation ("eos.insert"), opened by OpScope with
//            the same (possibly composed "parent.child") label the
//            attribution ledger charges;
//   kPhase — a sub-phase inside an op ("tree.descend", "buddy.alloc",
//            "seg.shuffle", "pool.miss", ...), opened by LOB_TRACE_SPAN;
//   kIo    — one metered SimDisk call ("disk.io"), a leaf with its
//            read/write direction and page count as payload.
//
// Timestamps are the SimDisk modeled clock (stats().ms), not wall time:
// a trace is a deterministic function of the workload, byte-identical
// across runs and across --jobs worker counts. Conservation extends one
// level below the ObsRegistry ledger: per op, the sum of child disk.io
// span ms equals the ms the ledger attributed to that op's label
// (IoMsByOp(), asserted in tests for all three engines).
//
// The session holds no lock: one session per bench job, owned like
// JobOutput and recorded into only by that job's thread; the harness
// exports the sessions in submission order after the fan-out joins.
//
// Exporters: Chrome trace-event / Perfetto JSON (ChromeTraceJson; open in
// https://ui.perfetto.dev or chrome://tracing) and an aggregated span-tree
// summary (Summarize/PrintSummary, used by `lobtool trace`).

#ifndef LOB_TRACE_TRACE_SESSION_H_
#define LOB_TRACE_TRACE_SESSION_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "trace/tracing.h"

namespace lob {

/// What a span represents; exported as the Chrome trace-event category.
enum class SpanKind : uint8_t { kOp, kPhase, kIo };

/// Records one job's span stream; see the file comment.
class TraceSession {
 public:
  /// One recorded span. Spans are strictly nested (RAII discipline);
  /// `parent` indexes into events() (-1 for roots) and events are ordered
  /// by start (then nesting), so a single forward pass rebuilds the tree.
  struct Event {
    uint32_t name_id = 0;  ///< index into names()
    int32_t parent = -1;   ///< enclosing span's event index, -1 = root
    uint16_t depth = 0;    ///< nesting depth (roots are 0)
    SpanKind kind = SpanKind::kPhase;
    bool is_read = false;  ///< kIo only
    uint32_t pages = 0;    ///< kIo only
    double start_ms = 0;   ///< modeled clock at open
    double dur_ms = 0;     ///< modeled ms spent inside the span
  };

  TraceSession() = default;
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  /// Interns `name`, returning a stable id for Event::name_id. Takes a
  /// view so the hot path (span sites passing literals or label buffers)
  /// allocates only on first sight of a name.
  uint32_t InternName(std::string_view name);
  const std::string& Name(uint32_t id) const { return names_[id]; }

  /// Opens a span at modeled time `now_ms`; returns its event index for
  /// the matching EndSpan. Spans must close in LIFO order (checked).
  size_t BeginSpan(std::string_view name, SpanKind kind, double now_ms);
  void EndSpan(size_t index, double now_ms);

  /// Records one metered disk call as a "disk.io" leaf under the
  /// currently open span (root level when none is open). Called by
  /// SimDisk::AccountCall on every metered call.
  void RecordIo(bool is_read, uint32_t pages, double start_ms, double dur_ms);

  const std::vector<Event>& events() const { return events_; }
  bool empty() const { return events_.empty(); }
  size_t open_spans() const { return stack_.size(); }

  /// Sum of disk.io span ms grouped by the nearest enclosing kOp span's
  /// name ("(unattributed)" when the I/O happened outside any op). The
  /// conservation tests compare this map against the ObsRegistry ledger.
  std::map<std::string, double> IoMsByOp() const;

  /// Appends this session's events as Chrome trace-event objects (ph "X"
  /// complete events, ts/dur in modeled microseconds) plus a process_name
  /// metadata record. `pid` distinguishes jobs in the merged file;
  /// `*first` tracks comma placement across sessions.
  void AppendChromeTraceEvents(std::string* out, int pid,
                               const std::string& process_name,
                               bool* first) const;

  /// Merges the labeled sessions (in the given order — the harness passes
  /// submission order, making the bytes independent of --jobs) into one
  /// Chrome trace-event JSON document.
  static std::string ChromeTraceJson(
      const std::vector<std::pair<std::string, const TraceSession*>>&
          sessions);

  /// Aggregated span tree: spans with the same name under the same parent
  /// path are merged, accumulating counts, modeled ms and I/O payloads.
  struct SummaryNode {
    uint64_t count = 0;
    double total_ms = 0;
    uint64_t io_calls = 0;  ///< kIo spans merged into this node
    uint64_t io_pages = 0;
    std::map<std::string, SummaryNode> children;
  };
  SummaryNode Summarize() const;

  /// Prints a summary tree as an indented per-phase modeled-ms rollup.
  static void PrintSummary(const SummaryNode& root, std::FILE* f);

 private:
  std::vector<std::string> names_;
  std::map<std::string, uint32_t, std::less<>> name_ids_;
  std::vector<Event> events_;
  /// Indices of currently open spans.
  std::vector<size_t> stack_;
  /// Interned "disk.io", lazily.
  uint32_t io_name_id_ = UINT32_MAX;
};

}  // namespace lob

#endif  // LOB_TRACE_TRACE_SESSION_H_
