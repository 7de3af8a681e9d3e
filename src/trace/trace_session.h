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
//            "seg.shuffle", "pool.miss", ...), opened by LOB_TRACE_SPAN.
//
// A span is a view of the disk's one meter, not a second record: it opens
// and closes on SimDisk::stats() snapshots and keeps their IoStats::Delta,
// so its duration, calls and pages are exactly what the disk counted
// inside it. Timestamps are the modeled clock (stats().ms), not wall time:
// a trace is a deterministic function of the workload, byte-identical
// across runs and across --jobs worker counts.
//
// The session holds no lock: one session per bench job, owned like
// JobOutput and recorded into only by that job's thread; the harness
// exports the sessions in submission order after the fan-out joins.
//
// Views of one recording: Chrome trace-event / Perfetto JSON
// (ChromeTraceJson; open in https://ui.perfetto.dev or chrome://tracing),
// the aggregated span tree (Summarize/PrintSummary) and its folded stacks
// (Folded; speedscope, inferno, flamegraph.pl). `lobtool profile` renders
// all three from one replay.

#ifndef LOB_TRACE_TRACE_SESSION_H_
#define LOB_TRACE_TRACE_SESSION_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "iomodel/io_stats.h"

namespace lob {

/// What a span represents; exported as the Chrome trace-event category.
enum class SpanKind : uint8_t { kOp, kPhase };

/// Records one job's span stream; see the file comment.
class TraceSession {
 public:
  /// One recorded span. Spans are strictly nested (RAII discipline);
  /// `parent` indexes into events() (-1 for roots) and events are ordered
  /// by start (then nesting), so a single forward pass rebuilds the tree.
  struct Event {
    uint32_t name_id = 0;  ///< index into names()
    int32_t parent = -1;   ///< enclosing span's event index, -1 = root
    SpanKind kind = SpanKind::kPhase;
    double start_ms = 0;   ///< modeled clock at open
    /// The disk's I/O inside the span; io.ms is the span's duration.
    /// Holds the open-time snapshot until EndSpan replaces it.
    IoStats io;
  };

  TraceSession() = default;
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  /// Interns `name`, returning a stable id for Event::name_id. Takes a
  /// view so the hot path (span sites passing literals or label buffers)
  /// allocates only on first sight of a name.
  uint32_t InternName(std::string_view name);
  const std::string& Name(uint32_t id) const { return names_[id]; }

  /// Opens a span on the disk counters `now`; returns its event index for
  /// the matching EndSpan. Spans must close in LIFO order (checked).
  size_t BeginSpan(std::string_view name, SpanKind kind, const IoStats& now);
  /// Closes the span with IoStats::Delta(open, now), whose debug
  /// underflow check guards that the counters never run backwards.
  void EndSpan(size_t index, const IoStats& now);

  const std::vector<Event>& events() const { return events_; }
  bool empty() const { return events_.empty(); }
  size_t open_spans() const { return stack_.size(); }

  /// Appends this session's events as Chrome trace-event objects (ph "X"
  /// complete events, ts/dur in modeled microseconds, args {reads,
  /// writes, pages} on spans that did I/O) plus a process_name metadata
  /// record. `pid` distinguishes jobs in the merged file; `*first` tracks
  /// comma placement across sessions.
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
  /// path are merged, accumulating counts and I/O.
  struct SummaryNode {
    uint64_t count = 0;
    IoStats io;  ///< summed span I/O; io.ms is the modeled ms
    std::map<std::string, SummaryNode> children;
  };
  SummaryNode Summarize() const;

  /// Prints a summary tree as an indented per-phase rollup: count,
  /// modeled ms, and calls and pages where the span did I/O.
  static void PrintSummary(const SummaryNode& root, std::FILE* f);

  /// Folded stacks of a summary tree: one "root;child;leaf <us>\n" line
  /// per node with nonzero self cost (the node's modeled ms minus its
  /// children's, in integer modeled microseconds), depth first with
  /// siblings in name order.
  static std::string Folded(const SummaryNode& root);

 private:
  std::vector<std::string> names_;
  std::map<std::string, uint32_t, std::less<>> name_ids_;
  std::vector<Event> events_;
  /// Indices of currently open spans.
  std::vector<size_t> stack_;
};

}  // namespace lob

#endif  // LOB_TRACE_TRACE_SESSION_H_
