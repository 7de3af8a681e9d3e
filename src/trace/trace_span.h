// TraceSpan: RAII phase span on the modeled clock.
//
// A span site names the sub-phase it brackets and the SimDisk whose I/O
// counters the span is a view of:
//
//   Status PositionalTree::FindLeaf(...) {
//     LOB_TRACE_SPAN(disk, "tree.descend");
//     ...
//   }
//
// When no TraceSession is attached to the disk (the common case) the span
// is two pointer checks. Spans opened inside a
// StorageSystem::UnmeteredSection are dropped (active_trace() returns
// nullptr while attribution is suspended), keeping traces consistent with
// the restored stats.

#ifndef LOB_TRACE_TRACE_SPAN_H_
#define LOB_TRACE_TRACE_SPAN_H_

#include "iomodel/sim_disk.h"
#include "trace/trace_session.h"

namespace lob {

/// Opens a kPhase span on the disk's active trace for the scope lifetime.
class TraceSpan {
 public:
  TraceSpan(SimDisk* disk, const char* name) : disk_(disk) {
    TraceSession* t = disk->active_trace();
    if (t != nullptr) {
      session_ = t;
      index_ = t->BeginSpan(name, SpanKind::kPhase, disk->stats());
    }
  }
  ~TraceSpan() {
    if (session_ != nullptr) session_->EndSpan(index_, disk_->stats());
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  SimDisk* disk_;
  TraceSession* session_ = nullptr;
  size_t index_ = 0;
};

#define LOB_TRACE_CONCAT_INNER(a, b) a##b
#define LOB_TRACE_CONCAT(a, b) LOB_TRACE_CONCAT_INNER(a, b)
#define LOB_TRACE_SPAN(disk, name) \
  ::lob::TraceSpan LOB_TRACE_CONCAT(lob_trace_span_, __LINE__)((disk), (name))

}  // namespace lob

#endif  // LOB_TRACE_TRACE_SPAN_H_
