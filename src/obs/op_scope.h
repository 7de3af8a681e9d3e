// OpScope: RAII tag for per-operation I/O attribution and op-span tracing.
//
// A manager entry point constructs an OpScope naming the logical operation
// ("<engine>.<op>", e.g. "esm.append"). While the scope is alive, every
// metered SimDisk ReadRun/WriteRun call — including buffer pool misses,
// evictions and the deferred end-of-operation flushes issued through
// OpContext::Finish — is charged to that label in the disk's ObsRegistry.
// On destruction the scope counts the operation and adds its total modeled
// ms to the label's histogram. Inside an UnmeteredSection it records
// nothing, like the ledger and the spans.
//
// Scopes nest with explicit child labels: when an operation delegates to
// another entry point (e.g. Insert calling Append at the end of the
// object), the inner scope's effective label is "<outer>.<inner>"
// ("esm.insert.esm.append"), so the inner work is visibly attributed to
// its call path instead of silently merging into the outer label or
// masquerading as a top-level operation. Every I/O call is still charged
// to exactly one — the innermost — label, so the conservation invariant
// (sum of attributed stats == global stats) holds regardless of nesting,
// and the outer scope's histogram still covers the full operation.
//
// When a TraceSession is attached to the disk, the scope also brackets the
// operation with a kOp span carrying the same effective label the ledger
// charges. The span opens on the same start snapshot the histogram uses,
// so an op span's I/O minus its nested op spans' I/O is exactly the
// ledger's exclusive cost for that label.

#ifndef LOB_OBS_OP_SCOPE_H_
#define LOB_OBS_OP_SCOPE_H_

#include <cstring>
#include <memory>
#include <string>

#include "iomodel/sim_disk.h"
#include "obs/obs_registry.h"
#include "trace/trace_session.h"

namespace lob {

/// Tags `disk`'s current operation for the lifetime of the scope.
class OpScope {
 public:
  /// `label` must outlive the scope; use string literals.
  OpScope(SimDisk* disk, const char* label)
      : disk_(disk), prev_(disk->current_op()), start_(disk->stats()) {
    if (prev_ != nullptr) {
      // Nested scope: compose the call path into the effective label.
      // Composition happens once per op on the hot path, so the common
      // case lands in the inline buffer; only pathologically deep
      // nesting pays for heap backing.
      const size_t prev_len = std::char_traits<char>::length(prev_);
      const size_t label_len = std::char_traits<char>::length(label);
      const size_t total = prev_len + 1 + label_len;
      char* buf = inline_buf_;
      if (total + 1 > sizeof(inline_buf_)) {
        heap_buf_ = std::make_unique<char[]>(total + 1);
        buf = heap_buf_.get();
      }
      std::memcpy(buf, prev_, prev_len);
      buf[prev_len] = '.';
      std::memcpy(buf + prev_len + 1, label, label_len);
      buf[total] = '\0';
      label_ = buf;
    } else {
      label_ = label;
    }
    disk_->set_current_op(label_);
    if (TraceSession* t = disk_->active_trace()) {
      session_ = t;
      span_ = t->BeginSpan(label_, SpanKind::kOp, start_);
    }
  }

  ~OpScope() {
    disk_->set_current_op(prev_);
    if (session_ != nullptr) session_->EndSpan(span_, disk_->stats());
    if (ObsRegistry* obs = disk_->active_obs()) {
      obs->RecordOpEnd(label_, IoStats::Delta(start_, disk_->stats()));
    }
  }

  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

  /// Effective (possibly composed) label this scope attributes to.
  const char* label() const { return label_; }

 private:
  SimDisk* disk_;
  const char* label_;
  const char* prev_;
  /// Backing store for nested "parent.child" labels: inline for typical
  /// depths, heap only when the composed path outgrows the buffer.
  char inline_buf_[128];
  std::unique_ptr<char[]> heap_buf_;
  IoStats start_;
  TraceSession* session_ = nullptr;
  size_t span_ = 0;
};

}  // namespace lob

#endif  // LOB_OBS_OP_SCOPE_H_
