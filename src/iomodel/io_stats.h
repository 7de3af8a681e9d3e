// I/O accounting: the study's performance metric.
//
// The paper measures modeled I/O time, not wall-clock: every disk access
// (an I/O call touching one or more physically adjacent pages) costs one
// seek (33 ms) plus transfer time (4 ms per 4K page). IoStats accumulates
// calls, pages, and modeled milliseconds; experiments subtract snapshots to
// get per-operation or per-window costs.

#ifndef LOB_IOMODEL_IO_STATS_H_
#define LOB_IOMODEL_IO_STATS_H_

#include <cstdint>
#include <string>

#include "common/logging.h"

namespace lob {

/// Accumulated I/O counters. Value type; supports snapshot arithmetic.
struct IoStats {
  uint64_t read_calls = 0;    ///< disk accesses that fetched pages
  uint64_t write_calls = 0;   ///< disk accesses that stored pages
  uint64_t pages_read = 0;    ///< total pages transferred by reads
  uint64_t pages_written = 0; ///< total pages transferred by writes
  double ms = 0.0;            ///< modeled service time (seek + transfer), ms

  /// Total disk accesses; the paper counts one seek per access.
  uint64_t Seeks() const { return read_calls + write_calls; }
  uint64_t PagesTransferred() const { return pages_read + pages_written; }

  IoStats& operator+=(const IoStats& o) {
    read_calls += o.read_calls;
    write_calls += o.write_calls;
    pages_read += o.pages_read;
    pages_written += o.pages_written;
    ms += o.ms;
    return *this;
  }

  /// Snapshot subtraction. The counters are unsigned and snapshots are
  /// monotone between resets, so subtracting in the wrong order silently
  /// underflows; debug builds abort instead. Prefer Delta(before, after),
  /// which names the order.
  friend IoStats operator-(IoStats a, const IoStats& b) {
#ifndef NDEBUG
    LOB_CHECK_GE(a.read_calls, b.read_calls);
    LOB_CHECK_GE(a.write_calls, b.write_calls);
    LOB_CHECK_GE(a.pages_read, b.pages_read);
    LOB_CHECK_GE(a.pages_written, b.pages_written);
#endif
    a.read_calls -= b.read_calls;
    a.write_calls -= b.write_calls;
    a.pages_read -= b.pages_read;
    a.pages_written -= b.pages_written;
    a.ms -= b.ms;
    return a;
  }

  /// I/O accumulated between two snapshots: `after - before`, with the
  /// argument order made explicit (the counters underflow when swapped).
  static IoStats Delta(const IoStats& before, const IoStats& after) {
    return after - before;
  }

  friend IoStats operator+(IoStats a, const IoStats& b) {
    a += b;
    return a;
  }

  std::string ToString() const;
};

}  // namespace lob

#endif  // LOB_IOMODEL_IO_STATS_H_
