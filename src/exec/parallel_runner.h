// ParallelRunner: deterministic fan-out of independent experiment cells.
//
// The bench grids (engine config x mean-op-size x append-size) are
// embarrassingly parallel: every cell owns a private StorageSystem (its
// own SimDisk, BufferPool, ObsRegistry) and a private Rng, so cells never
// share mutable state. What *is* shared is stdout. The runner therefore
// hands every job a JobOutput buffer instead of the terminal: anything the
// job wants printed (the --obs attribution ledger, per-cell banners) goes
// into the buffer, and the caller emits the buffers in submission order
// after the fan-out completes. Result values, captured text and per-job
// wall/modeled timings all come back indexed by submission order, so the
// bytes written to stdout are identical for any worker count — including
// the single-worker case, which executes cells in exactly the order the
// old serial loops did.
//
// Job isolation contract (see docs/ARCHITECTURE.md): a job must build its
// own StorageSystem and Rng, must not touch globals, and must route all
// text through its JobOutput. Exceptions thrown by a job are rethrown on
// the caller's thread, at the failing job's position in submission order.

#ifndef LOB_EXEC_PARALLEL_RUNNER_H_
#define LOB_EXEC_PARALLEL_RUNNER_H_

#include <chrono>
#include <cstdarg>
#include <functional>
#include <future>
#include <string>
#include <utility>
#include <vector>

#include "exec/thread_pool.h"

namespace lob {

/// Per-job text sink plus the job's self-reported modeled cost. Jobs print
/// through this instead of stdout so parallel runs stay byte-deterministic.
///
/// Thread-confinement contract (why this class carries no Mutex): each
/// JobOutput is constructed inside Map's task lambda, touched only by the
/// one worker running that job, and read by the submitting thread strictly
/// after the job's future resolves — the future's release/acquire edge
/// orders the accesses. It must never be shared across jobs; shared
/// cross-worker state belongs behind an annotated leaf Mutex (see
/// campaign.cc's progress counter for the pattern).
class JobOutput {
 public:
  /// printf into the buffer.
#if defined(__GNUC__)
  __attribute__((format(printf, 2, 3)))
#endif
  void Printf(const char* fmt, ...);

  void Append(const std::string& s) { text_ += s; }

  /// Modeled I/O milliseconds of this cell (reported next to the measured
  /// wall clock in BENCH_*.json).
  void SetModeledMs(double ms) { modeled_ms_ = ms; }

  const std::string& text() const { return text_; }
  std::string* mutable_text() { return &text_; }
  double modeled_ms() const { return modeled_ms_; }

 private:
  std::string text_;
  double modeled_ms_ = 0;
};

/// Per-job timing, measured by the runner (wall) and the job (modeled).
struct JobStats {
  double wall_ms = 0;     ///< real elapsed time of the job body
  double modeled_ms = 0;  ///< cost-model milliseconds the job reported
};

/// Results of one fan-out, all indexed by submission order.
template <typename T>
struct Mapped {
  std::vector<T> values;
  std::vector<std::string> texts;  ///< captured per-job output
  std::vector<JobStats> stats;
};

/// Fans indexed jobs out across a ThreadPool and collects results in
/// deterministic submission order.
class ParallelRunner {
 public:
  explicit ParallelRunner(ThreadPool* pool) : pool_(pool) {}

  /// Runs fn(i, &out) for every i in [0, n) on the pool and returns
  /// values/texts/timings in index order. Rethrows the first (by index)
  /// job exception after every job has been scheduled.
  template <typename T>
  Mapped<T> Map(size_t n, const std::function<T(size_t, JobOutput*)>& fn) {
    struct Slot {
      T value;
      std::string text;
      JobStats stats;
    };
    std::vector<std::future<Slot>> futures;
    futures.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      futures.push_back(pool_->Submit([i, &fn] {
        JobOutput out;
        const auto t0 = std::chrono::steady_clock::now();
        T value = fn(i, &out);
        const auto t1 = std::chrono::steady_clock::now();
        Slot slot{std::move(value), std::move(*out.mutable_text()),
                  JobStats{std::chrono::duration<double, std::milli>(t1 - t0)
                               .count(),
                           out.modeled_ms()}};
        return slot;
      }));
    }
    Mapped<T> mapped;
    mapped.values.reserve(n);
    mapped.texts.reserve(n);
    mapped.stats.reserve(n);
    for (auto& future : futures) {
      Slot slot = future.get();  // rethrows job exceptions in index order
      mapped.values.push_back(std::move(slot.value));
      mapped.texts.push_back(std::move(slot.text));
      mapped.stats.push_back(slot.stats);
    }
    return mapped;
  }

  ThreadPool* pool() { return pool_; }

 private:
  ThreadPool* pool_;
};

}  // namespace lob

#endif  // LOB_EXEC_PARALLEL_RUNNER_H_
