// ParallelRunner: deterministic fan-out of independent experiment cells.
//
// The bench grids (engine config x mean-op-size x append-size) are
// embarrassingly parallel: every cell owns a private StorageSystem (its
// own SimDisk, BufferPool, ObsRegistry) and a private Rng, so cells never
// share mutable state. What *is* shared is stdout. The runner therefore
// hands every job a JobOutput buffer instead of the terminal: anything the
// job wants printed (the --obs attribution ledger, per-cell banners) goes
// into the buffer, and the caller emits the buffers in index order after
// the fan-out completes. Result values, captured text and per-job
// wall/modeled timings all come back indexed by job, so the bytes written
// to stdout are identical for any worker count — including the
// single-worker case, which runs every cell on the calling thread in
// exactly the order the old serial loops did.
//
// How cells reach threads: the calling thread and at most
// min(workers, n) - 1 helper threads each claim the next unclaimed index
// from one atomic counter, so cells start in index order and no thread
// sits idle waiting for a cell that does not exist.
//
// Job isolation contract (see docs/ARCHITECTURE.md): a job must build its
// own StorageSystem and Rng, must not touch globals, and must route all
// text through its JobOutput. An exception thrown by a job is caught into
// its slot; once every thread has been joined, the lowest-index one is
// rethrown on the caller's thread.

#ifndef LOB_EXEC_PARALLEL_RUNNER_H_
#define LOB_EXEC_PARALLEL_RUNNER_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdarg>
#include <exception>
#include <functional>
#include <optional>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

namespace lob {

/// Per-job text sink plus the job's self-reported modeled cost. Jobs print
/// through this instead of stdout so parallel runs stay byte-deterministic.
///
/// Thread-confinement contract (why this class needs no lock): each
/// JobOutput is constructed by the thread that claimed the job, touched
/// only by that thread while the job runs, and read by the calling thread
/// strictly after Map has joined every helper — the join orders the
/// accesses. It must never be shared across jobs; state that workers
/// must share is a std::atomic (see campaign.cc's progress count), never
/// a lock.
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

/// Results of one fan-out, all indexed by job.
template <typename T>
struct Mapped {
  std::vector<T> values;
  std::vector<std::string> texts;  ///< captured per-job output
  std::vector<JobStats> stats;
};

/// Runs indexed jobs on up to `workers` threads (the caller included) and
/// collects results in deterministic index order.
class ParallelRunner {
 public:
  /// hardware_concurrency, clamped to at least 1.
  static unsigned DefaultWorkers() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
  }

  /// 0 and 1 both mean serial: every job runs on the calling thread.
  explicit ParallelRunner(unsigned workers) : workers_(workers) {}

  /// Runs fn(i, &out) for every i in [0, n) and returns values/texts/
  /// timings in index order. Joins every thread it started before it
  /// returns or rethrows the lowest-index job exception.
  template <typename T>
  Mapped<T> Map(size_t n, const std::function<T(size_t, JobOutput*)>& fn) {
    struct Slot {
      std::optional<T> value;
      std::string text;
      JobStats stats;
      std::exception_ptr error;
    };
    std::vector<Slot> slots(n);
    std::atomic<size_t> next{0};
    // Never throws: a job's exception is caught into its slot, so one
    // failing cell neither kills a helper thread nor stops the others.
    auto claim_jobs = [&slots, &next, &fn, n] {
      for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        Slot& slot = slots[i];
        JobOutput out;
        const auto t0 = std::chrono::steady_clock::now();
        try {
          slot.value.emplace(fn(i, &out));
        } catch (...) {
          slot.error = std::current_exception();
        }
        const auto t1 = std::chrono::steady_clock::now();
        slot.text = std::move(*out.mutable_text());
        slot.stats = JobStats{
            std::chrono::duration<double, std::milli>(t1 - t0).count(),
            out.modeled_ms()};
      }
    };
    // The caller is one of the workers, so 0 and 1 start no helper.
    const size_t helpers =
        n == 0 || workers_ <= 1 ? 0 : std::min<size_t>(workers_, n) - 1;
    std::vector<std::thread> threads;
    threads.reserve(helpers);
    try {
      while (threads.size() < helpers) threads.emplace_back(claim_jobs);
    } catch (const std::system_error&) {
      // A helper that could not start leaves its share to the threads
      // that did: every index is still claimed exactly once.
    }
    claim_jobs();
    for (std::thread& t : threads) t.join();

    Mapped<T> mapped;
    mapped.values.reserve(n);
    mapped.texts.reserve(n);
    mapped.stats.reserve(n);
    for (Slot& slot : slots) {
      if (slot.error) std::rethrow_exception(slot.error);
      mapped.values.push_back(std::move(*slot.value));
      mapped.texts.push_back(std::move(slot.text));
      mapped.stats.push_back(slot.stats);
    }
    return mapped;
  }

 private:
  const unsigned workers_;
};

}  // namespace lob

#endif  // LOB_EXEC_PARALLEL_RUNNER_H_
