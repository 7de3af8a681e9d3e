// ThreadPool: fixed-size worker pool for the parallel experiment engine.
//
// Tasks are submitted as callables and return std::futures; exceptions
// thrown inside a task are captured by the future and rethrown at get().
// Tasks are executed in FIFO submission order (a single worker therefore
// reproduces the exact execution order of a serial loop, which is what
// makes `--jobs=1` bit-identical to the pre-parallel harness).
//
// workers == 0 is the degenerate inline mode: Submit runs the task on the
// calling thread before returning. workers == 1 runs everything on one
// background thread in submission order. Shutdown (or destruction, which
// calls it) drains the queue — pending tasks still run — and joins every
// worker.
//
// Shutdown contract: a task submitted from *inside* a running task (a
// drain-submit) is guaranteed to run, even when shutdown has already
// begun — the submitting worker cannot be joined while its task body is
// executing, and workers only exit once the queue is empty. A Submit from
// any *other* thread after shutdown has begun is a programming error that
// aborts with a diagnostic rather than letting the task vanish into a
// destructed queue (tests/thread_safety_test.cc death-tests both sides of
// the contract).

#ifndef LOB_EXEC_THREAD_POOL_H_
#define LOB_EXEC_THREAD_POOL_H_

#include <deque>
#include <functional>
#include <future>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/lock_order.h"
#include "common/thread_annotations.h"

namespace lob {

/// Fixed-size FIFO thread pool with future-based submission.
class ThreadPool {
 public:
  /// hardware_concurrency, clamped to at least 1.
  static unsigned DefaultWorkers();

  explicit ThreadPool(unsigned workers = DefaultWorkers());
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned workers() const { return workers_; }

  /// True when the calling thread is one of this pool's workers (i.e. a
  /// task body is submitting follow-up work).
  bool InWorkerThread() const;

  /// Begins shutdown and joins every worker: pending tasks (including
  /// drain-submits they make) still run. Idempotent; the destructor calls
  /// it. Calling from inside a task body would self-join and aborts.
  void Shutdown() LOB_EXCLUDES(mu_);

  /// Enqueues `fn` and returns the future of its result. With zero
  /// workers the task runs inline on the calling thread. Submitting after
  /// Shutdown has begun is legal only from inside a running task (the
  /// drain-submit guarantee above); from any other thread it aborts.
  template <typename F, typename R = std::invoke_result_t<std::decay_t<F>&>>
  std::future<R> Submit(F&& fn) LOB_EXCLUDES(mu_) {
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    if (workers_ == 0) {
      (*task)();
      return future;
    }
    {
      MutexLock lock(&mu_);
      if (stop_ && !InWorkerThread()) DieSubmitAfterShutdown();
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.NotifyOne();
    return future;
  }

 private:
  void WorkerLoop() LOB_EXCLUDES(mu_);
  [[noreturn]] static void DieSubmitAfterShutdown();

  const unsigned workers_;
  // LOBLINT(guarded-by): owner-thread confined — written only by the
  // constructor and joined by Shutdown; workers never touch it.
  std::vector<std::thread> threads_;
  /// Leaf lock: never held while a task body runs, so a task may take
  /// any other lob::Mutex (the log sink, the campaign counter).
  Mutex mu_;
  std::deque<std::function<void()>> queue_ LOB_GUARDED_BY(mu_);
  CondVar cv_;
  bool stop_ LOB_GUARDED_BY(mu_) = false;
  bool joined_ = false;  // LOBLINT(guarded-by): owner-thread confined
};

}  // namespace lob

#endif  // LOB_EXEC_THREAD_POOL_H_
