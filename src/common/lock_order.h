// Leaf-only, capability-annotated synchronization primitives. Every
// lob::Mutex is a leaf lock: a thread holds at most one at a time, and
// locking a second one while holding the first aborts with a "lock
// nesting" diagnostic. A thread that waits for a lob::Mutex therefore
// holds none, so no two threads can wait on each other through these
// mutexes: deadlock freedom holds by construction, with no order table.
//
// Only state that several threads really share is locked: the campaign
// progress counter and the warn-log sink. The parallel runner shares
// nothing but one atomic job counter (exec/parallel_runner.h). The
// storage layer and the obs/trace/timeline recorders hold no lock at all —
// a StorageSystem (with its ObsRegistry) belongs to the one thread that
// owns it, and BufferPool aborts when a second thread reaches it (see
// buffer/buffer_pool.h); a bench job's TraceSession and TimelineSampler
// belong to that job, like its JobOutput.
//
// The types carry Clang capability annotations (common/thread_annotations.h)
// so -Wthread-safety checks guard discipline at compile time; the held
// pointer below checks the leaf rule at run time. Raw std::mutex /
// std::lock_guard outside src/common/ is a lint error (LOB008), and so is
// an unannotated mutable member next to a Mutex (LOB009).

#ifndef LOB_COMMON_LOCK_ORDER_H_
#define LOB_COMMON_LOCK_ORDER_H_

#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "common/thread_annotations.h"

namespace lob {

class Mutex;

namespace internal {

/// The lob::Mutex the calling thread holds, or nullptr. One pointer is
/// enough because every lob::Mutex is a leaf lock.
inline thread_local const Mutex* g_held_mutex = nullptr;

}  // namespace internal

/// Capability-annotated exclusive leaf mutex. Prefer the RAII MutexLock
/// over manual Lock/Unlock.
class LOB_CAPABILITY("mutex") Mutex {
 public:
  constexpr Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  /// Checked before blocking, so a nested acquisition aborts even on an
  /// interleaving that would not deadlock this time.
  void Lock() LOB_ACQUIRE() {
    if (internal::g_held_mutex != nullptr) {
      std::fprintf(stderr,
                   "lock nesting: this thread already holds a lob::Mutex; "
                   "every lob::Mutex is a leaf lock (common/lock_order.h)\n");
      std::abort();
    }
    mu_.lock();
    internal::g_held_mutex = this;
  }

  void Unlock() LOB_RELEASE() {
    if (internal::g_held_mutex != this) {
      std::fprintf(stderr, "lock-order: unlock of a mutex this thread does "
                           "not hold\n");
      std::abort();
    }
    internal::g_held_mutex = nullptr;
    mu_.unlock();
  }

 private:
  std::mutex mu_;
};

/// RAII lock for Mutex (the annotated std::lock_guard analogue).
class LOB_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) LOB_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() LOB_RELEASE() { mu_->Unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

}  // namespace lob

#endif  // LOB_COMMON_LOCK_ORDER_H_
