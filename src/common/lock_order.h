// Ranked, capability-annotated synchronization primitives. Every lob::Mutex
// is constructed with a LockRank from the central table below; with
// LOB_LOCK_ORDER_CHECKS enabled (the default, including RelWithDebInfo)
// each thread keeps a held-rank stack and acquiring a mutex whose rank is
// not strictly greater than every rank already held aborts with a
// "lock-order violation" diagnostic. The rank order IS the documented
// acquisition order, so any two threads that respect it cannot deadlock on
// these mutexes (see docs/ARCHITECTURE.md "Lock-rank table").
//
// Only state that several threads really share is locked: the experiment
// engine (thread pool, campaign), the obs/trace recorders and the log
// sink. The storage layer holds no lock at all — a StorageSystem is
// confined to the one thread that owns it, and BufferPool aborts when a
// second thread reaches it (see buffer/buffer_pool.h).
//
// The types carry Clang capability annotations (common/thread_annotations.h)
// so -Wthread-safety checks guard discipline at compile time; the rank
// stack checks acquisition *order* at run time. Raw std::mutex /
// std::lock_guard outside src/common/ is a lint error (LOB008), and a
// Mutex declaration without a LockRank:: on the same line is too (LOB009).

#ifndef LOB_COMMON_LOCK_ORDER_H_
#define LOB_COMMON_LOCK_ORDER_H_

#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "common/thread_annotations.h"

// Lock-order checking is cheap (a thread-local array walk per acquisition)
// and deterministic, so it stays on in every build type by default;
// define LOB_LOCK_ORDER_CHECKS=0 to compile it out entirely.
#ifndef LOB_LOCK_ORDER_CHECKS
#define LOB_LOCK_ORDER_CHECKS 1
#endif

namespace lob {

/// The central lock-rank table. Rank numbers grow inward: a thread may
/// only acquire a mutex whose rank is strictly greater than every rank it
/// already holds (equal-rank nesting is forbidden — merging between
/// same-rank objects must quiesce the source instead). Gaps are deliberate
/// so future locks can slot between existing ones without renumbering.
///
///   X(enumerator, rank, "dotted.id", "what the lock protects / ordering")
#define LOB_LOCK_RANK_TABLE(X)                                               \
  X(kThreadPool, 10, "exec.thread_pool",                                     \
    "ThreadPool queue + stop flag; never held while a task body runs")       \
  X(kCampaign, 20, "exec.campaign",                                          \
    "campaign progress counter; taken briefly by workers between cells")     \
  X(kObsRegistry, 40, "obs.registry",                                        \
    "ObsRegistry op ledger, counters, histograms; taken by SimDisk "         \
    "attribution on every metered call")                                     \
  X(kTraceSession, 50, "trace.session",                                      \
    "TraceSession span stack + event buffer; SimDisk records io spans "      \
    "into it")                                                               \
  X(kTimeline, 60, "trace.timeline",                                         \
    "TimelineSampler sample buffer")                                         \
  X(kLogSink, 100, "common.log_sink",                                        \
    "LOB_LOG_WARN stderr sink; innermost — warnings must be emittable "      \
    "while holding any other lock")

/// Ranks for every mutex in the tree. `lobtool locks` dumps this table;
/// docs/ARCHITECTURE.md documents it as a contract.
enum class LockRank : int {
#define LOB_LOCK_RANK_ENUM(name, rank, id, desc) name = rank,
  LOB_LOCK_RANK_TABLE(LOB_LOCK_RANK_ENUM)
#undef LOB_LOCK_RANK_ENUM
};

/// One row of the rank table, for introspection (`lobtool locks`).
struct LockRankRow {
  const char* name;         // enumerator, e.g. "kObsRegistry"
  int rank;                 // numeric rank (acquisition order, ascending)
  const char* id;           // stable dotted id, e.g. "obs.registry"
  const char* description;  // what it protects and why it sits here
};

inline constexpr LockRankRow kLockRankRows[] = {
#define LOB_LOCK_RANK_ROW(name, rank, id, desc) {#name, rank, id, desc},
    LOB_LOCK_RANK_TABLE(LOB_LOCK_RANK_ROW)
#undef LOB_LOCK_RANK_ROW
};

/// Dotted id for a rank ("obs.registry"), or "?" for an unregistered value.
inline const char* LockRankName(LockRank r) {
  for (const LockRankRow& row : kLockRankRows) {
    if (row.rank == static_cast<int>(r)) return row.id;
  }
  return "?";
}

class Mutex;

namespace internal {

/// Per-thread stack of held (mutex, rank) pairs. Fixed capacity: the tree
/// holds at most a handful of locks at once; blowing the cap is a
/// programmer error, not a sizing problem.
struct HeldLockStack {
  static constexpr int kCapacity = 16;
  const void* mu[kCapacity];
  int rank[kCapacity];
  int depth = 0;
};

#if LOB_LOCK_ORDER_CHECKS
inline thread_local HeldLockStack g_held_locks;

[[noreturn]] inline void LockOrderViolation(int acquiring, int held) {
  std::fprintf(stderr,
               "lock-order violation: acquiring \"%s\" (rank %d) while "
               "holding \"%s\" (rank %d); ranks must strictly increase — "
               "see common/lock_order.h\n",
               LockRankName(static_cast<LockRank>(acquiring)), acquiring,
               LockRankName(static_cast<LockRank>(held)), held);
  std::abort();
}

/// Pre-acquisition check: every held rank must be strictly below the one
/// being acquired. Called before blocking so a would-be inversion aborts
/// even when it would not deadlock on this particular interleaving.
inline void CheckAcquireOrder(int rank) {
  HeldLockStack& s = g_held_locks;
  for (int i = 0; i < s.depth; ++i) {
    if (s.rank[i] >= rank) LockOrderViolation(rank, s.rank[i]);
  }
}

inline void PushHeld(const void* mu, int rank) {
  HeldLockStack& s = g_held_locks;
  if (s.depth >= HeldLockStack::kCapacity) {
    std::fprintf(stderr, "lock-order: held-lock stack overflow (%d locks)\n",
                 s.depth);
    std::abort();
  }
  s.mu[s.depth] = mu;
  s.rank[s.depth] = rank;
  ++s.depth;
}

/// Removes the topmost entry for `mu`. Unlocks are usually LIFO (RAII),
/// but hand-over-hand release is legal, so this scans from the top.
inline void PopHeld(const void* mu) {
  HeldLockStack& s = g_held_locks;
  for (int i = s.depth - 1; i >= 0; --i) {
    if (s.mu[i] != mu) continue;
    for (int j = i; j + 1 < s.depth; ++j) {
      s.mu[j] = s.mu[j + 1];
      s.rank[j] = s.rank[j + 1];
    }
    --s.depth;
    return;
  }
  std::fprintf(stderr, "lock-order: unlock of a mutex this thread does not "
                       "hold\n");
  std::abort();
}

inline bool IsHeld(const void* mu) {
  const HeldLockStack& s = g_held_locks;
  for (int i = 0; i < s.depth; ++i) {
    if (s.mu[i] == mu) return true;
  }
  return false;
}
#else   // !LOB_LOCK_ORDER_CHECKS
inline void CheckAcquireOrder(int) {}
inline void PushHeld(const void*, int) {}
inline void PopHeld(const void*) {}
inline bool IsHeld(const void*) { return true; }
#endif  // LOB_LOCK_ORDER_CHECKS

}  // namespace internal

/// Capability-annotated exclusive mutex with a mandatory rank. Prefer the
/// RAII MutexLock over manual Lock/Unlock.
class LOB_CAPABILITY("mutex") Mutex {
 public:
  constexpr explicit Mutex(LockRank rank)
      : rank_(static_cast<int>(rank)) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() LOB_ACQUIRE() {
    internal::CheckAcquireOrder(rank_);
    mu_.lock();
    internal::PushHeld(this, rank_);
  }

  void Unlock() LOB_RELEASE() {
    internal::PopHeld(this);
    mu_.unlock();
  }

  /// Non-blocking acquire. Rank order is enforced even though a try-lock
  /// cannot deadlock: an out-of-order TryLock is a latent design bug.
  bool TryLock() LOB_TRY_ACQUIRE(true) {
    internal::CheckAcquireOrder(rank_);
    if (!mu_.try_lock()) return false;
    internal::PushHeld(this, rank_);
    return true;
  }

  /// Runtime + static assertion that the calling thread holds this mutex.
  void AssertHeld() const LOB_ASSERT_CAPABILITY(this) {
#if LOB_LOCK_ORDER_CHECKS
    if (!internal::IsHeld(this)) {
      std::fprintf(stderr, "Mutex::AssertHeld: \"%s\" (rank %d) is not held "
                           "by this thread\n",
                   LockRankName(static_cast<LockRank>(rank_)), rank_);
      std::abort();
    }
#endif
  }

  LockRank rank() const { return static_cast<LockRank>(rank_); }

 private:
  friend class CondVar;
  std::mutex mu_;
  const int rank_;
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

/// Condition variable for use with Mutex. No predicate overload on
/// purpose: Clang's analysis cannot see through a predicate lambda, so
/// callers write the canonical `while (!cond) cv.Wait(&mu);` loop, which
/// the analysis understands.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu` and waits; re-acquires `mu` before
  /// returning. Spurious wakeups happen — always wait in a loop. The
  /// held-rank stack is left untouched: the mutex is re-held on return,
  /// and a blocked thread acquires nothing in between.
  void Wait(Mutex* mu) LOB_REQUIRES(mu) {
    std::unique_lock<std::mutex> l(mu->mu_, std::adopt_lock);
    cv_.wait(l);
    l.release();  // ownership stays with the caller's Mutex
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace lob

#endif  // LOB_COMMON_LOCK_ORDER_H_
