// Clang thread-safety-analysis attribute macros (LOB_GUARDED_BY,
// LOB_REQUIRES, ...). Under Clang with -Wthread-safety these expand to the
// capability attributes so locking contracts are machine-checked at compile
// time; under other compilers they expand to nothing. The annotated
// primitives that carry the capabilities (Mutex, MutexLock, CondVar, lock
// ranks) live in common/lock_order.h — annotate with these macros, lock
// with those types. See CONTRIBUTING.md "Thread-safety & lock ranks".

#ifndef LOB_COMMON_THREAD_ANNOTATIONS_H_
#define LOB_COMMON_THREAD_ANNOTATIONS_H_

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(guarded_by)
#define LOB_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef LOB_THREAD_ANNOTATION
#define LOB_THREAD_ANNOTATION(x)  // no-op outside clang
#endif

/// Marks a type as a lockable capability ("mutex" in diagnostics).
#define LOB_CAPABILITY(x) LOB_THREAD_ANNOTATION(capability(x))

/// Marks an RAII type whose constructor acquires and destructor releases.
#define LOB_SCOPED_CAPABILITY LOB_THREAD_ANNOTATION(scoped_lockable)

/// Data member may only be read/written while `x` is held.
#define LOB_GUARDED_BY(x) LOB_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member: the *pointee* may only be accessed while `x` is held.
#define LOB_PT_GUARDED_BY(x) LOB_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function requires the listed capabilities to be held on entry (and
/// leaves them held).
#define LOB_REQUIRES(...) \
  LOB_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function acquires the listed capabilities (caller must not hold them).
#define LOB_ACQUIRE(...) LOB_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases the listed capabilities (caller must hold them).
#define LOB_RELEASE(...) LOB_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function acquires the capability iff it returns `b`.
#define LOB_TRY_ACQUIRE(b, ...) \
  LOB_THREAD_ANNOTATION(try_acquire_capability(b, __VA_ARGS__))

/// Caller must NOT hold the listed capabilities (deadlock prevention for
/// self-locking methods).
#define LOB_EXCLUDES(...) LOB_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Runtime assertion to the analysis that the capability is held here.
#define LOB_ASSERT_CAPABILITY(x) \
  LOB_THREAD_ANNOTATION(assert_capability(x))

/// Expression form: read a guarded member without holding the guard.
#define LOB_TS_UNCHECKED(x) x

/// Escape hatch: disables analysis for one function. Every use must carry
/// a comment stating the out-of-band reason the access is safe (quiesced
/// source object, thread-confined caller, export after join, ...).
#define LOB_NO_THREAD_SAFETY_ANALYSIS \
  LOB_THREAD_ANNOTATION(no_thread_safety_analysis)

/// Alias for accessors that intentionally hand out references to guarded
/// state (counters, histogram maps) for single-threaded setup/export
/// phases. Same semantics as LOB_NO_THREAD_SAFETY_ANALYSIS; the distinct
/// name documents *why* the analysis is off.
#define LOB_UNLOCKED_ACCESS LOB_THREAD_ANNOTATION(no_thread_safety_analysis)

/// Return-value annotation: function returns a reference to a member
/// guarded by `x` (caller must hold `x` to dereference).
#define LOB_RETURN_CAPABILITY(x) LOB_THREAD_ANNOTATION(lock_returned(x))

#endif  // LOB_COMMON_THREAD_ANNOTATIONS_H_
