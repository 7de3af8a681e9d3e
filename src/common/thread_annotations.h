// Clang thread-safety-analysis attribute macros (LOB_GUARDED_BY,
// LOB_REQUIRES, ...). Under Clang with -Wthread-safety these expand to the
// capability attributes so locking contracts are machine-checked at compile
// time; under other compilers they expand to nothing. The annotated
// primitives that carry the capabilities (Mutex, MutexLock) live in
// common/lock_order.h — annotate with these macros, lock with those
// types. See CONTRIBUTING.md "Thread-safety & leaf locks".

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

/// Function requires the listed capabilities to be held on entry (and
/// leaves them held).
#define LOB_REQUIRES(...) \
  LOB_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function acquires the listed capabilities (caller must not hold them).
#define LOB_ACQUIRE(...) LOB_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases the listed capabilities (caller must hold them).
#define LOB_RELEASE(...) LOB_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Caller must NOT hold the listed capabilities (deadlock prevention for
/// self-locking methods).
#define LOB_EXCLUDES(...) LOB_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

#endif  // LOB_COMMON_THREAD_ANNOTATIONS_H_
