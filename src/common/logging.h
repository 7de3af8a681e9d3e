// Internal assertion macros and diagnostics. LOB_CHECK* abort with a
// diagnostic on invariant violation; they guard programmer errors, not user
// input (user input is validated with Status returns). LOB_LOG_WARN emits a
// non-fatal diagnostic to stderr for conditions that are survivable but
// must not pass silently (e.g. a destructor swallowing a flush error).

#ifndef LOB_COMMON_LOGGING_H_
#define LOB_COMMON_LOGGING_H_

#include <cstdio>
#include <cstdlib>

namespace lob::internal {

[[noreturn]] inline void CheckFailed(const char* file, int line,
                                     const char* expr) {
  std::fprintf(stderr, "LOB_CHECK failed at %s:%d: %s\n", file, line, expr);
  std::abort();
}

/// Writes one warning line to stderr. Bench cells run on several threads,
/// so warnings may race: the line is formatted into a private buffer and
/// written with a single fprintf, which POSIX stdio performs under the
/// stream's own lock, so concurrent lines never tear.
#if defined(__GNUC__)
__attribute__((format(printf, 3, 4)))
#endif
void LogWarn(const char* file, int line, const char* fmt, ...);

}  // namespace lob::internal

#define LOB_CHECK(expr)                                       \
  do {                                                        \
    if (!(expr)) {                                            \
      ::lob::internal::CheckFailed(__FILE__, __LINE__, #expr); \
    }                                                         \
  } while (0)

#define LOB_CHECK_EQ(a, b) LOB_CHECK((a) == (b))
#define LOB_CHECK_NE(a, b) LOB_CHECK((a) != (b))
#define LOB_CHECK_LT(a, b) LOB_CHECK((a) < (b))
#define LOB_CHECK_LE(a, b) LOB_CHECK((a) <= (b))
#define LOB_CHECK_GT(a, b) LOB_CHECK((a) > (b))
#define LOB_CHECK_GE(a, b) LOB_CHECK((a) >= (b))

/// Non-fatal warning with source location; printf-style. Each warning is
/// one fprintf, so warnings from parallel bench workers never interleave
/// mid-line.
#define LOB_LOG_WARN(...) \
  ::lob::internal::LogWarn(__FILE__, __LINE__, __VA_ARGS__)

#define LOB_CHECK_OK(expr)                                               \
  do {                                                                   \
    ::lob::Status lob_check_ok_s = (expr);                               \
    if (!lob_check_ok_s.ok()) {                                          \
      std::fprintf(stderr, "LOB_CHECK_OK failed at %s:%d: %s\n",         \
                   __FILE__, __LINE__, lob_check_ok_s.ToString().c_str()); \
      std::abort();                                                      \
    }                                                                    \
  } while (0)

#endif  // LOB_COMMON_LOGGING_H_
