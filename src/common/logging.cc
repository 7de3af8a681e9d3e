#include "common/logging.h"

#include <cstdarg>

#include "common/lock_order.h"

namespace lob::internal {

namespace {

/// The warn-log sink mutex, a leaf lock like every lob::Mutex: the
/// storage layer and the recorders hold no lock, so they may warn from
/// anywhere. Constant-initialized (constexpr ctor), so warnings from
/// static initializers are safe too.
Mutex& LogSinkMutex() {
  static Mutex mu;
  return mu;
}

}  // namespace

void LogWarn(const char* file, int line, const char* fmt, ...) {
  char msg[1024];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(msg, sizeof(msg), fmt, args);
  va_end(args);
  MutexLock lock(&LogSinkMutex());
  std::fprintf(stderr, "[lob:warn] %s:%d: %s\n", file, line, msg);
}

}  // namespace lob::internal
