#include "common/logging.h"

#include <cstdarg>

namespace lob::internal {

void LogWarn(const char* file, int line, const char* fmt, ...) {
  char msg[1024];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(msg, sizeof(msg), fmt, args);
  va_end(args);
  // One fprintf per line: stdio locks the stream for the whole call, so
  // concurrent warnings never tear mid-line.
  std::fprintf(stderr, "[lob:warn] %s:%d: %s\n", file, line, msg);
}

}  // namespace lob::internal
