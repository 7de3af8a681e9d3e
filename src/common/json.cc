#include "common/json.h"

#include <cstdarg>
#include <cstdio>

namespace lob {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          AppendF(&out, "\\u%04x", static_cast<unsigned>(c));
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

void AppendF(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_list again;
  va_start(ap, fmt);
  va_copy(again, ap);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  if (n > 0 && static_cast<size_t>(n) < sizeof(buf)) {
    out->append(buf, static_cast<size_t>(n));
  } else if (n > 0) {
    // Too long for the stack buffer: format again straight into the
    // grown string (vsnprintf also writes the terminating NUL).
    const size_t old = out->size();
    out->resize(old + static_cast<size_t>(n) + 1);
    std::vsnprintf(&(*out)[old], static_cast<size_t>(n) + 1, fmt, again);
    out->resize(old + static_cast<size_t>(n));
  }
  va_end(again);
}

}  // namespace lob
