// The two JSON writer helpers every exporter shares: JsonEscape for
// string literals and AppendF for formatted text. The repo writes JSON
// and never reads it back in C++; tests and scripts load the exports
// with Python's `json`.
//
// This file is in lob_lint's LOB002 exporter scope; unordered containers
// are banned here.

#ifndef LOB_COMMON_JSON_H_
#define LOB_COMMON_JSON_H_

#include <string>
#include <string_view>

namespace lob {

/// Escapes `s` for use inside a JSON string literal: `"` and `\`, and
/// every byte below 0x20 (as \b \f \n \r \t or \u00XX). Strings without
/// those bytes come back unchanged.
std::string JsonEscape(std::string_view s);

/// Appends printf-style formatted text to `*out`, growing it to fit:
/// output is never truncated.
void AppendF(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

}  // namespace lob

#endif  // LOB_COMMON_JSON_H_
