#include "common/json.h"

#include <cctype>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

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

namespace {

/// Cursor over the input text with 1-based line tracking for errors.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  StatusOr<JsonValue> ParseDocument() {
    JsonValue v;
    LOB_RETURN_IF_ERROR(ParseValue(&v));
    SkipWhitespace();
    if (pos_ != text_.size()) return Error("trailing characters");
    return v;
  }

 private:
  Status Error(const std::string& what) const {
    return Status::InvalidArgument("json: " + what + " at line " +
                                   std::to_string(line_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '\n') ++line_;
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ParseValue(JsonValue* out) {
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return ParseObject(out);
    if (c == '[') return ParseArray(out);
    if (c == '"') return ParseString(out);
    if (c == 't' || c == 'f') return ParseBool(out);
    if (c == 'n') return ParseNull(out);
    if (c == '-' || (c >= '0' && c <= '9')) return ParseNumber(out);
    return Error(std::string("unexpected character '") + c + "'");
  }

  Status ParseLiteral(const char* word) {
    const size_t n = std::strlen(word);
    if (text_.compare(pos_, n, word) != 0) {
      return Error(std::string("expected '") + word + "'");
    }
    pos_ += n;
    return Status::OK();
  }

  Status ParseNull(JsonValue* out) {
    LOB_RETURN_IF_ERROR(ParseLiteral("null"));
    *out = JsonValue();
    return Status::OK();
  }

  Status ParseBool(JsonValue* out) {
    if (text_[pos_] == 't') {
      LOB_RETURN_IF_ERROR(ParseLiteral("true"));
      *out = JsonValue(true);
    } else {
      LOB_RETURN_IF_ERROR(ParseLiteral("false"));
      *out = JsonValue(false);
    }
    return Status::OK();
  }

  Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    Consume('-');
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    const std::string tok = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double d = std::strtod(tok.c_str(), &end);
    if (end == nullptr || *end != '\0' || tok.empty()) {
      return Error("malformed number '" + tok + "'");
    }
    *out = JsonValue(d);
    return Status::OK();
  }

  Status ParseString(JsonValue* out) {
    std::string s;
    LOB_RETURN_IF_ERROR(ParseRawString(&s));
    *out = JsonValue(std::move(s));
    return Status::OK();
  }

  Status ParseRawString(std::string* out) {
    if (!Consume('"')) return Error("expected '\"'");
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return Status::OK();
      if (c == '\n') return Error("newline inside string");
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'u': {
            // The exporters never emit \u escapes; decode the BMP code
            // point as UTF-8 anyway so foreign files round-trip.
            if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
            unsigned int cp = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              cp <<= 4;
              if (h >= '0' && h <= '9') {
                cp |= static_cast<unsigned int>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                cp |= static_cast<unsigned int>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                cp |= static_cast<unsigned int>(h - 'A' + 10);
              } else {
                return Error("bad hex digit in \\u escape");
              }
            }
            if (cp < 0x80) {
              out->push_back(static_cast<char>(cp));
            } else if (cp < 0x800) {
              out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
              out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
            } else {
              out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
              out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
              out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
            }
            break;
          }
          default:
            return Error(std::string("bad escape '\\") + esc + "'");
        }
      } else {
        out->push_back(c);
      }
    }
    return Error("unterminated string");
  }

  Status ParseArray(JsonValue* out) {
    if (!Consume('[')) return Error("expected '['");
    auto* arr = out->mutable_array();
    SkipWhitespace();
    if (Consume(']')) return Status::OK();
    while (true) {
      JsonValue v;
      LOB_RETURN_IF_ERROR(ParseValue(&v));
      arr->push_back(std::move(v));
      SkipWhitespace();
      if (Consume(']')) return Status::OK();
      if (!Consume(',')) return Error("expected ',' or ']'");
    }
  }

  Status ParseObject(JsonValue* out) {
    if (!Consume('{')) return Error("expected '{'");
    auto* obj = out->mutable_object();
    SkipWhitespace();
    if (Consume('}')) return Status::OK();
    while (true) {
      SkipWhitespace();
      std::string key;
      LOB_RETURN_IF_ERROR(ParseRawString(&key));
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':'");
      JsonValue v;
      LOB_RETURN_IF_ERROR(ParseValue(&v));
      (*obj)[key] = std::move(v);
      SkipWhitespace();
      if (Consume('}')) return Status::OK();
      if (!Consume(',')) return Error("expected ',' or '}'");
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
  int line_ = 1;
};

}  // namespace

StatusOr<JsonValue> JsonValue::Parse(const std::string& text) {
  Parser p(text);
  return p.ParseDocument();
}

StatusOr<JsonValue> JsonValue::ParseFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("cannot open " + path);
  std::string text;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  auto parsed = Parse(text);
  if (!parsed.ok()) {
    return Status::InvalidArgument(path + ": " + parsed.status().message());
  }
  return parsed;
}

}  // namespace lob
