// Tests for the two JSON writer helpers every exporter shares: the
// escaper must produce a valid string literal for any bytes, and AppendF
// must never truncate.

#include <gtest/gtest.h>

#include <string>

#include "common/json.h"

namespace lob {
namespace {

TEST(JsonWriterTest, EscapeRoundTripsEveryControlByteQuoteAndBackslash) {
  std::string raw = "a\"b\\c";
  for (int c = 0; c < 0x20; ++c) raw.push_back(static_cast<char>(c));
  raw += "end";
  EXPECT_EQ(JsonEscape(raw),
            R"(a\"b\\c)"
            R"(\u0000\u0001\u0002\u0003\u0004\u0005\u0006\u0007)"
            R"(\b\t\n\u000b\f\r\u000e\u000f)"
            R"(\u0010\u0011\u0012\u0013\u0014\u0015\u0016\u0017)"
            R"(\u0018\u0019\u001a\u001b\u001c\u001d\u001e\u001f)"
            "end");
}

TEST(JsonWriterTest, EscapeLeavesPlainStringsUnchanged) {
  EXPECT_EQ(JsonEscape("esm.insert.esm.append"), "esm.insert.esm.append");
  EXPECT_EQ(JsonEscape(""), "");
  EXPECT_EQ(JsonEscape("say \"hi\"\n"), "say \\\"hi\\\"\\n");
}

TEST(JsonWriterTest, AppendFGrowsInsteadOfTruncating) {
  const std::string long_text(1000, 'k');
  std::string out = "{";
  AppendF(&out, "\"%s\": %d}", long_text.c_str(), 7);
  EXPECT_EQ(out, "{\"" + long_text + "\": 7}");
  AppendF(&out, "%s", "");
  EXPECT_EQ(out.size(), 1000u + 7u);
}

}  // namespace
}  // namespace lob
