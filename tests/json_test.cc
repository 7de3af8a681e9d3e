// Tests for the minimal JSON parser behind `lobtool bench-diff` and the
// gate-file loader, and for the two writer helpers every exporter shares.
// The parser only needs to read what our own exporters write (objects,
// arrays, numbers, strings, bools, null), but it must reject malformed
// input with a line number instead of misreading it. The writers must
// produce valid JSON for any string and never truncate.

#include <gtest/gtest.h>

#include <string>

#include "common/json.h"

namespace lob {
namespace {

TEST(JsonTest, ParsesScalars) {
  auto v = JsonValue::Parse("42");
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->is_number());
  EXPECT_DOUBLE_EQ(v->as_number(), 42.0);

  v = JsonValue::Parse("-3.5e2");
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(v->as_number(), -350.0);

  v = JsonValue::Parse("true");
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->is_bool());
  EXPECT_TRUE(v->as_bool());

  v = JsonValue::Parse("false");
  ASSERT_TRUE(v.ok());
  EXPECT_FALSE(v->as_bool());

  v = JsonValue::Parse("null");
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->is_null());

  v = JsonValue::Parse("\"hi\"");
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->is_string());
  EXPECT_EQ(v->as_string(), "hi");
}

TEST(JsonTest, ParsesStringEscapes) {
  auto v = JsonValue::Parse(R"("a\"b\\c\nd\teA")");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v->as_string(), "a\"b\\c\nd\teA");
}

TEST(JsonTest, ParsesNestedObjectsAndArrays) {
  const std::string doc = R"({
    "bench": "micro",
    "metrics": {"cells_per_sec": 12.5, "pages_per_sec": 100},
    "cells": [{"wall_ms": 1.0}, {"wall_ms": 2.0}],
    "ok": true
  })";
  auto v = JsonValue::Parse(doc);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  ASSERT_TRUE(v->is_object());
  const JsonValue* metrics = v->Find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_DOUBLE_EQ(metrics->NumberOr("cells_per_sec", 0), 12.5);
  const JsonValue* cells = v->Find("cells");
  ASSERT_NE(cells, nullptr);
  ASSERT_TRUE(cells->is_array());
  ASSERT_EQ(cells->as_array().size(), 2u);
  EXPECT_DOUBLE_EQ(cells->as_array()[1].NumberOr("wall_ms", 0), 2.0);
  EXPECT_EQ(v->Find("missing"), nullptr);
  EXPECT_EQ(v->StringOr("bench", ""), "micro");
}

TEST(JsonTest, RejectsMalformedInputWithLineNumber) {
  for (const char* bad :
       {"{", "[1, 2", "{\"a\": }", "tru", "\"unterminated", "1 2",
        "{\"a\": 1,}", "{'a': 1}", ""}) {
    auto v = JsonValue::Parse(bad);
    EXPECT_FALSE(v.ok()) << "should reject: " << bad;
  }
  // Error on a later line reports that line.
  auto v = JsonValue::Parse("{\n  \"a\": 1,\n  \"b\": }\n}");
  ASSERT_FALSE(v.ok());
  EXPECT_NE(v.status().ToString().find("line 3"), std::string::npos)
      << v.status().ToString();
}

TEST(JsonTest, RoundTripsOwnExporterOutput) {
  // A miniature of the BENCH_*.json shape our exporters produce.
  const std::string doc =
      "{\n  \"bench\": \"fig9\",\n  \"schema_version\": 2,\n"
      "  \"metrics_snapshot\": {\"ops\": {\"eos.read\": "
      "{\"p99_ms\": 123.456}}},\n"
      "  \"cells\": [\n    {\"config\": \"esm leaf=4\", \"wall_ms\": 0.1}\n"
      "  ]\n}\n";
  auto v = JsonValue::Parse(doc);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  const JsonValue* snap = v->Find("metrics_snapshot");
  ASSERT_NE(snap, nullptr);
  const JsonValue* ops = snap->Find("ops");
  ASSERT_NE(ops, nullptr);
  const JsonValue* read = ops->Find("eos.read");
  ASSERT_NE(read, nullptr);
  EXPECT_DOUBLE_EQ(read->NumberOr("p99_ms", 0), 123.456);
}

TEST(JsonWriterTest, EscapeRoundTripsEveryControlByteQuoteAndBackslash) {
  std::string raw = "a\"b\\c";
  for (int c = 0; c < 0x20; ++c) raw.push_back(static_cast<char>(c));
  raw += "end";
  const std::string escaped = JsonEscape(raw);
  for (const char c : escaped) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20)
        << "raw control byte " << static_cast<int>(c) << " in output";
  }
  auto v = JsonValue::Parse("{\"" + escaped + "\": \"" + escaped + "\"}");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  ASSERT_EQ(v->as_object().size(), 1u);
  EXPECT_EQ(v->as_object().begin()->first, raw);
  EXPECT_EQ(v->as_object().begin()->second.as_string(), raw);
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

TEST(JsonTest, ParseFileReportsMissingFile) {
  auto v = JsonValue::ParseFile("/nonexistent/path.json");
  EXPECT_FALSE(v.ok());
}

}  // namespace
}  // namespace lob
