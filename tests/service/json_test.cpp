// The service JSON parser: full value grammar on well-formed documents,
// clean Errors (never UB) on malformed ones — the parser sits on the
// daemon's untrusted input boundary.
#include <gtest/gtest.h>

#include <string>

#include "service/json.hpp"

namespace ftsched::service {
namespace {

TEST(ServiceJson, ParsesScalars) {
  EXPECT_TRUE(parse_json("null").value().is_null());
  EXPECT_TRUE(parse_json("true").value().boolean);
  EXPECT_FALSE(parse_json("false").value().boolean);
  EXPECT_DOUBLE_EQ(parse_json("42").value().number, 42.0);
  EXPECT_DOUBLE_EQ(parse_json("-2.5e3").value().number, -2500.0);
  EXPECT_EQ(parse_json("\"hi\"").value().string, "hi");
}

TEST(ServiceJson, ParsesNestedStructure) {
  const auto value =
      parse_json(R"({"a": [1, 2, {"b": null}], "c": {"d": true}})");
  ASSERT_TRUE(value.has_value());
  const JsonValue& root = value.value();
  ASSERT_TRUE(root.is_object());
  const JsonValue* a = root.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->items.size(), 3u);
  EXPECT_DOUBLE_EQ(a->items[0].number, 1.0);
  EXPECT_TRUE(a->items[2].find("b")->is_null());
  EXPECT_TRUE(root.find("c")->find("d")->boolean);
  EXPECT_EQ(root.find("missing"), nullptr);
}

TEST(ServiceJson, StringEscapes) {
  const auto value = parse_json(R"("a\"b\\c\n\tA")");
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(value.value().string, "a\"b\\c\n\tA");
}

TEST(ServiceJson, RoundTripsSeventeenDigitDoubles) {
  // The stream protocol's %.17g rendering must come back bit-exact.
  const double x = 23.680199999999999;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  const auto value = parse_json(buf);
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(value.value().number, x);  // exact, not near
}

TEST(ServiceJson, TypedAccessorsDefaultOnMismatch) {
  const auto value = parse_json(R"({"n": 3, "s": "x", "b": true})");
  ASSERT_TRUE(value.has_value());
  const JsonValue& root = value.value();
  EXPECT_DOUBLE_EQ(root.number_or("n", -1), 3.0);
  EXPECT_DOUBLE_EQ(root.number_or("s", -1), -1.0);  // kind mismatch
  EXPECT_EQ(root.string_or("s", "d"), "x");
  EXPECT_EQ(root.string_or("n", "d"), "d");
  EXPECT_TRUE(root.bool_or("b", false));
  EXPECT_TRUE(root.bool_or("absent", true));
}

TEST(ServiceJson, CheckedIntegerRejectsWhatACastWouldMangle) {
  const auto value = parse_json(
      R"({"n": 7, "neg": -1, "frac": 2.5, "big": 1e300, "s": "7"})");
  ASSERT_TRUE(value.has_value());
  const JsonValue& root = value.value();
  const auto read = [&](std::string_view key) {
    return checked_integer(root.find(key), key, 0, 100, 42);
  };
  ASSERT_TRUE(read("n").has_value());
  EXPECT_EQ(*read("n"), 7);
  ASSERT_TRUE(read("absent").has_value());
  EXPECT_EQ(*read("absent"), 42);
  for (const char* key : {"neg", "frac", "big", "s"}) {
    const auto bad = read(key);
    ASSERT_FALSE(bad.has_value()) << key;
    EXPECT_EQ(bad.error().code, Error::Code::kInvalidInput);
    EXPECT_NE(bad.error().message.find(key), std::string::npos);
  }
  // A required field has no fallback: absence is an error too.
  EXPECT_FALSE(checked_integer(root.find("absent"), "absent", 0, 100)
                   .has_value());
  // The sentinel below zero is allowed only when the range admits it.
  EXPECT_EQ(*checked_integer(root.find("neg"), "neg", -1, 100), -1);
}

TEST(ServiceJson, MalformedInputsAreCleanErrors) {
  const char* bad[] = {
      "",
      "{",
      "[1, 2",
      "{\"a\":}",
      "{\"a\" 1}",
      "\"unterminated",
      "\"bad \\q escape\"",
      "\"trunc \\u00",
      "1 2",     // trailing garbage
      "nul",
      "tru",
      "-",
      "1.",
      "1e",
      "{\"dup\": 1,}",
  };
  for (const char* text : bad) {
    const auto value = parse_json(text);
    EXPECT_FALSE(value.has_value()) << "accepted: " << text;
    if (!value.has_value()) {
      EXPECT_NE(value.error().message.find("json:"), std::string::npos);
    }
  }
}

TEST(ServiceJson, RejectsRawControlCharacterInString) {
  const std::string text = std::string("\"a\nb\"");
  EXPECT_FALSE(parse_json(text).has_value());
}

TEST(ServiceJson, RejectsPathologicalNesting) {
  std::string text;
  for (int i = 0; i < 200; ++i) text += '[';
  for (int i = 0; i < 200; ++i) text += ']';
  const auto value = parse_json(text);
  ASSERT_FALSE(value.has_value());
  EXPECT_NE(value.error().message.find("nesting"), std::string::npos);
}

TEST(ServiceJson, DuplicateKeysKeepFirstOnFind) {
  const auto value = parse_json(R"({"k": 1, "k": 2})");
  ASSERT_TRUE(value.has_value());
  EXPECT_DOUBLE_EQ(value.value().find("k")->number, 1.0);
  EXPECT_EQ(value.value().members.size(), 2u);
}

}  // namespace
}  // namespace ftsched::service
