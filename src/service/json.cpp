#include "service/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <cstring>

namespace ftsched::service {
namespace {

struct Parser {
  std::string_view text;
  std::size_t pos = 0;
  // Nesting guard: the protocol's deepest legitimate record is ~6 levels
  // (result → certificate → counterexamples → branch → crashes → pair);
  // 64 leaves headroom while keeping hostile input from overflowing the
  // parse stack.
  static constexpr int kMaxDepth = 64;

  [[nodiscard]] bool at_end() const { return pos >= text.size(); }
  [[nodiscard]] char peek() const { return text[pos]; }

  void skip_ws() {
    while (pos < text.size()) {
      const char c = text[pos];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos;
      } else {
        break;
      }
    }
  }

  [[nodiscard]] Error fail(const std::string& what) const {
    return Error{Error::Code::kInvalidInput,
                 "json: " + what + " at offset " + std::to_string(pos)};
  }

  [[nodiscard]] bool consume(char c) {
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  [[nodiscard]] bool consume_word(std::string_view word) {
    if (text.substr(pos, word.size()) == word) {
      pos += word.size();
      return true;
    }
    return false;
  }

  Expected<JsonValue> parse_value(int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (at_end()) return fail("unexpected end of input");
    const char c = peek();
    switch (c) {
      case '{':
        return parse_object(depth);
      case '[':
        return parse_array(depth);
      case '"':
        return parse_string_value();
      case 't':
      case 'f':
        return parse_bool();
      case 'n':
        if (consume_word("null")) return JsonValue{};
        return fail("expected 'null'");
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
        return fail(std::string("unexpected character '") + c + "'");
    }
  }

  Expected<JsonValue> parse_object(int depth) {
    JsonValue value;
    value.kind = JsonValue::Kind::kObject;
    ++pos;  // '{'
    skip_ws();
    if (consume('}')) return value;
    while (true) {
      skip_ws();
      if (at_end() || peek() != '"') return fail("expected object key");
      auto key = parse_raw_string();
      if (!key.has_value()) return key.error();
      skip_ws();
      if (!consume(':')) return fail("expected ':' after object key");
      auto member = parse_value(depth + 1);
      if (!member.has_value()) return member.error();
      value.members.emplace_back(std::move(key.value()),
                                 std::move(member.value()));
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) return value;
      return fail("expected ',' or '}' in object");
    }
  }

  Expected<JsonValue> parse_array(int depth) {
    JsonValue value;
    value.kind = JsonValue::Kind::kArray;
    ++pos;  // '['
    skip_ws();
    if (consume(']')) return value;
    while (true) {
      auto item = parse_value(depth + 1);
      if (!item.has_value()) return item.error();
      value.items.push_back(std::move(item.value()));
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) return value;
      return fail("expected ',' or ']' in array");
    }
  }

  Expected<std::string> parse_raw_string() {
    ++pos;  // '"'
    std::string out;
    while (true) {
      if (at_end()) return fail("unterminated string");
      char c = text[pos++];
      if (c == '"') return out;
      if (c == '\\') {
        if (at_end()) return fail("unterminated escape");
        const char esc = text[pos++];
        switch (esc) {
          case '"':
            out.push_back('"');
            break;
          case '\\':
            out.push_back('\\');
            break;
          case '/':
            out.push_back('/');
            break;
          case 'b':
            out.push_back('\b');
            break;
          case 'f':
            out.push_back('\f');
            break;
          case 'n':
            out.push_back('\n');
            break;
          case 'r':
            out.push_back('\r');
            break;
          case 't':
            out.push_back('\t');
            break;
          case 'u': {
            if (pos + 4 > text.size()) return fail("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text[pos++];
              code <<= 4u;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                return fail("bad hex digit in \\u escape");
              }
            }
            // UTF-8 encode the BMP code point; the protocol itself only
            // emits ASCII, so surrogate pairs are passed through as the
            // replacement-free raw code unit encoding of each half.
            if (code < 0x80) {
              out.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out.push_back(static_cast<char>(0xC0u | (code >> 6u)));
              out.push_back(static_cast<char>(0x80u | (code & 0x3Fu)));
            } else {
              out.push_back(static_cast<char>(0xE0u | (code >> 12u)));
              out.push_back(static_cast<char>(0x80u | ((code >> 6u) & 0x3Fu)));
              out.push_back(static_cast<char>(0x80u | (code & 0x3Fu)));
            }
            break;
          }
          default:
            return fail("unknown escape");
        }
        continue;
      }
      // Raw control characters are invalid JSON; reject instead of
      // silently accepting unframed newlines inside NDJSON lines.
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos;
        return fail("unescaped control character in string");
      }
      out.push_back(c);
    }
  }

  Expected<JsonValue> parse_string_value() {
    auto raw = parse_raw_string();
    if (!raw.has_value()) return raw.error();
    JsonValue value;
    value.kind = JsonValue::Kind::kString;
    value.string = std::move(raw.value());
    return value;
  }

  Expected<JsonValue> parse_bool() {
    JsonValue value;
    value.kind = JsonValue::Kind::kBool;
    if (consume_word("true")) {
      value.boolean = true;
      return value;
    }
    if (consume_word("false")) {
      value.boolean = false;
      return value;
    }
    return fail("expected 'true' or 'false'");
  }

  Expected<JsonValue> parse_number() {
    const std::size_t start = pos;
    if (consume('-')) {
    }
    if (at_end()) return fail("truncated number");
    if (!std::isdigit(static_cast<unsigned char>(peek()))) {
      return fail("expected digit");
    }
    while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos;
    if (consume('.')) {
      if (at_end() || !std::isdigit(static_cast<unsigned char>(peek()))) {
        return fail("expected digit after '.'");
      }
      while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) {
        ++pos;
      }
    }
    if (!at_end() && (peek() == 'e' || peek() == 'E')) {
      ++pos;
      if (!at_end() && (peek() == '+' || peek() == '-')) ++pos;
      if (at_end() || !std::isdigit(static_cast<unsigned char>(peek()))) {
        return fail("expected exponent digit");
      }
      while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) {
        ++pos;
      }
    }
    // The slice is a valid JSON number, which is also a valid strtod
    // input; copy to guarantee NUL termination for strtod.
    const std::string slice(text.substr(start, pos - start));
    JsonValue value;
    value.kind = JsonValue::Kind::kNumber;
    value.number = std::strtod(slice.c_str(), nullptr);
    return value;
  }
};

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, value] : members) {
    if (name == key) return &value;
  }
  return nullptr;
}

double JsonValue::number_or(std::string_view key, double def) const {
  const JsonValue* member = find(key);
  return (member != nullptr && member->is_number()) ? member->number : def;
}

std::string JsonValue::string_or(std::string_view key,
                                 std::string_view def) const {
  const JsonValue* member = find(key);
  return (member != nullptr && member->is_string()) ? member->string
                                                    : std::string(def);
}

bool JsonValue::bool_or(std::string_view key, bool def) const {
  const JsonValue* member = find(key);
  return (member != nullptr && member->is_bool()) ? member->boolean : def;
}

Expected<std::int64_t> checked_integer(const JsonValue* value,
                                       std::string_view what,
                                       std::int64_t lo, std::int64_t hi,
                                       std::optional<std::int64_t> fallback) {
  if (value == nullptr) {
    if (fallback.has_value()) return *fallback;
    return Error{Error::Code::kInvalidInput,
                 std::string(what) + " is missing"};
  }
  if (!value->is_number() || value->number != std::floor(value->number) ||
      value->number < static_cast<double>(lo) ||
      value->number > static_cast<double>(hi)) {
    return Error{Error::Code::kInvalidInput,
                 std::string(what) + " must be an integer in [" +
                     std::to_string(lo) + ", " + std::to_string(hi) + "]"};
  }
  return static_cast<std::int64_t>(value->number);
}

Expected<JsonValue> parse_json(std::string_view text) {
  Parser parser{text};
  auto value = parser.parse_value(0);
  if (!value.has_value()) return value;
  parser.skip_ws();
  if (!parser.at_end()) return parser.fail("trailing garbage after document");
  return value;
}

}  // namespace ftsched::service
