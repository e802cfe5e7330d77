// Minimal JSON value + recursive-descent parser for the service layer.
//
// ftsched has only ever EMITTED JSON (obs/json_util.hpp); the certifyd
// server and the shard/merge protocol are the first consumers that must
// parse it back: request lines arriving over the pipe/socket, and partial-
// certificate records produced by remote shard workers. The parser covers
// exactly RFC 8259's value grammar over complete documents — objects,
// arrays, strings (with escapes), numbers, booleans, null — and reports
// malformed input as a clean Error naming the byte offset, never UB.
//
// Numbers are held as double: every counter the protocol carries fits
// 2^53 exactly, and times round-trip bit-exactly through the %.17g
// rendering the stream records use (service/stream.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/error.hpp"

namespace ftsched::service {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> items;  // kArray
  /// Members in document order (duplicate keys kept; find returns the
  /// first, matching common parser behaviour).
  std::vector<std::pair<std::string, JsonValue>> members;  // kObject

  [[nodiscard]] bool is_null() const { return kind == Kind::kNull; }
  [[nodiscard]] bool is_object() const { return kind == Kind::kObject; }
  [[nodiscard]] bool is_array() const { return kind == Kind::kArray; }
  [[nodiscard]] bool is_string() const { return kind == Kind::kString; }
  [[nodiscard]] bool is_number() const { return kind == Kind::kNumber; }
  [[nodiscard]] bool is_bool() const { return kind == Kind::kBool; }

  /// First member named `key`, or nullptr (also for non-objects).
  [[nodiscard]] const JsonValue* find(std::string_view key) const;

  /// Typed member access with defaults — absent members and kind
  /// mismatches yield the default, so request parsing reads flat records
  /// without a cascade of null checks.
  [[nodiscard]] double number_or(std::string_view key, double def) const;
  [[nodiscard]] std::string string_or(std::string_view key,
                                      std::string_view def) const;
  [[nodiscard]] bool bool_or(std::string_view key, bool def) const;
};

/// Largest magnitude a JSON number carries exactly (2^53); the bound for
/// every count and index the protocol reads back.
inline constexpr std::int64_t kJsonMaxInteger = std::int64_t{1} << 53;

/// The one reader for integers arriving in untrusted JSON. `value` is the
/// member (or array item) to read, null when absent: an absent value yields
/// `fallback`, or an Error when there is none. A present value must be a
/// number with an integral value in [lo, hi]; a string, a fraction, a
/// negative count or an out-of-range id is a kInvalidInput Error naming
/// `what`. The range check runs on the double, before any cast, so no
/// input reaches an undefined float-to-integer conversion. [lo, hi] must
/// lie within +-kJsonMaxInteger.
[[nodiscard]] Expected<std::int64_t> checked_integer(
    const JsonValue* value, std::string_view what, std::int64_t lo,
    std::int64_t hi, std::optional<std::int64_t> fallback = std::nullopt);

/// Parses one complete JSON document (leading/trailing whitespace allowed,
/// trailing garbage rejected). Errors carry the byte offset and what was
/// expected.
[[nodiscard]] Expected<JsonValue> parse_json(std::string_view text);

}  // namespace ftsched::service
