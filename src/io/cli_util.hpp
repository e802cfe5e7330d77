// The checked number parsers and the whole-file reader and writer shared by
// the text formats (`.ft`, `.scenario`), certifyd and the command-line
// tools (examples/*_tool).
//
// Every number goes through std::from_chars over the whole token: an
// optional '-' then decimal digits (and, for reals, a fraction, an
// exponent, or "inf" / "nan"). No leading '+' or whitespace, no base
// prefix, no hex float. A number too large for its type is kOutOfRange,
// never clamped: a clamped budget would look valid. The file helpers check
// the stream, not only the open: ofstream reports a full disk only through
// its state, and a directory opens fine and fails on the first read.
#pragma once

#include <charconv>
#include <concepts>
#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace ftsched::io {

/// Outcome of parsing one number. kMalformed (not a number, trailing
/// garbage, out of the accepted domain) is a usage error; kOutOfRange
/// deserves its own diagnostic — the text LOOKS like a valid number, and
/// clamping it would accept an impossible budget.
enum class ParseStatus { kOk, kMalformed, kOutOfRange };

namespace detail {

/// std::from_chars over the whole of `text`; `out` is written only on kOk.
template <class Number>
[[nodiscard]] ParseStatus parse_whole(std::string_view text, Number& out) {
  const char* const end = text.data() + text.size();
  Number value{};
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec == std::errc::invalid_argument || ptr != end) {
    return ParseStatus::kMalformed;
  }
  if (ec == std::errc::result_out_of_range) return ParseStatus::kOutOfRange;
  out = value;
  return ParseStatus::kOk;
}

}  // namespace detail

/// The whole of `text` as one decimal integer of type Int; kOutOfRange
/// when it does not fit Int. `out` is written only on kOk.
template <std::integral Int>
[[nodiscard]] ParseStatus parse_integer(std::string_view text, Int& out) {
  return detail::parse_whole(text, out);
}

/// The whole of `text` as one double; kOutOfRange when its magnitude
/// overflows, or underflows past the subnormals. `out` is written only on
/// kOk.
[[nodiscard]] inline ParseStatus parse_real(std::string_view text,
                                            double& out) {
  return detail::parse_whole(text, out);
}

/// Non-negative integer into `out`: kMalformed when negative, kOutOfRange
/// when it does not fit a long or Int.
template <std::integral Int>
[[nodiscard]] ParseStatus parse_number(std::string_view text, Int& out) {
  long value = 0;
  const ParseStatus status = parse_integer(text, value);
  if (status != ParseStatus::kOk) return status;
  if (value < 0) return ParseStatus::kMalformed;
  if (!std::in_range<Int>(value)) return ParseStatus::kOutOfRange;
  out = static_cast<Int>(value);
  return ParseStatus::kOk;
}

/// Double in [0, 1] into `out`.
[[nodiscard]] ParseStatus parse_fraction(std::string_view text, double& out);

/// Strictly positive double (inf included) into `out`.
[[nodiscard]] ParseStatus parse_time(std::string_view text, double& out);

/// An instant: finite double >= 0 into `out` (NaN, infinities and negative
/// values are kMalformed — a simulator cannot schedule them).
[[nodiscard]] ParseStatus parse_instant(std::string_view text, double& out);

/// "I/N" shard assignment with 0 <= I < N.
[[nodiscard]] ParseStatus parse_shard(std::string_view text,
                                      std::size_t& index, std::size_t& count);

/// The whole file at `path`; nullopt when it cannot be opened or a read
/// fails (a directory, an I/O error), so an unreadable path never parses
/// as empty text. Callers name the path in their own diagnostic.
[[nodiscard]] std::optional<std::string> read_file(const std::string& path);

/// Writes `content` to `path`. False — with a "cannot write <path>"
/// diagnostic on stderr — when the file cannot be opened OR the stream is
/// not good() after writing and flushing (disk full, I/O error), so a
/// truncated artifact is never reported as success.
[[nodiscard]] bool write_file(const std::string& path,
                              const std::string& content);

}  // namespace ftsched::io
