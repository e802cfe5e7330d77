// The line lexer every text format reads through (`.ft` problems,
// `.scenario` reproducers): lines end at '\n' and are numbered from 1,
// tokens are separated by std::isspace, and '#' at the start of a token
// comments out the rest of the line. Tokens are views into the text, so
// lexing allocates nothing per token.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "core/error.hpp"

namespace ftsched::io {

class LineLexer {
 public:
  explicit LineLexer(std::string_view text) : text_(text) {}

  /// Advances to the next line holding a token; false past the last line.
  [[nodiscard]] bool next();

  /// The current line's number (1-based).
  [[nodiscard]] int line() const noexcept { return line_; }

  /// The current line's tokens; never empty after next() returned true.
  [[nodiscard]] const std::vector<std::string_view>& tokens() const noexcept {
    return tokens_;
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  int line_ = 0;
  std::vector<std::string_view> tokens_;
};

/// An invalid-input error at `line`: "line N: " followed by `parts`.
template <class... Parts>
[[nodiscard]] Error parse_error(int line, const Parts&... parts) {
  std::string message = "line " + std::to_string(line) + ": ";
  (message.append(parts), ...);
  return Error{Error::Code::kInvalidInput, std::move(message)};
}

}  // namespace ftsched::io
