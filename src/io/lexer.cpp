#include "io/lexer.hpp"

#include <algorithm>
#include <cctype>

namespace ftsched::io {

namespace {

bool is_space(char c) { return std::isspace(static_cast<unsigned char>(c)); }

}  // namespace

bool LineLexer::next() {
  while (pos_ <= text_.size()) {
    const std::size_t eol = std::min(text_.find('\n', pos_), text_.size());
    const std::string_view line = text_.substr(pos_, eol - pos_);
    pos_ = eol + 1;
    ++line_;
    tokens_.clear();
    std::size_t i = 0;
    while (true) {
      while (i < line.size() && is_space(line[i])) ++i;
      if (i == line.size() || line[i] == '#') break;
      const std::size_t start = i;
      while (i < line.size() && !is_space(line[i])) ++i;
      tokens_.push_back(line.substr(start, i - start));
    }
    if (!tokens_.empty()) return true;
  }
  return false;
}

}  // namespace ftsched::io
