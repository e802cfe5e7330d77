#include "io/cli_util.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace ftsched::io {

namespace {

/// parse_real, then kMalformed unless `in_domain(value)`.
template <class InDomain>
ParseStatus parse_real_in(std::string_view text, double& out,
                          InDomain in_domain) {
  double value = 0;
  const ParseStatus status = parse_real(text, value);
  if (status != ParseStatus::kOk) return status;
  if (!in_domain(value)) return ParseStatus::kMalformed;
  out = value;
  return ParseStatus::kOk;
}

}  // namespace

ParseStatus parse_fraction(std::string_view text, double& out) {
  return parse_real_in(text, out,
                       [](double v) { return v >= 0.0 && v <= 1.0; });
}

ParseStatus parse_time(std::string_view text, double& out) {
  return parse_real_in(text, out, [](double v) { return v > 0.0; });
}

ParseStatus parse_instant(std::string_view text, double& out) {
  return parse_real_in(text, out,
                       [](double v) { return std::isfinite(v) && v >= 0.0; });
}

ParseStatus parse_shard(std::string_view text, std::size_t& index,
                        std::size_t& count) {
  const std::size_t slash = text.find('/');
  if (slash == std::string_view::npos) return ParseStatus::kMalformed;
  std::size_t i = 0;
  std::size_t n = 0;
  ParseStatus status = parse_number(text.substr(0, slash), i);
  if (status == ParseStatus::kOk) {
    status = parse_number(text.substr(slash + 1), n);
  }
  if (status != ParseStatus::kOk) return status;
  if (i >= n) return ParseStatus::kMalformed;
  index = i;
  count = n;
  return ParseStatus::kOk;
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return std::nullopt;
  std::ostringstream text;
  text << file.rdbuf();
  // The copy sets failbit on `text` alike for an empty file and for a
  // failed read; only a failed read leaves `file` short of its end, and
  // probing it then fails again and sets badbit.
  if (file.peek() != std::ifstream::traits_type::eof() || file.bad()) {
    return std::nullopt;
  }
  return std::move(text).str();
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream file(path);
  if (!file) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  file << content;
  file.flush();
  // operator<< reports disk-full and I/O errors only through the stream
  // state; without this check a truncated artifact looks like success.
  if (!file.good()) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace ftsched::io
