#include "core/time.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace ftsched {

std::string time_to_string(Time t) {
  if (is_infinite(t)) return "inf";
  if (t == -kInfinite) return "-inf";
  // Integral values print without a decimal point; everything else with up
  // to four significant decimals, trailing zeros trimmed.
  const double rounded = std::round(t);
  if (time_eq(t, rounded) && std::abs(rounded) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", rounded);
    return buf;
  }
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.4f", t);
  std::string s = buf;
  while (!s.empty() && s.back() == '0') s.pop_back();
  if (!s.empty() && s.back() == '.') s.pop_back();
  return s;
}

std::string time_exact(Time t) {
  char buffer[64];
  const auto [ptr, ec] = std::to_chars(buffer, buffer + sizeof buffer, t);
  return ec == std::errc{} ? std::string(buffer, ptr) : std::string("0");
}

}  // namespace ftsched
