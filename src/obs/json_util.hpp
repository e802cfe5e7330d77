// Tiny JSON rendering helpers shared by every observability exporter
// (metrics JSON, Chrome trace-event JSON, certificates). Rendering
// only — ftsched emits JSON for external tools (Perfetto, jq, plotting
// scripts) but never parses it back.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace ftsched::obs {

/// Escapes `s` for inclusion inside a JSON string literal (quotes not
/// included). Control characters are \u-escaped so any byte sequence the
/// domain produces (operation names come from user input files) stays
/// valid JSON.
[[nodiscard]] inline std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Renders a double as a JSON number: integral values print without a
/// fraction ("3" not "3.000000"), everything else with enough digits to
/// be stable across exports of the same value. JSON has no infinity/NaN;
/// those render as null (callers that care filter them out first).
[[nodiscard]] inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    return std::to_string(static_cast<std::int64_t>(v));
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

[[nodiscard]] inline std::string json_number(std::uint64_t v) {
  return std::to_string(v);
}

[[nodiscard]] inline std::string json_number(std::int64_t v) {
  return std::to_string(v);
}

/// A quoted, escaped JSON string literal.
[[nodiscard]] inline std::string json_string(std::string_view s) {
  return '"' + json_escape(s) + '"';
}

}  // namespace ftsched::obs
