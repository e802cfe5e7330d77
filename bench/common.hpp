// Shared helpers for the figure/table reproduction benchmarks: consistent
// headers and paper-vs-measured comparison lines for EXPERIMENTS.md.
#pragma once

#include <cstdio>
#include <string>

#include "core/time.hpp"

namespace ftsched::bench {

inline void header(const std::string& id, const std::string& title) {
  std::printf("================================================================\n");
  std::printf("%s — %s\n", id.c_str(), title.c_str());
  std::printf("================================================================\n");
}

inline void section(const std::string& title) {
  std::printf("\n--- %s ---\n", title.c_str());
}

/// One paper-vs-measured line. `note` explains deviations.
inline void compare(const std::string& what, double paper, double measured,
                    const std::string& note = {}) {
  std::printf("%-38s paper=%-8s measured=%-8s %s\n", what.c_str(),
              time_to_string(paper).c_str(), time_to_string(measured).c_str(),
              note.c_str());
}

inline void value(const std::string& what, const std::string& v) {
  std::printf("%-38s %s\n", what.c_str(), v.c_str());
}

}  // namespace ftsched::bench
