// Time representation for ftsched.
//
// The paper (Girault et al., RR-4006) expresses all durations in fractional
// "time units" (0.5, 1.25, ...). We represent time as double and provide
// epsilon-aware comparison helpers so schedule arithmetic (sums of many small
// durations) never misclassifies equal dates because of floating-point noise.
//
// A duration of `kInfinite` marks an impossible assignment: the
// characteristics tables use it for "this operation cannot run on this
// processor" (the paper's infinity entries).
#pragma once

#include <limits>
#include <string>

namespace ftsched {

/// Scheduling dates and durations, in the paper's abstract "time units".
using Time = double;

/// "Cannot execute here" marker used in characteristics tables.
inline constexpr Time kInfinite = std::numeric_limits<Time>::infinity();

/// Comparison slack. Durations in practice have >= 1e-3 granularity; 1e-9
/// absorbs accumulated rounding without ever merging distinct dates.
inline constexpr Time kTimeEpsilon = 1e-9;

/// True if `t` marks an impossible assignment.
[[nodiscard]] constexpr bool is_infinite(Time t) noexcept {
  return t == kInfinite;
}

[[nodiscard]] constexpr bool time_eq(Time a, Time b) noexcept {
  if (is_infinite(a) || is_infinite(b)) return a == b;
  const Time d = a - b;
  return d < kTimeEpsilon && d > -kTimeEpsilon;
}

[[nodiscard]] constexpr bool time_lt(Time a, Time b) noexcept {
  return a < b - kTimeEpsilon;
}

[[nodiscard]] constexpr bool time_le(Time a, Time b) noexcept {
  return a < b + kTimeEpsilon;
}

[[nodiscard]] constexpr bool time_gt(Time a, Time b) noexcept {
  return time_lt(b, a);
}

[[nodiscard]] constexpr bool time_ge(Time a, Time b) noexcept {
  return time_le(b, a);
}

/// Half-open interval [start, end) occupied on some resource.
struct Interval {
  Time start = 0;
  Time end = 0;

  [[nodiscard]] constexpr Time length() const noexcept { return end - start; }

  /// True if the two intervals share a point of positive measure.
  [[nodiscard]] constexpr bool overlaps(const Interval& other) const noexcept {
    return time_lt(start, other.end) && time_lt(other.start, end);
  }

  [[nodiscard]] constexpr bool contains(Time t) const noexcept {
    return time_le(start, t) && time_lt(t, end);
  }

  friend constexpr bool operator==(const Interval&, const Interval&) = default;
};

/// Renders a time compactly ("3", "4.5", "1.25", "inf") for diagnostics,
/// Gantt charts, and benchmark tables.
[[nodiscard]] std::string time_to_string(Time t);

/// Renders a time in the shortest form that parses back to the same
/// double ("4", "4.000007629394531", "inf"): how reproducers print fault
/// times, so a printed fault replays exactly.
[[nodiscard]] std::string time_exact(Time t);

}  // namespace ftsched
