#include "campaign/canonical.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

namespace ftsched::campaign {

namespace {

template <class T>
void sort_unique(std::vector<T>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

bool contains(const std::vector<ProcessorId>& v, ProcessorId p) {
  return std::find(v.begin(), v.end(), p) != v.end();
}

/// Serialization primitives: fixed-width little-endian-independent byte
/// dumps (we only compare fingerprints produced by the same process, so
/// native byte order is fine; doubles are dumped by bit pattern, making
/// the key exact, not epsilon-fuzzy).
void put_i64(std::string& out, std::int64_t v) {
  char bytes[sizeof v];
  std::memcpy(bytes, &v, sizeof v);
  out.append(bytes, sizeof v);
}

void put_time(std::string& out, Time t) {
  static_assert(sizeof(Time) == sizeof(std::int64_t));
  std::int64_t bits;
  std::memcpy(&bits, &t, sizeof bits);
  put_i64(out, bits);
}

/// canonical_plan into scratch.plan, reusing every list's storage.
void canonicalize(const MissionPlan& plan, CanonicalScratch& scratch) {
  MissionPlan& out = scratch.plan;
  out.iterations = plan.iterations;
  out.failures.clear();
  out.link_failures.clear();

  out.dead_at_start = plan.dead_at_start;
  sort_unique(out.dead_at_start);
  out.dead_links_at_start = plan.dead_links_at_start;
  sort_unique(out.dead_links_at_start);

  out.suspected_at_start = plan.suspected_at_start;
  sort_unique(out.suspected_at_start);
  std::erase_if(out.suspected_at_start, [&](ProcessorId p) {
    return contains(out.dead_at_start, p);
  });

  // Crashes: earliest per processor; processors dead at start never crash.
  std::vector<MissionFailure>& crashes = scratch.crashes;
  crashes = plan.failures;
  std::sort(crashes.begin(), crashes.end(),
            [](const MissionFailure& a, const MissionFailure& b) {
              if (a.iteration != b.iteration) return a.iteration < b.iteration;
              if (a.event.time != b.event.time) {
                return a.event.time < b.event.time;
              }
              return a.event.processor < b.event.processor;
            });
  for (const MissionFailure& crash : crashes) {
    if (contains(out.dead_at_start, crash.event.processor)) continue;
    const bool repeat = std::any_of(
        out.failures.begin(), out.failures.end(),
        [&](const MissionFailure& kept) {
          return kept.event.processor == crash.event.processor;
        });
    if (!repeat) out.failures.push_back(crash);
  }

  // Link deaths: earliest per link; links dead at start never die again.
  std::vector<MissionLinkFailure>& link_deaths = scratch.link_deaths;
  link_deaths = plan.link_failures;
  std::sort(link_deaths.begin(), link_deaths.end(),
            [](const MissionLinkFailure& a, const MissionLinkFailure& b) {
              if (a.iteration != b.iteration) return a.iteration < b.iteration;
              if (a.event.time != b.event.time) {
                return a.event.time < b.event.time;
              }
              return a.event.link < b.event.link;
            });
  for (const MissionLinkFailure& death : link_deaths) {
    if (std::find(out.dead_links_at_start.begin(),
                  out.dead_links_at_start.end(),
                  death.event.link) != out.dead_links_at_start.end()) {
      continue;
    }
    const bool repeat = std::any_of(
        out.link_failures.begin(), out.link_failures.end(),
        [&](const MissionLinkFailure& kept) {
          return kept.event.link == death.event.link;
        });
    if (!repeat) out.link_failures.push_back(death);
  }

  // Silences: drop inert ones, sort, drop exact duplicates. A window on a
  // processor whose (earliest) crash strictly precedes the opening edge in
  // mission order is as inert as one on a dead-at-start processor: the
  // event queue pops the exactly-earlier crash first, is_silent is only
  // consulted for a live feeding processor, and the closing-edge wake-up
  // is a no-op kDeadline. Same-instant crashes are kept — the crash
  // dispatches after the instant's send attempts, which the window blocks.
  out.silences = plan.silences;
  std::erase_if(out.silences, [&](const MissionSilence& s) {
    if (s.window.to <= s.window.from ||
        contains(out.dead_at_start, s.window.processor)) {
      return true;
    }
    return std::any_of(out.failures.begin(), out.failures.end(),
                       [&](const MissionFailure& crash) {
                         if (crash.event.processor != s.window.processor) {
                           return false;
                         }
                         return crash.iteration < s.iteration ||
                                (crash.iteration == s.iteration &&
                                 crash.event.time < s.window.from);
                       });
  });
  std::sort(out.silences.begin(), out.silences.end(),
            [](const MissionSilence& a, const MissionSilence& b) {
              if (a.iteration != b.iteration) return a.iteration < b.iteration;
              if (a.window.processor != b.window.processor) {
                return a.window.processor < b.window.processor;
              }
              if (a.window.from != b.window.from) {
                return a.window.from < b.window.from;
              }
              return a.window.to < b.window.to;
            });
  out.silences.erase(
      std::unique(out.silences.begin(), out.silences.end(),
                  [](const MissionSilence& a, const MissionSilence& b) {
                    return a.iteration == b.iteration &&
                           a.window == b.window;
                  }),
      out.silences.end());
}

}  // namespace

MissionPlan canonical_plan(const MissionPlan& plan) {
  CanonicalScratch scratch;
  canonicalize(plan, scratch);
  return std::move(scratch.plan);
}

void canonical_fingerprint_into(const MissionPlan& plan,
                                CanonicalScratch& scratch, std::string& out) {
  canonicalize(plan, scratch);
  const MissionPlan& c = scratch.plan;
  out.clear();
  out.reserve(64 + 16 * c.event_count());
  put_i64(out, c.iterations);
  put_i64(out, static_cast<std::int64_t>(c.dead_at_start.size()));
  for (ProcessorId p : c.dead_at_start) put_i64(out, p.value());
  put_i64(out, static_cast<std::int64_t>(c.dead_links_at_start.size()));
  for (LinkId l : c.dead_links_at_start) put_i64(out, l.value());
  put_i64(out, static_cast<std::int64_t>(c.suspected_at_start.size()));
  for (ProcessorId p : c.suspected_at_start) put_i64(out, p.value());
  put_i64(out, static_cast<std::int64_t>(c.failures.size()));
  for (const MissionFailure& f : c.failures) {
    put_i64(out, f.iteration);
    put_i64(out, f.event.processor.value());
    put_time(out, f.event.time);
  }
  put_i64(out, static_cast<std::int64_t>(c.link_failures.size()));
  for (const MissionLinkFailure& f : c.link_failures) {
    put_i64(out, f.iteration);
    put_i64(out, f.event.link.value());
    put_time(out, f.event.time);
  }
  put_i64(out, static_cast<std::int64_t>(c.silences.size()));
  for (const MissionSilence& s : c.silences) {
    put_i64(out, s.iteration);
    put_i64(out, s.window.processor.value());
    put_time(out, s.window.from);
    put_time(out, s.window.to);
  }
}

std::string canonical_fingerprint(const MissionPlan& plan) {
  CanonicalScratch scratch;
  std::string out;
  canonical_fingerprint_into(plan, scratch, out);
  return out;
}

}  // namespace ftsched::campaign
