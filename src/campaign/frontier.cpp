#include "campaign/frontier.hpp"

#include <algorithm>
#include <utility>

#include "graph/algorithm_graph.hpp"
#include "obs/json_util.hpp"

namespace ftsched::campaign {

namespace {

bool lex_less(const FrontierPoint& a, const FrontierPoint& b) {
  if (a.max_failures != b.max_failures) {
    return a.max_failures < b.max_failures;
  }
  if (a.max_link_failures != b.max_link_failures) {
    return a.max_link_failures < b.max_link_failures;
  }
  return a.max_silences < b.max_silences;
}

std::string point_coords(const FrontierPoint& point) {
  return "(" + std::to_string(point.max_failures) + ", " +
         std::to_string(point.max_link_failures) + ", " +
         std::to_string(point.max_silences) + ")";
}

}  // namespace

GlsBounds gls_bounds(const Schedule& schedule) {
  const Problem& problem = schedule.problem();
  const AlgorithmGraph& graph = *problem.algorithm;
  const ArchitectureGraph& arch = *problem.architecture;
  const std::size_t procs = arch.processor_count();
  const std::size_t ops = graph.operation_count();
  GlsBounds bounds;

  // K: the weakest output's replica spread. Crashing every host of one
  // extio output loses it regardless of timing, so no schedule masks more
  // than (distinct hosts - 1) crashes.
  int k = static_cast<int>(procs) - 1;
  std::vector<bool> host(procs, false);
  for (const Operation& op : graph.operations()) {
    if (op.kind != OperationKind::kExtioOut) continue;
    std::fill(host.begin(), host.end(), false);
    int hosts = 0;
    for (const ScheduledOperation* replica : schedule.replicas_view(op.id)) {
      const std::size_t p = static_cast<std::size_t>(
          replica->processor.index());
      if (!host[p]) {
        host[p] = true;
        ++hosts;
      }
    }
    k = std::min(k, hosts - 1);
  }
  bounds.k_bound = std::max(k, 0);

  // L: fixpoint of locally-completable (operation, processor) pairs — a
  // replica of op on p whose every precedence predecessor is itself locally
  // completable on p needs no link. Precedence is acyclic, so one pass in
  // topological order settles it.
  std::vector<std::vector<bool>> local(ops, std::vector<bool>(procs, false));
  for (const OperationId op : graph.topological_order()) {
    const std::vector<OperationId> preds = graph.predecessors(op);
    for (const ScheduledOperation* replica : schedule.replicas_view(op)) {
      const std::size_t p = static_cast<std::size_t>(
          replica->processor.index());
      bool ok = true;
      for (const OperationId pred : preds) {
        if (!local[pred.index()][p]) {
          ok = false;
          break;
        }
      }
      if (ok) local[op.index()][p] = true;
    }
  }

  int l = -1;
  std::vector<bool> incident(arch.link_count(), false);
  for (const Operation& op : graph.operations()) {
    if (op.kind != OperationKind::kExtioOut) continue;
    bool completable = false;
    for (std::size_t p = 0; p < procs && !completable; ++p) {
      completable = local[op.id.index()][p];
    }
    if (completable) continue;
    // Every host of this output needs at least one inbound transfer, and
    // any such transfer uses a link incident to the host: killing the
    // union of the hosts' incident links starves the output.
    std::fill(incident.begin(), incident.end(), false);
    int distinct = 0;
    for (const ScheduledOperation* replica : schedule.replicas_view(op.id)) {
      for (const LinkId link : arch.links_of(replica->processor)) {
        const std::size_t i = static_cast<std::size_t>(link.index());
        if (!incident[i]) {
          incident[i] = true;
          ++distinct;
        }
      }
    }
    const int cut = std::max(distinct - 1, 0);
    l = l < 0 ? cut : std::min(l, cut);
  }
  if (l < 0) {
    bounds.l_unbounded = true;
    bounds.l_bound = static_cast<int>(arch.link_count());
  } else {
    bounds.l_bound = l;
  }
  return bounds;
}

FrontierReport frontier_sweep(const Schedule& schedule,
                              const FrontierSpec& spec) {
  const ArchitectureGraph& arch = *schedule.problem().architecture;
  // Validate constraints once up front: a malformed spec should throw
  // before any lattice point is explored, not at the first certification.
  (void)resolve_latency_constraints(schedule, spec.latency_constraints);

  FrontierReport report;
  const int derived = spec.max_failures >= 0
                          ? spec.max_failures
                          : schedule.failures_tolerated() + 1;
  // Clamp to the budgets certify itself resolves to, so every lattice
  // point is a genuinely distinct sweep.
  report.max_failures = std::clamp(
      derived, 0, static_cast<int>(arch.processor_count()) - 1);
  report.max_link_failures = std::clamp(
      spec.max_link_failures, 0, static_cast<int>(arch.link_count()));
  report.max_silences = std::max(spec.max_silences, 0);
  report.response_bound = spec.response_bound;
  report.latency_constraints = spec.latency_constraints;
  report.gls = gls_bounds(schedule);

  struct Budgets {
    int k = 0;
    int l = 0;
    int s = 0;
  };
  std::vector<Budgets> refuted;

  const int total_cap =
      report.max_failures + report.max_link_failures + report.max_silences;
  for (int total = 0; total <= total_cap; ++total) {
    for (int k = 0; k <= std::min(total, report.max_failures); ++k) {
      for (int l = 0; l <= std::min(total - k, report.max_link_failures);
           ++l) {
        const int s = total - k - l;
        if (s > report.max_silences) continue;

        FrontierPoint point;
        point.max_failures = k;
        point.max_link_failures = l;
        point.max_silences = s;

        const bool implied = std::any_of(
            refuted.begin(), refuted.end(), [&](const Budgets& r) {
              return r.k <= k && r.l <= l && r.s <= s;
            });
        if (implied) {
          point.implied = true;
          ++report.points_implied;
        } else {
          CertifySpec cspec;
          cspec.max_failures = k;
          cspec.max_link_failures = l;
          cspec.max_silences = s;
          cspec.response_bound = spec.response_bound;
          cspec.threads = spec.threads;
          // The frontier keeps only the first refuting branch per point.
          cspec.max_counterexamples = 1;
          cspec.latency_constraints = spec.latency_constraints;
          CertifyReport certificate = certify(schedule, cspec);
          point.certified = certificate.certified;
          point.branches = certificate.branches;
          point.total_counterexamples = certificate.total_counterexamples;
          point.worst_response = certificate.worst_response;
          point.worst_chain_latency =
              std::move(certificate.worst_chain_latency);
          if (!certificate.certified &&
              !certificate.counterexamples.empty()) {
            point.first_counterexample =
                std::move(certificate.counterexamples.front());
          }
          ++report.points_explored;
        }
        const bool point_refuted = !point.certified && !point.implied;
        report.points.push_back(std::move(point));
        if (point_refuted) refuted.push_back(Budgets{k, l, s});
      }
    }
  }

  for (const FrontierPoint& point : report.points) {
    if (!point.certified) continue;
    const bool dominated = std::any_of(
        report.points.begin(), report.points.end(),
        [&](const FrontierPoint& other) {
          return other.certified && &other != &point &&
                 point.max_failures <= other.max_failures &&
                 point.max_link_failures <= other.max_link_failures &&
                 point.max_silences <= other.max_silences;
        });
    if (!dominated) report.surface.push_back(point);
  }
  std::sort(report.surface.begin(), report.surface.end(), lex_less);
  return report;
}

std::vector<LatencyConstraint> paper_chain_constraints() {
  // Bounds cross-checked against the worked examples' published timings:
  // solution 1's worst certified A -> E latency under K=1 stays below 8
  // and the whole mission below 13 for both solutions (EXPERIMENTS.md).
  std::vector<LatencyConstraint> constraints;
  constraints.push_back(LatencyConstraint{"spine", "A", "E", 8});
  constraints.push_back(LatencyConstraint{"mission", "I", "O", 13});
  return constraints;
}

std::string FrontierReport::to_json(const ArchitectureGraph& arch) const {
  using obs::json_number;
  using obs::json_string;
  std::string out = "{\n  \"frontier\": {\n";
  out += "    \"max_failures\": " + std::to_string(max_failures) + ",\n";
  out += "    \"max_link_failures\": " + std::to_string(max_link_failures) +
         ",\n";
  out += "    \"max_silences\": " + std::to_string(max_silences) + ",\n";
  out += "    \"response_bound\": " + json_number(response_bound) + ",\n";
  if (!latency_constraints.empty()) {
    out += "    \"latency_constraints\": [\n";
    for (std::size_t i = 0; i < latency_constraints.size(); ++i) {
      const LatencyConstraint& c = latency_constraints[i];
      out += "      {\"name\": " + json_string(c.name) +
             ", \"source\": " + json_string(c.source_op) +
             ", \"sink\": " + json_string(c.sink_op) +
             ", \"bound\": " + json_number(c.bound) + "}";
      out += i + 1 < latency_constraints.size() ? ",\n" : "\n";
    }
    out += "    ],\n";
  }
  out += "    \"gls_bounds\": {\"k_bound\": " + std::to_string(gls.k_bound) +
         ", \"l_bound\": " +
         (gls.l_unbounded ? std::string("null")
                          : std::to_string(gls.l_bound)) +
         ", \"s_bound\": null},\n";
  out += "    \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const FrontierPoint& point = points[i];
    out += "      {\"k\": " + std::to_string(point.max_failures) +
           ", \"l\": " + std::to_string(point.max_link_failures) +
           ", \"s\": " + std::to_string(point.max_silences) +
           ", \"certified\": ";
    out += point.certified ? "true" : "false";
    if (point.implied) {
      out += ", \"implied\": true";
    } else {
      out += ", \"branches\": " + std::to_string(point.branches);
      out += ", \"counterexamples\": " +
             std::to_string(point.total_counterexamples);
      out += ", \"worst_response\": " + json_number(point.worst_response);
      if (!point.worst_chain_latency.empty()) {
        out += ", \"worst_chain_latency\": [";
        for (std::size_t c = 0; c < point.worst_chain_latency.size(); ++c) {
          if (c > 0) out += ", ";
          out += json_number(point.worst_chain_latency[c]);
        }
        out += "]";
      }
      if (!point.certified) {
        out += ", \"first_counterexample\": " +
               certify_branch_json(point.first_counterexample, arch);
      }
    }
    out += "}";
    out += i + 1 < points.size() ? ",\n" : "\n";
  }
  out += "    ],\n";
  out += "    \"surface\": [";
  for (std::size_t i = 0; i < surface.size(); ++i) {
    if (i > 0) out += ", ";
    out += "{\"k\": " + std::to_string(surface[i].max_failures) +
           ", \"l\": " + std::to_string(surface[i].max_link_failures) +
           ", \"s\": " + std::to_string(surface[i].max_silences) + "}";
  }
  out += "],\n";
  out += "    \"points_explored\": " + std::to_string(points_explored) +
         ",\n";
  out += "    \"points_implied\": " + std::to_string(points_implied) + "\n";
  out += "  }\n}\n";
  return out;
}

std::string FrontierReport::to_text(const ArchitectureGraph& arch) const {
  (void)arch;
  std::string out;
  out += "frontier: K<=" + std::to_string(max_failures) + ", L<=" +
         std::to_string(max_link_failures) + ", S<=" +
         std::to_string(max_silences) + " — " +
         std::to_string(points.size()) + " lattice points, " +
         std::to_string(points_explored) + " explored, " +
         std::to_string(points_implied) + " implied refuted\n";
  out += "gls:      K <= " + std::to_string(gls.k_bound) + ", L <= " +
         (gls.l_unbounded ? std::string("unbounded (no link needed)")
                          : std::to_string(gls.l_bound)) +
         ", S unbounded (no static ceiling)\n";
  for (const LatencyConstraint& c : latency_constraints) {
    out += "chain:    \"" + c.name + "\" (" + c.source_op + " -> " +
           c.sink_op + ") bound " + time_to_string(c.bound) + "\n";
  }
  out += "surface: ";
  if (surface.empty()) {
    out += " none — even (0, 0, 0) is refuted";
  }
  for (const FrontierPoint& point : surface) {
    out += ' ';
    out += point_coords(point);
  }
  out += "\n";
  for (const FrontierPoint& point : points) {
    out += "point " + point_coords(point) + ": ";
    if (point.certified) {
      out += "CERTIFIED, " + std::to_string(point.branches) +
             " branches, worst response " +
             time_to_string(point.worst_response);
    } else if (point.implied) {
      out += "refuted (implied by a dominated point)";
    } else {
      out += "REFUTED, " + std::to_string(point.total_counterexamples) +
             " counterexamples over " + std::to_string(point.branches) +
             " branches";
      if (!point.first_counterexample.violated_constraints.empty()) {
        out += "; violates chain";
        const auto& names = point.first_counterexample.violated_constraints;
        for (std::size_t i = 0; i < names.size(); ++i) {
          out += i > 0 ? ", " : " ";
          out += '"';
          out += names[i];
          out += '"';
        }
      }
    }
    out += "\n";
  }
  return out;
}

}  // namespace ftsched::campaign
