#include "service/server.hpp"

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <chrono>
#include <cstring>
#include <deque>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "campaign/certify.hpp"
#include "campaign/work_pool.hpp"
#include "io/cli_util.hpp"
#include "io/problem_format.hpp"
#include "obs/json_util.hpp"
#include "sched/heuristics.hpp"
#include "service/json.hpp"

namespace ftsched::service {
namespace {

using obs::json_string;

std::string wire_time_or_null(Time t) {
  return obs::json_number(t);  // non-finite renders as null
}

bool parse_heuristic(const std::string& name, HeuristicKind& kind) {
  if (name == "base") {
    kind = HeuristicKind::kBase;
  } else if (name == "solution1") {
    kind = HeuristicKind::kSolution1;
  } else if (name == "solution2") {
    kind = HeuristicKind::kSolution2;
  } else {
    return false;
  }
  return true;
}

bool stopped(const ServeOptions& options) {
  return options.stop != nullptr &&
         options.stop->load(std::memory_order_relaxed);
}

class FdSink : public RecordSink {
 public:
  explicit FdSink(int fd) : fd_(fd) {}
  void write(std::string_view line) override {
    std::string framed(line);
    framed.push_back('\n');
    std::size_t off = 0;
    while (off < framed.size()) {
      const ssize_t n =
          ::write(fd_, framed.data() + off, framed.size() - off);
      if (n < 0) {
        if (errno == EINTR) continue;
        return;  // peer went away; records to a dead client are dropped
      }
      off += static_cast<std::size_t>(n);
    }
  }

 private:
  int fd_;
};

}  // namespace

CertifyService::CertifyService(const ServeOptions& options)
    : options_(options), cache_(options.cache_capacity) {}

ServiceStats CertifyService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

/// Merges one finished request's counter delta into the shared totals.
/// One lock, whole delta: the totals only ever advance by complete
/// per-request contributions.
void CertifyService::merge(const ServiceStats& delta) {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.requests += delta.requests;
  stats_.submits += delta.submits;
  stats_.cache_hits += delta.cache_hits;
  stats_.cache_misses += delta.cache_misses;
  stats_.deadline_exceeded += delta.deadline_exceeded;
  stats_.errors += delta.errors;
}

void CertifyService::emit_error(RecordSink& sink, const std::string& id,
                                const std::string& message,
                                ServiceStats& delta) {
  ++delta.errors;
  sink.write("{\"type\":\"error\",\"id\":" + json_string(id) +
             ",\"message\":" + json_string(message) + "}");
}

void CertifyService::write_status(RecordSink& sink,
                                  const std::string& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"type\":\"status\",\"id\":" + json_string(id);
  out += ",\"requests\":" + std::to_string(stats_.requests);
  out += ",\"submits\":" + std::to_string(stats_.submits);
  out += ",\"cache_hits\":" + std::to_string(stats_.cache_hits);
  out += ",\"cache_misses\":" + std::to_string(stats_.cache_misses);
  out += ",\"cache_entries\":" + std::to_string(cache_.size());
  out += ",\"cache_capacity\":" + std::to_string(cache_.capacity());
  out += ",\"deadline_exceeded\":" +
         std::to_string(stats_.deadline_exceeded);
  out += ",\"errors\":" + std::to_string(stats_.errors);
  out += "}";
  sink.write(out);
}

bool CertifyService::handle_line(std::string_view line, RecordSink& sink) {
  ServiceStats delta;
  ++delta.requests;
  bool serving = true;
  auto request = parse_request(line);
  if (!request.has_value()) {
    emit_error(sink, "", request.error().message, delta);
  } else {
    switch (request.value().kind) {
      case Request::Kind::kShutdown:
        sink.write("{\"type\":\"bye\",\"id\":" +
                   json_string(request.value().id) + "}");
        serving = false;
        break;
      case Request::Kind::kStatus:
        write_status(sink, request.value().id);
        break;
      case Request::Kind::kSubmit:
        handle_submit(request.value().submit, sink, delta);
        break;
    }
  }
  merge(delta);
  return serving;
}

void CertifyService::handle_submit(const SubmitRequest& submit,
                                   RecordSink& sink, ServiceStats& delta) {
  ++delta.submits;

  std::string text = submit.problem_inline;
  if (!submit.problem_path.empty()) {
    std::optional<std::string> file = io::read_file(submit.problem_path);
    if (!file) {
      emit_error(sink, submit.id,
                 "cannot open problem file " + submit.problem_path, delta);
      return;
    }
    text = std::move(*file);
  }
  Expected<workload::OwnedProblem> parsed = io::read_problem(text);
  if (!parsed.has_value()) {
    emit_error(sink, submit.id, "problem: " + parsed.error().message, delta);
    return;
  }
  const workload::OwnedProblem owned = std::move(parsed).value();

  HeuristicKind kind = HeuristicKind::kSolution1;
  if (!parse_heuristic(submit.heuristic, kind)) {
    emit_error(sink, submit.id,
               "unknown heuristic \"" + submit.heuristic +
                   "\" (base | solution1 | solution2)",
               delta);
    return;
  }
  const Expected<Schedule> scheduled = schedule(owned.problem, kind);
  if (!scheduled.has_value()) {
    emit_error(sink, submit.id,
               "scheduling failed: " + scheduled.error().message, delta);
    return;
  }
  const Schedule& sched = scheduled.value();
  const ArchitectureGraph& arch = *owned.problem.architecture;

  campaign::CertifySpec spec;
  spec.max_failures = submit.claim_k;
  spec.max_link_failures = submit.links;
  spec.max_silences = submit.silences;
  spec.response_bound = submit.response_bound;
  spec.latency_constraints = submit.latency_constraints;
  // A request may ask for fewer workers than the server runs, never more:
  // certificates do not depend on the thread count, only speed does.
  const unsigned server_threads = campaign::resolve_threads(options_.threads);
  spec.threads = submit.threads != 0
                     ? std::min(submit.threads, server_threads)
                     : options_.threads;

  // Resolve chain constraints against the schedule before acking: a
  // malformed spec (endpoint not in the graph, replica-less op, bad
  // bound) is a client error record, not a mid-certification throw.
  if (!spec.latency_constraints.empty()) {
    try {
      (void)campaign::resolve_latency_constraints(sched,
                                                  spec.latency_constraints);
    } catch (const std::invalid_argument& error) {
      emit_error(sink, submit.id, error.what(), delta);
      return;
    }
  }

  const std::string key = plan_key_string(sched, spec);
  const campaign::CertifySweep sweep = campaign::certify_sweep(sched, spec);
  sink.write("{\"type\":\"ack\",\"id\":" + json_string(submit.id) +
             ",\"plan_key\":" + json_string(key) +
             ",\"tasks\":" + std::to_string(sweep.tasks) + "}");

  const auto result_record = [&](const CachedResult& result,
                                 const char* origin) {
    std::string out = "{\"type\":\"result\",\"id\":" + json_string(submit.id);
    out += ",\"plan_key\":" + json_string(key);
    out += ",\"cache\":" + json_string(origin);
    out += ",\"certified\":";
    out += result.certified ? "true" : "false";
    out += ",\"branches\":" + std::to_string(result.branches);
    out += ",\"counterexamples\":" +
           std::to_string(result.total_counterexamples);
    out += ",\"worst_response\":" + wire_time_or_null(result.worst_response);
    out += ",\"certificate_bytes\":" +
           std::to_string(result.certificate_json.size());
    out += "}";
    sink.write(out);
  };

  const auto write_certificate = [&](const CachedResult& result) {
    if (submit.certificate_out.empty() ||
        io::write_file(submit.certificate_out, result.certificate_json)) {
      return true;
    }
    emit_error(sink, submit.id, "cannot write " + submit.certificate_out,
               delta);
    return false;
  };

  const std::optional<CachedResult> hit = cache_.get(key);
  if (hit.has_value()) {
    ++delta.cache_hits;
    if (!write_certificate(*hit)) return;
    result_record(*hit, "hit");
    return;
  }
  ++delta.cache_misses;

  const auto start = std::chrono::steady_clock::now();
  const auto expired = [&] {
    if (submit.deadline_ms <= 0) return false;
    const auto elapsed = std::chrono::duration<double, std::milli>(
        std::chrono::steady_clock::now() - start);
    return elapsed.count() > submit.deadline_ms;
  };

  campaign::CertifyMerger merger(sweep, spec);
  std::size_t streamed_counterexamples = 0;
  std::size_t branches_so_far = 0;
  std::size_t counterexamples_so_far = 0;
  const bool completed = campaign::certify_shard(
      sched, spec, campaign::CertifyShardSpec{},
      [&](campaign::CertifyTaskPartial&& partial) {
        branches_so_far += partial.branches;
        counterexamples_so_far += partial.total_counterexamples;
        for (const campaign::CertifyBranch& branch :
             partial.counterexamples) {
          if (streamed_counterexamples >= spec.max_counterexamples) break;
          ++streamed_counterexamples;
          sink.write("{\"type\":\"counterexample\",\"id\":" +
                     json_string(submit.id) +
                     ",\"task\":" + std::to_string(partial.task_index) +
                     ",\"branch\":" + write_branch(branch) + "}");
        }
        if (options_.progress) {
          sink.write("{\"type\":\"progress\",\"id\":" +
                     json_string(submit.id) +
                     ",\"task\":" + std::to_string(partial.task_index) +
                     ",\"tasks\":" + std::to_string(sweep.tasks) +
                     ",\"branches\":" + std::to_string(branches_so_far) +
                     ",\"counterexamples\":" +
                     std::to_string(counterexamples_so_far) + "}");
        }
        merger.add(std::move(partial));
      },
      expired);

  if (!completed) {
    ++delta.deadline_exceeded;
    emit_error(sink, submit.id,
               "deadline of " + std::to_string(submit.deadline_ms) +
                   " ms exceeded; certification abandoned",
               delta);
    return;
  }

  campaign::CertifyReport report = merger.finish();
  CachedResult result;
  result.certified = report.certified;
  result.branches = report.branches;
  result.total_counterexamples = report.total_counterexamples;
  result.worst_response = report.worst_response;
  result.certificate_json = report.to_json(arch);
  cache_.put(key, result);
  if (!write_certificate(result)) return;
  result_record(result, "miss");
}

int serve_lines(std::istream& in, std::ostream& out,
                const ServeOptions& options) {
  CertifyService service(options);
  OstreamSink sink(out);
  std::string line;
  while (!stopped(options) && std::getline(in, line)) {
    if (line.empty()) continue;
    if (!service.handle_line(line, sink)) break;
  }
  return 0;
}

namespace {

/// Serves one accepted connection until EOF, a shutdown request, or the
/// server-wide shutdown/stop flags. Reads poll with a timeout so a worker
/// holding an idle connection notices a shutdown initiated elsewhere and
/// releases itself — without that, joining the pool could hang forever on
/// a silent client.
void serve_connection(CertifyService& service, int conn,
                      std::atomic<bool>& shutdown,
                      const ServeOptions& options) {
  FdSink sink(conn);
  std::string buffer;
  char chunk[4096];
  while (!shutdown.load(std::memory_order_relaxed) && !stopped(options)) {
    pollfd pfd{conn, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 100);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) continue;  // timeout or EINTR: re-check the flags
    const ssize_t n = ::read(conn, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t nl;
    while ((nl = buffer.find('\n')) != std::string::npos) {
      const std::string line = buffer.substr(0, nl);
      buffer.erase(0, nl + 1);
      if (line.empty()) continue;
      if (!service.handle_line(line, sink)) {
        shutdown.store(true, std::memory_order_relaxed);
        return;
      }
    }
  }
}

}  // namespace

int serve_socket(const std::string& path, const ServeOptions& options) {
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) {
    std::perror("certifyd: socket");
    return 2;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    std::fprintf(stderr, "certifyd: socket path too long: %s\n",
                 path.c_str());
    ::close(listener);
    return 2;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ::unlink(path.c_str());  // replace a stale socket file
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listener, 8) != 0) {
    std::perror("certifyd: bind/listen");
    ::close(listener);
    return 2;
  }

  // One service for the whole server lifetime: the plan-key cache is
  // shared across all connections and workers, which is the point of the
  // daemon. Workers pull accepted connections from a queue; with the
  // default single worker this is the classic sequential accept loop.
  CertifyService service(options);
  std::atomic<bool> shutdown{false};
  std::mutex queue_mu;
  std::condition_variable queue_cv;
  std::deque<int> queued;
  bool accepting = true;

  const unsigned pool = options.serve_threads != 0 ? options.serve_threads : 1;
  std::vector<std::thread> workers;
  workers.reserve(pool);
  for (unsigned w = 0; w < pool; ++w) {
    workers.emplace_back([&] {
      for (;;) {
        int conn = -1;
        {
          std::unique_lock<std::mutex> lock(queue_mu);
          queue_cv.wait(lock,
                        [&] { return !accepting || !queued.empty(); });
          if (queued.empty()) return;
          conn = queued.front();
          queued.pop_front();
        }
        serve_connection(service, conn, shutdown, options);
        ::close(conn);
      }
    });
  }

  while (!shutdown.load(std::memory_order_relaxed) && !stopped(options)) {
    // Poll with a timeout so a shutdown served on a worker thread (or
    // SIGINT) stops the accept loop even when no new client arrives.
    pollfd pfd{listener, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 100);
    if (ready < 0 && errno != EINTR) {
      std::perror("certifyd: poll");
      break;
    }
    if (ready <= 0) continue;
    const int conn = ::accept(listener, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) continue;  // SIGINT: loop re-checks the flag
      std::perror("certifyd: accept");
      break;
    }
    {
      std::lock_guard<std::mutex> lock(queue_mu);
      queued.push_back(conn);
    }
    queue_cv.notify_one();
  }

  {
    std::lock_guard<std::mutex> lock(queue_mu);
    accepting = false;
  }
  queue_cv.notify_all();
  for (std::thread& worker : workers) worker.join();

  ::close(listener);
  ::unlink(path.c_str());
  return 0;
}

}  // namespace ftsched::service
