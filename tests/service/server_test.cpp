// certifyd round trips: pipe-mode submit/status/shutdown, the plan-key
// cache answering a repeated isomorphic submission, streamed
// counterexample records, per-request deadlines, error handling on
// malformed requests, and the Unix-domain socket transport.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "io/problem_format.hpp"
#include "obs/json_util.hpp"
#include "obs/metrics.hpp"
#include "service/json.hpp"
#include "service/server.hpp"
#include "workload/paper_examples.hpp"

namespace ftsched::service {
namespace {

/// paper_example1 as an inline problem payload, JSON-escaped.
std::string inline_problem() {
  const workload::OwnedProblem ex = workload::paper_example1();
  return obs::json_string(io::write_problem(ex.problem));
}

std::vector<JsonValue> parse_records(const std::string& text) {
  std::vector<JsonValue> records;
  std::stringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    auto value = parse_json(line);
    EXPECT_TRUE(value.has_value()) << line;
    if (value.has_value()) records.push_back(std::move(value.value()));
  }
  return records;
}

const JsonValue* find_record(const std::vector<JsonValue>& records,
                             const std::string& type,
                             const std::string& id) {
  for (const JsonValue& record : records) {
    if (record.string_or("type", "") == type &&
        record.string_or("id", "") == id) {
      return &record;
    }
  }
  return nullptr;
}

TEST(CertifyService, SubmitMissThenIsomorphicHit) {
  const std::uint64_t hits_before =
      obs::MetricsRegistry::global().counter("service.cache_hits").value();

  CertifyService service(ServeOptions{});
  StringSink sink;
  const std::string problem = inline_problem();
  // Two textually identical submissions — the second must be served from
  // the plan-key cache.
  const std::string submit1 =
      R"({"type":"submit","id":"r1","problem_inline":)" + problem + "}";
  const std::string submit2 =
      R"({"type":"submit","id":"r2","problem_inline":)" + problem + "}";
  EXPECT_TRUE(service.handle_line(submit1, sink));
  EXPECT_TRUE(service.handle_line(submit2, sink));

  const auto records = parse_records(sink.text());
  const JsonValue* first = find_record(records, "result", "r1");
  const JsonValue* second = find_record(records, "result", "r2");
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(first->string_or("cache", ""), "miss");
  EXPECT_EQ(second->string_or("cache", ""), "hit");
  EXPECT_TRUE(first->bool_or("certified", false));
  EXPECT_TRUE(second->bool_or("certified", false));
  EXPECT_EQ(first->string_or("plan_key", "a"),
            second->string_or("plan_key", "b"));
  EXPECT_EQ(first->number_or("branches", -1),
            second->number_or("branches", -2));

  EXPECT_EQ(service.stats().cache_misses, 1u);
  EXPECT_EQ(service.stats().cache_hits, 1u);
  // The cache hit is visible in the service.* metrics of the obs registry.
  EXPECT_EQ(
      obs::MetricsRegistry::global().counter("service.cache_hits").value(),
      hits_before + 1);
}

TEST(CertifyService, RefutedSubmissionStreamsCounterexamples) {
  CertifyService service(ServeOptions{});
  StringSink sink;
  // The non-FT baseline against a K=1 claim: must refute with streamed
  // counterexample records preceding the result.
  const std::string submit =
      R"({"type":"submit","id":"x","heuristic":"base","claim_k":1,)"
      R"("problem_inline":)" +
      inline_problem() + "}";
  EXPECT_TRUE(service.handle_line(submit, sink));

  const auto records = parse_records(sink.text());
  const JsonValue* result = find_record(records, "result", "x");
  ASSERT_NE(result, nullptr);
  EXPECT_FALSE(result->bool_or("certified", true));
  EXPECT_GT(result->number_or("counterexamples", 0), 0);
  const JsonValue* counterexample = find_record(records, "counterexample", "x");
  ASSERT_NE(counterexample, nullptr);
  const JsonValue* branch = counterexample->find("branch");
  ASSERT_NE(branch, nullptr);
  EXPECT_TRUE(branch->is_object());
  // Progress records streamed during certification.
  EXPECT_NE(find_record(records, "progress", "x"), nullptr);
}

TEST(CertifyService, MalformedAndFailingRequestsAnswerErrors) {
  CertifyService service(ServeOptions{});
  StringSink sink;
  EXPECT_TRUE(service.handle_line("this is not json", sink));
  EXPECT_TRUE(service.handle_line(R"({"type":"conjure"})", sink));
  EXPECT_TRUE(service.handle_line(R"({"type":"submit","id":"a"})", sink));
  EXPECT_TRUE(service.handle_line(
      R"({"type":"submit","id":"b","problem":"/nonexistent.ft"})", sink));
  EXPECT_TRUE(service.handle_line(
      R"({"type":"submit","id":"c","heuristic":"quantum",)"
      R"("problem_inline":)" +
          inline_problem() + "}",
      sink));
  const auto records = parse_records(sink.text());
  std::size_t errors = 0;
  for (const JsonValue& record : records) {
    if (record.string_or("type", "") == "error") ++errors;
  }
  EXPECT_EQ(errors, 5u);
  EXPECT_EQ(service.stats().errors, 5u);
  // The service keeps serving after errors.
  EXPECT_TRUE(service.handle_line(R"({"type":"status","id":"s"})", sink));
}

TEST(CertifyService, OutOfRangeIntegerFieldsAnswerErrorsAndKeepServing) {
  CertifyService service(ServeOptions{});
  StringSink sink;
  const std::string problem = inline_problem();
  // Each is refused before any work starts: a negative thread count, a
  // fractional budget, a claim below the -1 sentinel, a count past int.
  for (const char* field :
       {R"("threads":-1)", R"("links":0.5)", R"("claim_k":-2)",
        R"("silences":3000000000)", R"("threads":"4")"}) {
    EXPECT_TRUE(service.handle_line(
        std::string(R"({"type":"submit","id":"bad",)") + field +
            R"(,"problem_inline":)" + problem + "}",
        sink));
  }
  // A valid submit after them is still served.
  EXPECT_TRUE(service.handle_line(
      R"({"type":"submit","id":"ok","problem_inline":)" + problem + "}",
      sink));
  const auto records = parse_records(sink.text());
  std::size_t errors = 0;
  for (const JsonValue& record : records) {
    if (record.string_or("type", "") == "error") ++errors;
  }
  EXPECT_EQ(errors, 5u);
  const JsonValue* result = find_record(records, "result", "ok");
  ASSERT_NE(result, nullptr);
  EXPECT_TRUE(result->bool_or("certified", false));
}

TEST(CertifyService, RequestThreadsClampToTheServersOwn) {
  // A request asking for far more workers than the server runs is served
  // on the server's own threads (certificates do not depend on the count),
  // not by spawning a pool of 200000.
  ServeOptions options;
  options.threads = 2;
  CertifyService service(options);
  StringSink sink;
  EXPECT_TRUE(service.handle_line(
      R"({"type":"submit","id":"many","threads":200000,"problem_inline":)" +
          inline_problem() + "}",
      sink));
  const auto records = parse_records(sink.text());
  const JsonValue* result = find_record(records, "result", "many");
  ASSERT_NE(result, nullptr);
  EXPECT_TRUE(result->bool_or("certified", false));
}

TEST(CertifyService, ChainConstrainedSubmitLabelsItsCounterexamples) {
  CertifyService service(ServeOptions{});
  StringSink sink;
  // An impossibly tight chain on the certified solution: refuted, and
  // every streamed counterexample names the violated constraint.
  const std::string submit =
      R"({"type":"submit","id":"q","latency_constraints":)"
      R"([{"name":"tight","source":"A","sink":"E","bound":0.01}],)"
      R"("problem_inline":)" +
      inline_problem() + "}";
  EXPECT_TRUE(service.handle_line(submit, sink));

  const auto records = parse_records(sink.text());
  const JsonValue* result = find_record(records, "result", "q");
  ASSERT_NE(result, nullptr);
  EXPECT_FALSE(result->bool_or("certified", true));
  const JsonValue* counterexample = find_record(records, "counterexample", "q");
  ASSERT_NE(counterexample, nullptr);
  const JsonValue* branch = counterexample->find("branch");
  ASSERT_NE(branch, nullptr);
  const JsonValue* violated = branch->find("violated");
  ASSERT_NE(violated, nullptr);
  ASSERT_TRUE(violated->is_array());
  ASSERT_EQ(violated->items.size(), 1u);
  EXPECT_EQ(violated->items[0].string, "tight");

  // The constraints are part of the plan: the same problem without them
  // is a different plan key, not a cache hit against the refutation.
  StringSink plain_sink;
  const std::string plain =
      R"({"type":"submit","id":"p","problem_inline":)" + inline_problem() +
      "}";
  EXPECT_TRUE(service.handle_line(plain, plain_sink));
  const auto plain_records = parse_records(plain_sink.text());
  const JsonValue* plain_result = find_record(plain_records, "result", "p");
  ASSERT_NE(plain_result, nullptr);
  EXPECT_EQ(plain_result->string_or("cache", ""), "miss");
  EXPECT_TRUE(plain_result->bool_or("certified", false));
  EXPECT_NE(plain_result->string_or("plan_key", ""),
            result->string_or("plan_key", ""));
}

TEST(CertifyService, MalformedChainConstraintSubmitsAnswerErrors) {
  CertifyService service(ServeOptions{});
  StringSink sink;
  const std::string problem = inline_problem();
  const auto submit = [&](const char* id, const std::string& constraints) {
    EXPECT_TRUE(service.handle_line(
        std::string(R"({"type":"submit","id":")") + id +
            R"(","latency_constraints":)" + constraints +
            R"(,"problem_inline":)" + problem + "}",
        sink));
  };
  // Shape errors caught by the protocol parser...
  submit("a", R"([{"source":"A","sink":"E","bound":5}])");
  submit("b", R"([{"name":"c","source":"A","sink":"E"}])");
  submit("c", R"([{"name":"c","source":"A","sink":"E","bound":0}])");
  submit("d", R"(["not an object"])");
  // ...and semantic errors caught by the resolver against the schedule.
  submit("e", R"([{"name":"c","source":"Zeta","sink":"E","bound":5}])");
  submit("f", R"([{"name":"c","source":"A","sink":"E","bound":5},)"
              R"({"name":"c","source":"I","sink":"O","bound":9}])");

  const auto records = parse_records(sink.text());
  // Shape errors are refused by the request parser (no id yet); the
  // resolver's semantic errors answer under the request's own id. Either
  // way: an error record, never a result.
  std::size_t errors = 0;
  for (const JsonValue& record : records) {
    if (record.string_or("type", "") == "error") ++errors;
    EXPECT_NE(record.string_or("type", ""), "result");
  }
  EXPECT_EQ(errors, 6u);
  for (const char* id : {"e", "f"}) {
    EXPECT_NE(find_record(records, "error", id), nullptr) << id;
  }
  EXPECT_EQ(service.stats().errors, 6u);
  // The service keeps serving after every refusal.
  EXPECT_TRUE(service.handle_line(R"({"type":"status","id":"s"})", sink));
}

TEST(CertifyService, DeadlineCancelsAndSkipsCache) {
  CertifyService service(ServeOptions{});
  StringSink sink;
  // deadline_ms tiny but nonzero: the expiry hook fires before the first
  // task (steady_clock has already advanced by scheduling time).
  const std::string submit =
      R"({"type":"submit","id":"d","deadline_ms":1e-9,"problem_inline":)" +
      inline_problem() + "}";
  EXPECT_TRUE(service.handle_line(submit, sink));
  const auto records = parse_records(sink.text());
  const JsonValue* error = find_record(records, "error", "d");
  ASSERT_NE(error, nullptr);
  EXPECT_NE(error->string_or("message", "").find("deadline"),
            std::string::npos);
  EXPECT_EQ(find_record(records, "result", "d"), nullptr);
  EXPECT_EQ(service.stats().deadline_exceeded, 1u);
  // An abandoned run must not poison the cache: a re-submit without the
  // deadline is a miss, then completes.
  StringSink retry;
  const std::string resubmit =
      R"({"type":"submit","id":"d2","problem_inline":)" + inline_problem() +
      "}";
  EXPECT_TRUE(service.handle_line(resubmit, retry));
  const auto retry_records = parse_records(retry.text());
  const JsonValue* result = find_record(retry_records, "result", "d2");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->string_or("cache", ""), "miss");
}

TEST(ServeLines, PipeModeRoundTrip) {
  std::stringstream in;
  in << R"({"type":"submit","id":"p1","problem_inline":)" << inline_problem()
     << "}\n"
     << R"({"type":"status","id":"p2"})" << "\n"
     << R"({"type":"shutdown","id":"p3"})" << "\n"
     << R"({"type":"status","id":"never"})" << "\n";
  std::stringstream out;
  EXPECT_EQ(serve_lines(in, out, ServeOptions{}), 0);
  const auto records = parse_records(out.str());
  EXPECT_NE(find_record(records, "result", "p1"), nullptr);
  const JsonValue* status = find_record(records, "status", "p2");
  ASSERT_NE(status, nullptr);
  EXPECT_EQ(status->number_or("submits", -1), 1);
  EXPECT_NE(find_record(records, "bye", "p3"), nullptr);
  // Shutdown stops the loop: the trailing status is never answered.
  EXPECT_EQ(find_record(records, "status", "never"), nullptr);
}

TEST(ServeLines, StopFlagDrainsBeforeNextRequest) {
  // With the stop flag already set (SIGINT arrived), the loop exits
  // before reading a request.
  std::atomic<bool> stop{true};
  ServeOptions options;
  options.stop = &stop;
  std::stringstream in(R"({"type":"status","id":"s"})" "\n");
  std::stringstream out;
  EXPECT_EQ(serve_lines(in, out, options), 0);
  EXPECT_TRUE(out.str().empty());
}

/// Connects to a Unix socket, retrying while the listener comes up.
/// Returns -1 after ~2 s of refusals.
int connect_with_retry(const std::string& path) {
  for (int attempt = 0; attempt < 200; ++attempt) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) == 0) {
      return fd;
    }
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return -1;
}

/// Reads records from an open connection until one of `type` with `id`
/// arrives (the connection stays open, so EOF is not the frame boundary).
JsonValue read_record(int fd, const std::string& type,
                      const std::string& id) {
  std::string buffer;
  char chunk[4096];
  for (;;) {
    std::size_t nl;
    while ((nl = buffer.find('\n')) != std::string::npos) {
      const std::string line = buffer.substr(0, nl);
      buffer.erase(0, nl + 1);
      if (line.empty()) continue;
      auto value = parse_json(line);
      EXPECT_TRUE(value.has_value()) << line;
      if (value.has_value() && value.value().string_or("type", "") == type &&
          value.value().string_or("id", "") == id) {
        return std::move(value.value());
      }
    }
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  return JsonValue{};
}

TEST(ServeSocket, UnixDomainSocketRoundTrip) {
  const std::string path =
      "/tmp/ftsched_certifyd_test_" + std::to_string(::getpid()) + ".sock";
  ServeOptions options;
  std::thread server([&] { serve_socket(path, options); });

  const int fd = connect_with_retry(path);
  ASSERT_GE(fd, 0) << "could not connect to " << path;

  const std::string request =
      R"({"type":"submit","id":"u1","problem_inline":)" + inline_problem() +
      "}\n" + R"({"type":"shutdown","id":"u2"})" + "\n";
  ASSERT_EQ(::write(fd, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));

  std::string response;
  char chunk[4096];
  ssize_t n;
  while ((n = ::read(fd, chunk, sizeof chunk)) > 0) {
    response.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  server.join();

  const auto records = parse_records(response);
  const JsonValue* result = find_record(records, "result", "u1");
  ASSERT_NE(result, nullptr);
  EXPECT_TRUE(result->bool_or("certified", false));
  EXPECT_NE(find_record(records, "bye", "u2"), nullptr);
}

TEST(ServeSocket, WorkerPoolServesConcurrentConnections) {
  const std::string path =
      "/tmp/ftsched_certifyd_pool_" + std::to_string(::getpid()) + ".sock";
  ServeOptions options;
  options.serve_threads = 3;
  std::thread server([&] { serve_socket(path, options); });

  // Three clients hold their connections open simultaneously — with a
  // single sequential worker this would deadlock below, because every
  // client only sends its submit once all three are connected.
  int fds[3];
  for (int& fd : fds) {
    fd = connect_with_retry(path);
    ASSERT_GE(fd, 0) << "could not connect to " << path;
  }

  // Three distinct plan keys, so the cache outcome is deterministic no
  // matter how the workers interleave: base differs by schedule, and the
  // third differs by response bound (part of the key) even if the two
  // solution heuristics happened to produce identical schedules.
  const std::string problem = inline_problem();
  const char* extras[3] = {R"("heuristic":"base")",
                           R"("heuristic":"solution1")",
                           R"("heuristic":"solution2","response_bound":1000)"};
  for (int c = 0; c < 3; ++c) {
    const std::string submit =
        std::string(R"({"type":"submit","id":"c)") + std::to_string(c) +
        R"(","claim_k":1,)" + extras[c] +
        R"(,"problem_inline":)" + problem + "}\n";
    ASSERT_EQ(::write(fds[c], submit.data(), submit.size()),
              static_cast<ssize_t>(submit.size()));
  }
  for (int c = 0; c < 3; ++c) {
    const JsonValue result =
        read_record(fds[c], "result", std::string("c") + std::to_string(c));
    ASSERT_TRUE(result.is_object()) << "client " << c;
    // base cannot mask K=1; both solutions certify.
    EXPECT_EQ(result.bool_or("certified", c == 0), c != 0);
    EXPECT_EQ(result.string_or("cache", ""), "miss");
    ::close(fds[c]);
  }

  // Counter deltas merge per completed request; results can be read a
  // moment before the writer's merge lands, so poll the status until all
  // three submits are visible. Totals must come out exact — merged
  // deltas, not interleaved per-field updates.
  const int fd = connect_with_retry(path);
  ASSERT_GE(fd, 0);
  JsonValue status;
  for (int attempt = 0; attempt < 200; ++attempt) {
    const std::string ask_id = std::string("s") + std::to_string(attempt);
    const std::string ask =
        std::string(R"({"type":"status","id":")") + ask_id + "\"}\n";
    ASSERT_EQ(::write(fd, ask.data(), ask.size()),
              static_cast<ssize_t>(ask.size()));
    status = read_record(fd, "status", ask_id);
    ASSERT_TRUE(status.is_object());
    if (status.number_or("submits", 0) == 3) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(status.number_or("submits", -1), 3);
  EXPECT_EQ(status.number_or("cache_misses", -1), 3);
  EXPECT_EQ(status.number_or("cache_hits", -1), 0);
  EXPECT_EQ(status.number_or("errors", -1), 0);
  EXPECT_EQ(status.number_or("cache_entries", -1), 3);

  const std::string bye = R"({"type":"shutdown","id":"z"})" "\n";
  ASSERT_EQ(::write(fd, bye.data(), bye.size()),
            static_cast<ssize_t>(bye.size()));
  EXPECT_TRUE(read_record(fd, "bye", "z").is_object());
  ::close(fd);
  server.join();
}

}  // namespace
}  // namespace ftsched::service
