// The command-line contract of campaign_tool, schedule_tool, trace_tool and
// tradeoff_explorer, checked on the built binaries run as subprocesses: the
// exit-code table (0 clean or certified, 1 refuted, 2 usage error, 3 bad
// input), the bytes each output flag writes (compared with the committed
// data/golden/ files or across thread counts), the --plan-key line,
// --trace-out and the stderr diagnostics. Verdicts, thread
// counts and partitions are pinned in process by the campaign and service
// suites. Each test writes into its own temp directory, so the suite is
// safe under `ctest -j`.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "../obs/json_check.hpp"

namespace {

namespace fs = std::filesystem;

std::string read_file(const std::string& path) {
  std::ifstream file(path);
  std::stringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

const std::string kCertifyK2 =
    std::string(FTSCHED_SOURCE_DIR) + "/data/certify_k2.ft";

std::string golden(const std::string& name) {
  return read_file(std::string(FTSCHED_SOURCE_DIR) + "/data/golden/" + name);
}

bool valid_json(const std::string& text) {
  return ftsched::testing::JsonChecker(text).valid();
}

bool contains(const std::string& text, const std::string& part) {
  return text.find(part) != std::string::npos;
}

/// The distinct "tid" values of a Chrome trace: one per thread that
/// recorded a span.
std::set<std::string> trace_tids(const std::string& trace) {
  const std::string key = "\"tid\": ";
  std::set<std::string> tids;
  for (std::size_t at = trace.find(key); at != std::string::npos;
       at = trace.find(key, at + 1)) {
    const std::size_t begin = at + key.size();
    tids.insert(trace.substr(begin, trace.find_first_of(",}", begin) - begin));
  }
  return tids;
}

/// The first line of `text` containing `part` (empty when none does).
std::string line_with(const std::string& text, const std::string& part) {
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    if (contains(line, part)) return line;
  }
  return "";
}

/// What one tool invocation left behind.
struct Outcome {
  /// The exit code; 128 + the signal number when a signal ended the run.
  int status = -1;
  std::string out;
  std::string err;
};

class Cli : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string test =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    dir_ = fs::temp_directory_path() /
           ("ftsched_cli_" + test + "_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }

  void TearDown() override { fs::remove_all(dir_); }

  /// A file in this test's temp directory.
  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  /// Runs `tool` with `args` and `input` on stdin. A run still alive after
  /// `seconds` dies of SIGALRM, so a hang fails the test instead of
  /// stalling the suite.
  [[nodiscard]] Outcome run(const char* tool,
                            const std::vector<std::string>& args,
                            const std::string& input = "",
                            unsigned seconds = 120) const {
    const std::string in = path("stdin");
    const std::string out = path("stdout");
    const std::string err = path("stderr");
    std::ofstream(in) << input;
    std::vector<char*> argv{const_cast<char*>(tool)};
    for (const std::string& arg : args) {
      argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);

    const pid_t pid = ::fork();
    if (pid == 0) {
      // Only async-signal-safe calls until exec; the alarm survives it.
      ::dup2(::open(in.c_str(), O_RDONLY), 0);
      ::dup2(::open(out.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644), 1);
      ::dup2(::open(err.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644), 2);
      ::alarm(seconds);
      ::execv(tool, argv.data());
      ::_exit(127);
    }
    Outcome result;
    int status = 0;
    if (pid < 0 || ::waitpid(pid, &status, 0) != pid) return result;
    result.status =
        WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
    result.out = read_file(out);
    result.err = read_file(err);
    return result;
  }

  [[nodiscard]] Outcome campaign(const std::vector<std::string>& args,
                                 const std::string& input = "") const {
    return run(FTSCHED_CAMPAIGN_TOOL, args, input);
  }

  /// campaign_tool's exit code for `args`.
  [[nodiscard]] int status(const std::vector<std::string>& args) const {
    return campaign(args).status;
  }

  fs::path dir_;
};

TEST_F(Cli, CleanCampaignsAndCertifiedClaimsExitZero) {
  EXPECT_EQ(0, status({"--example1", "--solution1", "--seed", "42",
                       "--scenarios", "5000"}));
  EXPECT_EQ(0, status({"--example2", "--solution2", "--seed", "7",
                       "--scenarios", "1000", "--threads", "4"}));
  // Never more helper threads than there are chunks to run.
  EXPECT_EQ(0, status({"--example1", "--solution1", "--scenarios", "200",
                       "--threads", "100000"}));
  const std::string cert = path("example2.json");
  EXPECT_EQ(0, status({"--example2", "--solution2", "--certify",
                       "--certify-out", cert}));
  EXPECT_TRUE(valid_json(read_file(cert)));
}

TEST_F(Cli, MetricsOutIsByteIdenticalAcrossThreadCounts) {
  // A clean campaign; one with link faults, silences, suspicions and the
  // response-ratio histogram; and a refuted claim that counts violations.
  struct Case {
    std::vector<std::string> args;
    int exit_code;
    const char* golden;
  };
  const std::vector<Case> cases = {
      {{"--example1", "--solution1", "--seed", "42", "--scenarios", "5000"},
       0,
       "example1_solution1.metrics.json"},
      {{"--example2", "--solution2", "--links", "--silence", "--suspects",
        "--iterations", "4", "--seed", "7", "--scenarios", "3000"},
       0,
       "example2_solution2_links.metrics.json"},
      {{"--example1", "--base", "--claim-k", "1", "--seed", "3",
        "--scenarios", "300"},
       1,
       "example1_base_claim1.metrics.json"},
  };
  const std::string out = path("metrics.json");
  for (const Case& c : cases) {
    const std::string expected = golden(c.golden);
    EXPECT_TRUE(valid_json(expected)) << c.golden;
    for (const char* threads : {"1", "8"}) {
      fs::remove(out);  // each run must write its own bytes
      std::vector<std::string> args = c.args;
      args.insert(args.end(), {"--threads", threads, "--metrics-out", out});
      EXPECT_EQ(c.exit_code, status(args)) << c.golden;
      EXPECT_EQ(read_file(out), expected)
          << c.golden << ", " << threads << " threads";
    }
  }
}

TEST_F(Cli, CertifyOutWritesTheGoldenCertificates) {
  const std::string cert = path("cert.json");
  for (const char* threads : {"1", "8"}) {
    fs::remove(cert);  // each run must write its own bytes
    EXPECT_EQ(0, status({"--example1", "--solution1", "--certify",
                         "--threads", threads, "--certify-out", cert}));
    EXPECT_EQ(read_file(cert), golden("example1_solution1.cert.json"))
        << threads << " threads";
  }
  EXPECT_EQ(0, status({kCertifyK2, "--solution2", "--certify", "--threads",
                       "1", "--certify-out", cert}));
  EXPECT_EQ(read_file(cert), golden("certify_k2.cert.json"));
}

TEST_F(Cli, RefutedClaimsExitOneWithAValidCertificate) {
  const std::vector<std::vector<std::string>> refuted = {
      {"--example1", "--base", "--claim-k", "1", "--certify"},
      {kCertifyK2, "--solution2", "--certify-links", "1"},
      {kCertifyK2, "--solution2", "--claim-k", "1", "--certify-links", "1"},
      {"--example2", "--solution2", "--claim-k", "3", "--certify"},
      {kCertifyK2, "--solution2", "--claim-k", "3", "--certify"},
  };
  const std::string cert = path("refuted.json");
  for (std::vector<std::string> args : refuted) {
    fs::remove(cert);
    args.insert(args.end(), {"--certify-out", cert});
    EXPECT_EQ(1, status(args)) << ::testing::PrintToString(args);
    EXPECT_TRUE(valid_json(read_file(cert)));
    // The K=3 sweeps' work, pinned exactly: example 2 clamps K to N-1 = 2.
    if (args[0] == "--example2") {
      EXPECT_TRUE(contains(read_file(cert), "\"branches\": 1058,"));
    }
  }
  // The last run's 4-processor workload really sweeps K=3: no clamp to
  // N-1 applies.
  EXPECT_TRUE(contains(read_file(cert), "\"max_failures\": 3"));
  EXPECT_TRUE(contains(read_file(cert), "\"branches\": 462267,"));
}

TEST_F(Cli, ChainRefutationNamesTheViolatedChain) {
  const std::string cert = path("chain.json");
  const Outcome result = campaign(
      {"--example1", "--solution1", "--certify", "--latency", "spine:A:E:1",
       "--latency", "mission:I:O:100", "--certify-out", cert});
  EXPECT_EQ(result.status, 1);
  EXPECT_TRUE(contains(result.out, "violates chain \"spine\""));
  EXPECT_TRUE(contains(line_with(result.out, "# still fails: "),
                       "chain \"spine\""))
      << result.out;
  EXPECT_TRUE(
      contains(read_file(cert), "\"violated_constraints\": [\"spine\"]"));
}

TEST_F(Cli, RepairOutWritesTheGoldenLog) {
  // One log per move phase: solution-2 root-blocker attacks and the
  // pin-chain fallback; a chain-latency violation; a pure response
  // violation (the activate-every-passive-chain fallback); and solution-1
  // root-blocker attacks, which add activate-comm proposals, and pin-chain.
  struct Case {
    std::vector<std::string> args;
    int exit_code;
    const char* golden;
  };
  const std::vector<Case> cases = {
      {{kCertifyK2, "--solution2", "--claim-k", "1", "--certify-links", "1"},
       0,
       "certify_k2_repair.json"},
      {{"--example1", "--solution1", "--latency", "spine:A:E:5"},
       1,
       "example1_solution1_latency_repair.json"},
      {{"--example1", "--solution1", "--certify-silences", "1",
        "--response-bound", "10"},
       1,
       "example1_solution1_silence_repair.json"},
      {{kCertifyK2, "--solution1", "--claim-k", "1", "--certify-links", "1"},
       0,
       "certify_k2_solution1_repair.json"},
  };
  const std::string log = path("repair.json");
  for (const Case& c : cases) {
    const std::string expected = golden(c.golden);
    EXPECT_TRUE(valid_json(expected)) << c.golden;
    for (const char* threads : {"1", "8"}) {
      fs::remove(log);  // each run must write its own bytes
      std::vector<std::string> args = c.args;
      args.insert(args.end(),
                  {"--repair", "--threads", threads, "--repair-out", log});
      EXPECT_EQ(c.exit_code, status(args)) << c.golden;
      EXPECT_EQ(read_file(log), expected)
          << c.golden << ", " << threads << " threads";
    }
  }
}

TEST_F(Cli, FrontierOutWritesTheGoldenReports) {
  const std::string report = path("frontier.json");
  EXPECT_EQ(0, status({"--example1", "--solution1", "--frontier",
                       "--frontier-out", report}));
  EXPECT_EQ(read_file(report), golden("example1_solution1.frontier.json"));
  EXPECT_EQ(0, status({"--example2", "--solution2", "--frontier",
                       "--frontier-out", report}));
  EXPECT_EQ(read_file(report), golden("example2_solution2.frontier.json"));
}

TEST_F(Cli, ShardStreamsMergeToTheGoldenCertificate) {
  for (const char* shard : {"0/1", "0/2", "1/2"}) {
    const std::string stream =
        path(std::string("shard") + shard[0] + shard[2] + ".ndjson");
    EXPECT_EQ(0, status({kCertifyK2, "--solution2", "--certify-shard", shard,
                         "--stream-out", stream}))
        << shard;
  }
  EXPECT_EQ(0, status({kCertifyK2, "--solution2", "--merge-stream",
                       path("shard02.ndjson"), "--merge-stream",
                       path("shard12.ndjson"), "--certify-out",
                       path("merged2.json")}));
  EXPECT_EQ(read_file(path("merged2.json")), golden("certify_k2.cert.json"));
  EXPECT_EQ(0, status({kCertifyK2, "--solution2", "--merge-stream",
                       path("shard01.ndjson"), "--certify-out",
                       path("merged1.json")}));
  EXPECT_EQ(read_file(path("merged1.json")), golden("certify_k2.cert.json"));

  // A stream cut after its third record is refused, not merged.
  const std::string whole = read_file(path("shard01.ndjson"));
  std::size_t cut = 0;
  for (int record = 0; record < 3; ++record) cut = whole.find('\n', cut) + 1;
  std::ofstream(path("cut.ndjson")) << whole.substr(0, cut);
  EXPECT_EQ(3, status({kCertifyK2, "--solution2", "--merge-stream",
                       path("cut.ndjson")}));
}

TEST_F(Cli, ServeAnswersMissThenHitUnderThePrintedPlanKey) {
  const Outcome key = campaign({kCertifyK2, "--solution2", "--plan-key"});
  EXPECT_EQ(key.status, 0);
  ASSERT_EQ(key.out.rfind("pk-", 0), 0u) << key.out;
  ASSERT_EQ(key.out.find('\n'), key.out.size() - 1) << key.out;
  const std::string plan_key = key.out.substr(0, key.out.size() - 1);

  std::string requests;
  for (const std::string id : {"a", "b"}) {
    requests += "{\"type\":\"submit\",\"id\":\"" + id + "\",\"problem\":\"" +
                kCertifyK2 +
                "\",\"heuristic\":\"solution2\",\"certificate_out\":\"" +
                path("served_" + id + ".json") + "\"}\n";
  }
  requests +=
      "{\"type\":\"status\",\"id\":\"s\"}\n"
      "{\"type\":\"shutdown\",\"id\":\"z\"}\n";
  const Outcome served = campaign({"--serve"}, requests);
  EXPECT_EQ(served.status, 0);
  const std::string miss = line_with(served.out, "\"result\",\"id\":\"a\"");
  const std::string hit = line_with(served.out, "\"result\",\"id\":\"b\"");
  EXPECT_TRUE(contains(miss, "\"cache\":\"miss\"")) << served.out;
  EXPECT_TRUE(contains(hit, "\"cache\":\"hit\"")) << served.out;
  EXPECT_TRUE(contains(hit, "\"plan_key\":\"" + plan_key + "\""));
  EXPECT_TRUE(contains(line_with(served.out, "\"type\":\"status\""),
                       "\"cache_hits\":1"));
  EXPECT_EQ(read_file(path("served_a.json")), golden("certify_k2.cert.json"));
  EXPECT_EQ(read_file(path("served_b.json")), golden("certify_k2.cert.json"));
}

TEST_F(Cli, TraceOutRecordsSchedulingInEveryMode) {
  const std::string trace = path("run.trace.json");
  const std::vector<std::vector<std::string>> modes = {
      {"--scenarios", "2000", "--example1", "--solution1"},
      {"--frontier", "--example1", "--solution1"},
      {"--repair", kCertifyK2, "--solution2", "--claim-k", "1",
       "--certify-links", "1"}};
  for (std::vector<std::string> args : modes) {
    fs::remove(trace);
    args.insert(args.end(), {"--threads", "4", "--trace-out", trace});
    EXPECT_EQ(0, status(args)) << args[0];
    const std::string spans = read_file(trace);
    EXPECT_TRUE(valid_json(spans)) << args[0];
    // Every sweep of the run shares one pool: the caller and at most three
    // helpers ever record a span.
    EXPECT_LE(trace_tids(spans).size(), 4u) << args[0];
#if FTSCHED_OBS_ENABLED  // the tools record no spans without it
    EXPECT_TRUE(contains(spans, "\"name\": \"sched.run\"")) << args[0];
#endif
  }
}

TEST_F(Cli, ServeTraceOutSpansTheSession) {
  // The serve branch used to return before the profiler was enabled, so
  // --trace-out never wrote its file.
  const std::string trace = path("serve.trace.json");
  const std::string requests =
      "{\"type\":\"submit\",\"id\":\"a\",\"problem\":\"" +
      std::string(FTSCHED_SOURCE_DIR) +
      "/data/example1.ft\"}\n"
      "{\"type\":\"shutdown\",\"id\":\"z\"}\n";
  const Outcome served = campaign({"--serve", "--trace-out", trace}, requests);
  EXPECT_EQ(served.status, 0);
  EXPECT_TRUE(contains(line_with(served.out, "\"result\",\"id\":\"a\""),
                       "\"certified\":true"))
      << served.out;
  const std::string spans = read_file(trace);
  EXPECT_TRUE(valid_json(spans)) << spans;
#if FTSCHED_OBS_ENABLED  // the tools record no spans without it
  EXPECT_TRUE(contains(spans, "\"name\": \"certify.shard\"")) << spans;
#endif
}

TEST_F(Cli, UnknownOptionIsAUsageError) {
  const Outcome result = campaign({"--example1", "--no-such-flag"});
  EXPECT_EQ(result.status, 2);
  EXPECT_TRUE(contains(result.err, "usage: campaign_tool"));
}

TEST_F(Cli, TraceToolRefusesCrashInstantsItCannotSchedule) {
  // NaN used to hang the simulator, 1e999 to abort on an infinite date,
  // and a negative instant was accepted.
  for (const char* operand : {"P1@nan", "P1@1e999", "P1@-5"}) {
    const Outcome result =
        run(FTSCHED_TRACE_TOOL,
            {"sim", "--example1", "--solution1", "--fail", operand, "-o",
             path("sim.trace.json")},
            "", 10);
    EXPECT_EQ(result.status, 2) << operand;
    EXPECT_TRUE(contains(result.err, operand)) << result.err;
  }
}

TEST_F(Cli, BadInputsExitThreeNamingTheCulprit) {
  const std::string broken = path("broken.ft");
  std::ofstream(broken) << "processors P1 P2\nbogus-stanza\n";
  Outcome result = campaign({broken, "--solution1", "--repair"});
  EXPECT_EQ(result.status, 3);
  EXPECT_TRUE(contains(result.err, "broken.ft")) << result.err;
  EXPECT_TRUE(contains(result.err, "line")) << result.err;

  result = campaign({path("missing.ft"), "--solution1", "--repair"});
  EXPECT_EQ(result.status, 3);
  EXPECT_TRUE(contains(result.err, "missing.ft")) << result.err;

  // A directory opens but cannot be read: unreadable, not an empty problem.
  const std::string directory = path("directory.ft");
  fs::create_directories(directory);
  result = campaign({directory, "--solution1", "--repair"});
  EXPECT_EQ(result.status, 3);
  EXPECT_TRUE(contains(result.err, "directory.ft")) << result.err;

  // A crash instant the simulator cannot schedule is malformed input.
  const std::string replay = path("inf.scenario");
  std::ofstream(replay) << "scenario\n  crash P1 inf\n";
  result = campaign({"--example1", "--solution1", "--replay", replay});
  EXPECT_EQ(result.status, 3);
  EXPECT_TRUE(contains(result.err, "inf.scenario")) << result.err;
  EXPECT_TRUE(contains(result.err, "line 2")) << result.err;

  result = campaign(
      {"--example1", "--solution1", "--seed", "99999999999999999999"});
  EXPECT_EQ(result.status, 3);
  EXPECT_TRUE(contains(result.err, "out of range")) << result.err;

  // A deadline no schedule can meet is malformed input, not a verdict.
  const std::string example1 =
      read_file(std::string(FTSCHED_SOURCE_DIR) + "/data/example1.ft");
  for (const char* deadline : {"nan", "-5", "0"}) {
    const std::string file = path("deadline.ft");
    std::ofstream(file) << example1 << "  deadline " << deadline << "\n";
    result = campaign({file, "--solution1", "--certify"});
    EXPECT_EQ(result.status, 3) << deadline;
    EXPECT_TRUE(contains(result.err, "deadline.ft")) << result.err;
    EXPECT_TRUE(contains(result.err,
                         std::string("bad deadline: ") + deadline))
        << result.err;
  }

  // Operands that fit a long but not their field: no silent wrap-around.
  for (const char* flag : {"--threads", "--claim-k"}) {
    for (const char* operand : {"4294967296", "4294967297"}) {
      result = campaign({"--example1", "--solution1", "--scenarios", "10",
                         flag, operand});
      EXPECT_EQ(result.status, 3) << flag << " " << operand;
      EXPECT_TRUE(contains(result.err, "out of range")) << result.err;
    }
  }
}

TEST_F(Cli, DisconnectedArchitectureIsASchedulingFailure) {
  // Example 1 without its bus: no route joins the three processors. The
  // routing table used to throw, and schedule_tool died of SIGABRT.
  std::string example1 =
      read_file(std::string(FTSCHED_SOURCE_DIR) + "/data/example1.ft");
  const std::string bus = "  bus can P1 P2 P3\n";
  ASSERT_NE(example1.find(bus), std::string::npos);
  example1.erase(example1.find(bus), bus.size());
  const std::string linkless = path("linkless.ft");
  std::ofstream(linkless) << example1;

  const Outcome result = run(FTSCHED_SCHEDULE_TOOL, {linkless, "--solution1"});
  EXPECT_EQ(result.status, 1);
  EXPECT_TRUE(contains(result.err, "scheduling failed (")) << result.err;
  EXPECT_TRUE(contains(result.err, "not connected")) << result.err;

  // campaign_tool reports an unschedulable problem as bad input, naming the
  // file, in a campaign and under --certify alike (it exited 2, the usage
  // error code, without the file name).
  const std::vector<std::vector<std::string>> modes = {
      {linkless, "--solution1"}, {linkless, "--solution1", "--certify"}};
  for (const std::vector<std::string>& args : modes) {
    const Outcome failed = campaign(args);
    EXPECT_EQ(failed.status, 3) << args.back();
    EXPECT_TRUE(contains(failed.err, "campaign_tool: " + linkless +
                                         ": scheduling failed (no-route): "))
        << failed.err;
  }
}

TEST_F(Cli, UnwritableOutputsExitTwo) {
  // /dev/full accepts the open but fails the flush with ENOSPC: reporting
  // success there would announce an artifact that was never written.
  if (!std::ifstream("/dev/full").good()) {
    GTEST_SKIP() << "/dev/full not available";
  }
  Outcome result =
      run(FTSCHED_TRACE_TOOL,
          {"gantt", "--example1", "--solution1", "-o", "/dev/full"});
  EXPECT_EQ(result.status, 2);
  EXPECT_TRUE(contains(result.err, "cannot write /dev/full")) << result.err;
  EXPECT_FALSE(contains(result.err, "wrote")) << result.err;

  result = campaign({"--example1", "--solution1", "--certify-shard", "0/1",
                     "--stream-out", "/dev/full"});
  EXPECT_EQ(result.status, 2);
  EXPECT_TRUE(contains(result.err, "cannot write /dev/full")) << result.err;
  EXPECT_FALSE(contains(result.err, "streamed")) << result.err;
}

TEST_F(Cli, TradeoffExplorerNamesTheBadOperand) {
  struct Case {
    std::vector<std::string> args;
    const char* operand;
  };
  const std::vector<Case> cases = {
      {{"abc"}, "ops"},
      {{"0"}, "ops"},
      {{"20", "0"}, "procs"},
      {{"20", "4", "-1"}, "K"},
      {{"20", "4", "1", "nan"}, "ccr"},
  };
  for (const Case& c : cases) {
    const Outcome result = run(FTSCHED_TRADEOFF_EXPLORER, c.args);
    EXPECT_EQ(result.status, 2) << ::testing::PrintToString(c.args);
    EXPECT_TRUE(contains(result.err, std::string("bad ") + c.operand +
                                         " operand '" + c.args.back() + "'"))
        << result.err;
  }
  EXPECT_EQ(0, run(FTSCHED_TRADEOFF_EXPLORER, {"20", "4", "1", "0.5", "bus",
                                               "1"})
                   .status);
}

}  // namespace
