// Shard/merge protocol: any 1..8-way shard partition of a certification
// run merges to a certificate byte-identical to single-process certify(),
// for a certified schedule and for a refuted one (counterexamples cross
// the wire too); malformed streams — truncated, tampered, cancelled,
// incomplete — are clean Errors, never UB.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "campaign/certify.hpp"
#include "sched/heuristics.hpp"
#include "service/cache.hpp"
#include "service/shard.hpp"
#include "service/stream.hpp"
#include "workload/paper_examples.hpp"

namespace ftsched::service {
namespace {

using workload::OwnedProblem;

struct Fixture {
  // Heap-held: Schedule keeps a pointer to owned->problem, so the problem
  // must not relocate when the fixture moves.
  std::unique_ptr<OwnedProblem> owned;
  Schedule schedule;
  campaign::CertifySpec spec;

  static Fixture certified() {
    auto ex = std::make_unique<OwnedProblem>(workload::paper_example1());
    Schedule schedule = schedule_solution1(ex->problem).value();
    return Fixture{std::move(ex), std::move(schedule), {}};
  }

  static Fixture refuted() {
    // The non-FT baseline against a K=1 claim: counterexamples guaranteed.
    auto ex = std::make_unique<OwnedProblem>(workload::paper_example1());
    Schedule schedule = schedule_base(ex->problem).value();
    campaign::CertifySpec spec;
    spec.max_failures = 1;
    return Fixture{std::move(ex), std::move(schedule), spec};
  }

  [[nodiscard]] std::vector<std::string> shard_streams(
      std::size_t shards) const {
    std::vector<std::string> streams;
    for (std::size_t i = 0; i < shards; ++i) {
      StringSink sink;
      const StreamShardResult result = certify_stream(
          schedule, spec, campaign::CertifyShardSpec{i, shards}, sink);
      EXPECT_TRUE(result.completed);
      streams.push_back(sink.text());
    }
    return streams;
  }
};

void expect_partitions_merge(const Fixture& fixture) {
  const campaign::CertifyReport reference =
      campaign::certify(fixture.schedule, fixture.spec);
  const ArchitectureGraph& arch = *fixture.owned->problem.architecture;
  const std::string reference_json = reference.to_json(arch);

  for (std::size_t shards = 1; shards <= 8; ++shards) {
    const auto merged = merge_streams(fixture.schedule, fixture.spec,
                                      fixture.shard_streams(shards));
    ASSERT_TRUE(merged.has_value()) << merged.error().message;
    EXPECT_EQ(merged.value().to_json(arch), reference_json)
        << shards << "-way partition diverged";
    EXPECT_EQ(merged.value().certified, reference.certified);
  }
}

TEST(StreamMerge, AnyPartitionOfCertifiedRunMergesByteIdentical) {
  expect_partitions_merge(Fixture::certified());
}

TEST(StreamMerge, AnyPartitionOfRefutedRunMergesByteIdentical) {
  expect_partitions_merge(Fixture::refuted());
}

TEST(StreamMerge, StreamOrderDoesNotMatter) {
  const Fixture fixture = Fixture::certified();
  const ArchitectureGraph& arch = *fixture.owned->problem.architecture;
  const std::string reference_json =
      campaign::certify(fixture.schedule, fixture.spec).to_json(arch);
  std::vector<std::string> streams = fixture.shard_streams(3);
  std::swap(streams[0], streams[2]);
  const auto merged = merge_streams(fixture.schedule, fixture.spec, streams);
  ASSERT_TRUE(merged.has_value()) << merged.error().message;
  EXPECT_EQ(merged.value().to_json(arch), reference_json);
}

TEST(StreamMerge, CounterexamplesSurviveTheWire) {
  const Fixture fixture = Fixture::refuted();
  const campaign::CertifyReport reference =
      campaign::certify(fixture.schedule, fixture.spec);
  ASSERT_FALSE(reference.certified);
  ASSERT_FALSE(reference.counterexamples.empty());

  const auto merged = merge_streams(fixture.schedule, fixture.spec,
                                    fixture.shard_streams(4));
  ASSERT_TRUE(merged.has_value()) << merged.error().message;
  const campaign::CertifyReport& report = merged.value();
  ASSERT_EQ(report.counterexamples.size(), reference.counterexamples.size());
  for (std::size_t i = 0; i < report.counterexamples.size(); ++i) {
    EXPECT_EQ(report.counterexamples[i].dead_at_start,
              reference.counterexamples[i].dead_at_start);
    EXPECT_EQ(report.counterexamples[i].crashes,
              reference.counterexamples[i].crashes);
    EXPECT_EQ(report.counterexamples[i].outputs_lost,
              reference.counterexamples[i].outputs_lost);
    // Exact: %.17g round-trips the double bit-for-bit.
    EXPECT_EQ(report.counterexamples[i].response_time,
              reference.counterexamples[i].response_time);
  }
}

// --- malformed input -------------------------------------------------------

TEST(StreamParse, MalformedRecordsAreCleanErrors) {
  // Truncated line (mid-JSON), unknown record type, non-object, and field
  // kind confusion: each a clean Error naming the problem.
  const char* bad[] = {
      R"({"type":"task","task":3,"branches":)",  // truncated mid-record
      R"({"type":"wormhole"})",                  // unknown type
      R"([1,2,3])",                              // not an object
      R"({"type":"task"})",                      // missing task index
      R"({"type":"task","task":-1})",            // negative task index
      R"({"type":"task","task":1.5})",           // fractional task index
      R"({"type":"task","task":1e300})",         // task index past 2^53
      R"({"type":"task","task":2,"branches":-3})",
      R"({"type":"task","task":2,"counterexamples":[{"dead":[-1]}]})",
      R"({"type":"task","task":2,"counterexamples":[{"crashes":[{"t":1}]}]})",
      R"({"type":"meta","format":1,"max_failures":-1,"shard_count":1})",
      R"({"type":"end","tasks_emitted":"7"})",
      R"({"type":"meta","format":99})",          // unsupported format
      R"({"type":"meta","format":1,"shard_index":3,"shard_count":2})",
  };
  for (const char* line : bad) {
    const auto record = parse_record(line);
    EXPECT_FALSE(record.has_value()) << "accepted: " << line;
  }
}

TEST(StreamParse, RecordsRoundTrip) {
  StreamMeta meta;
  meta.plan_key = "pk-test";
  meta.max_failures = 2;
  meta.response_bound = 42.25;
  meta.subsets = 11;
  meta.tasks = 27;
  meta.shard_index = 1;
  meta.shard_count = 4;
  meta.max_counterexamples = 16;
  meta.dedup = false;
  const auto parsed = parse_record(write_meta_record(meta));
  ASSERT_TRUE(parsed.has_value()) << parsed.error().message;
  ASSERT_EQ(parsed.value().kind, StreamRecord::Kind::kMeta);
  const StreamMeta& back = parsed.value().meta;
  EXPECT_EQ(back.plan_key, "pk-test");
  EXPECT_EQ(back.max_failures, 2);
  EXPECT_EQ(back.response_bound, 42.25);
  EXPECT_EQ(back.subsets, 11u);
  EXPECT_EQ(back.tasks, 27u);
  EXPECT_EQ(back.shard_index, 1u);
  EXPECT_EQ(back.shard_count, 4u);
  EXPECT_FALSE(back.dedup);

  campaign::CertifyTaskPartial task;
  task.task_index = 7;
  task.branches = 101;
  task.worst_response = 23.680199999999999;
  campaign::CertifyBranch branch;
  branch.dead_at_start.push_back(ProcessorId(2));
  branch.crashes.push_back(FailureEvent{ProcessorId(0), 4.5});
  branch.silences.push_back(SilentWindow{ProcessorId(1), 1.0, 2.5});
  branch.outputs_lost = true;
  branch.response_time = kInfinite;
  task.counterexamples.push_back(branch);
  const auto task_back = parse_record(write_task_record(task));
  ASSERT_TRUE(task_back.has_value()) << task_back.error().message;
  ASSERT_EQ(task_back.value().kind, StreamRecord::Kind::kTask);
  const campaign::CertifyTaskPartial& t = task_back.value().task;
  EXPECT_EQ(t.task_index, 7u);
  EXPECT_EQ(t.branches, 101u);
  EXPECT_EQ(t.worst_response, 23.680199999999999);
  ASSERT_EQ(t.counterexamples.size(), 1u);
  EXPECT_EQ(t.counterexamples[0].dead_at_start, branch.dead_at_start);
  EXPECT_EQ(t.counterexamples[0].crashes, branch.crashes);
  EXPECT_EQ(t.counterexamples[0].silences, branch.silences);
  EXPECT_TRUE(t.counterexamples[0].outputs_lost);
  EXPECT_EQ(t.counterexamples[0].response_time, kInfinite);

  // Older streams still carry a leaves_reused count; it is ignored.
  const auto legacy =
      parse_record(R"({"type":"task","task":3,"leaves_reused":5})");
  ASSERT_TRUE(legacy.has_value()) << legacy.error().message;
  EXPECT_EQ(legacy.value().task.task_index, 3u);
}

TEST(StreamMerge, RefusesTamperedStreams) {
  const Fixture fixture = Fixture::certified();
  const auto expect_refused = [&](std::vector<std::string> streams,
                                  const std::string& why) {
    const auto merged =
        merge_streams(fixture.schedule, fixture.spec, streams);
    EXPECT_FALSE(merged.has_value()) << why;
  };

  // Incomplete shard set: one of two streams.
  auto two = fixture.shard_streams(2);
  expect_refused({two[0]}, "half the tasks missing");

  // Truncated: drop the end record (last line).
  auto truncated = fixture.shard_streams(1);
  std::string& text = truncated[0];
  text.erase(text.rfind("{\"type\":\"end\""));
  expect_refused(truncated, "no end record");

  // Duplicate coverage: the same full stream twice.
  auto once = fixture.shard_streams(1);
  expect_refused({once[0], once[0]}, "duplicate task records");

  // Cancelled shard.
  auto cancelled = fixture.shard_streams(1);
  StringSink sink;
  const StreamShardResult aborted =
      certify_stream(fixture.schedule, fixture.spec,
                     campaign::CertifyShardSpec{0, 1}, sink,
                     [] { return true; });
  EXPECT_FALSE(aborted.completed);
  expect_refused({sink.text()}, "cancelled shard");

  // Budget mismatch: streams recorded under a different spec.
  campaign::CertifySpec other = fixture.spec;
  other.max_link_failures = 1;
  StringSink other_sink;
  (void)certify_stream(fixture.schedule, other,
                       campaign::CertifyShardSpec{}, other_sink);
  expect_refused({other_sink.text()}, "plan key mismatch");

  // Garbage in the middle of an otherwise fine stream.
  auto garbled = fixture.shard_streams(1);
  garbled[0].insert(garbled[0].find('\n') + 1, "{\"type\":\"task\",}\n");
  expect_refused(garbled, "malformed record");
}

TEST(StreamMerge, ChainConstrainedStreamsMergeByteIdentical) {
  // Chain constraints ride the wire: the meta record carries the spec, the
  // branch records carry the violated names, the task records carry the
  // per-chain envelopes — and every partition still merges byte-identical
  // to single-process certify().
  Fixture fixture = Fixture::certified();
  fixture.spec.latency_constraints.push_back(
      campaign::LatencyConstraint{"roomy", "I", "O", 100.0});
  fixture.spec.latency_constraints.push_back(
      campaign::LatencyConstraint{"tight", "A", "E", 0.01});
  expect_partitions_merge(fixture);

  const auto merged = merge_streams(fixture.schedule, fixture.spec,
                                    fixture.shard_streams(3));
  ASSERT_TRUE(merged.has_value()) << merged.error().message;
  const campaign::CertifyReport& report = merged.value();
  EXPECT_FALSE(report.certified);
  ASSERT_EQ(report.latency_constraints.size(), 2u);
  ASSERT_EQ(report.worst_chain_latency.size(), 2u);
  ASSERT_FALSE(report.counterexamples.empty());
  for (const campaign::CertifyBranch& cex : report.counterexamples) {
    ASSERT_EQ(cex.violated_constraints.size(), 1u);
    EXPECT_EQ(cex.violated_constraints[0], "tight");
  }
}

TEST(StreamMerge, RefusesStreamsWhoseChainConstraintsDisagree) {
  Fixture fixture = Fixture::certified();
  fixture.spec.latency_constraints.push_back(
      campaign::LatencyConstraint{"roomy", "I", "O", 100.0});
  auto streams = fixture.shard_streams(1);

  // A merge without the constraints sees a different plan key outright.
  const Fixture plain = Fixture::certified();
  EXPECT_FALSE(
      merge_streams(plain.schedule, plain.spec, streams).has_value());

  // A tampered meta record that keeps the plan key but renames the chain
  // trips the explicit constraint comparison — the key alone (a hash)
  // must not be the last line of defense.
  auto tampered = streams;
  const std::size_t pos = tampered[0].find("\"roomy\"");
  ASSERT_NE(pos, std::string::npos);
  tampered[0].replace(pos, 7, "\"spoof\"");
  EXPECT_FALSE(
      merge_streams(fixture.schedule, fixture.spec, tampered).has_value());
}

TEST(StreamMerge, BoundedCounterexampleDetail) {
  // The merged certificate keeps at most spec.max_counterexamples branches
  // in detail while counting all of them — the bounded-memory contract.
  Fixture fixture = Fixture::refuted();
  fixture.spec.max_counterexamples = 2;
  const auto merged = merge_streams(fixture.schedule, fixture.spec,
                                    fixture.shard_streams(3));
  ASSERT_TRUE(merged.has_value()) << merged.error().message;
  EXPECT_LE(merged.value().counterexamples.size(), 2u);
  EXPECT_GT(merged.value().total_counterexamples, 2u);
}

}  // namespace
}  // namespace ftsched::service
