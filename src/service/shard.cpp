#include "service/shard.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "service/cache.hpp"

namespace ftsched::service {
namespace {

StreamMeta make_meta(const Schedule& schedule,
                     const campaign::CertifySpec& spec,
                     const campaign::CertifyShardSpec& shard) {
  const campaign::CertifySweep sweep = campaign::certify_sweep(schedule, spec);
  StreamMeta meta;
  meta.plan_key = plan_key_string(schedule, spec);
  meta.max_failures = sweep.max_failures;
  meta.max_link_failures = sweep.max_link_failures;
  meta.max_silences = sweep.max_silences;
  meta.response_bound = sweep.response_bound;
  meta.subsets = sweep.subsets;
  meta.link_subsets = sweep.link_subsets;
  meta.tasks = sweep.tasks;
  meta.shard_index = shard.shard_index;
  meta.shard_count = shard.shard_count;
  meta.max_counterexamples = spec.max_counterexamples;
  meta.dedup = spec.dedup;
  meta.constraints = spec.latency_constraints;
  return meta;
}

bool same_constraints(const std::vector<campaign::LatencyConstraint>& a,
                      const std::vector<campaign::LatencyConstraint>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].name != b[i].name || a[i].source_op != b[i].source_op ||
        a[i].sink_op != b[i].sink_op || !time_eq(a[i].bound, b[i].bound)) {
      return false;
    }
  }
  return true;
}

Error merge_error(const std::string& what) {
  return Error{Error::Code::kInvalidInput, "stream merge: " + what};
}

}  // namespace

StreamShardResult certify_stream(const Schedule& schedule,
                                 const campaign::CertifySpec& spec,
                                 const campaign::CertifyShardSpec& shard,
                                 RecordSink& sink,
                                 const std::function<bool()>& cancelled) {
  sink.write(write_meta_record(make_meta(schedule, spec, shard)));
  StreamShardResult result;
  result.completed = campaign::certify_shard(
      schedule, spec, shard,
      [&](campaign::CertifyTaskPartial&& partial) {
        // Certified-branch collection is a local test concern; it is
        // never part of the wire certificate, and dropping it here keeps
        // the stream (and the worker's live memory) bounded.
        partial.collected.clear();
        sink.write(write_task_record(partial));
        ++result.tasks_emitted;
      },
      cancelled);
  StreamEnd end;
  end.shard_index = shard.shard_index;
  end.tasks_emitted = result.tasks_emitted;
  end.cancelled = !result.completed;
  sink.write(write_end_record(end));
  return result;
}

Expected<campaign::CertifyReport> merge_streams(
    const Schedule& schedule, const campaign::CertifySpec& spec,
    const std::vector<std::string>& streams) {
  if (streams.empty()) return merge_error("no streams given");

  const campaign::CertifySweep sweep = campaign::certify_sweep(schedule, spec);
  const std::string expected_key = plan_key_string(schedule, spec);

  // Task records keyed by global index; std::map gives the ascending
  // iteration the merger requires regardless of arrival order.
  std::map<std::size_t, campaign::CertifyTaskPartial> tasks;

  for (std::size_t s = 0; s < streams.size(); ++s) {
    const std::string& text = streams[s];
    const std::string where = "stream " + std::to_string(s);
    bool saw_meta = false;
    bool saw_end = false;
    campaign::CertifyShardSpec shard;
    std::size_t task_records = 0;

    std::size_t begin = 0;
    while (begin < text.size()) {
      std::size_t nl = text.find('\n', begin);
      if (nl == std::string::npos) nl = text.size();
      const std::string_view line(text.data() + begin, nl - begin);
      begin = nl + 1;
      if (line.empty()) continue;

      auto parsed = parse_record(line);
      if (!parsed.has_value()) {
        return merge_error(where + ": " + parsed.error().message);
      }
      StreamRecord& record = parsed.value();
      if (saw_end) return merge_error(where + ": record after end");

      switch (record.kind) {
        case StreamRecord::Kind::kMeta: {
          if (saw_meta) return merge_error(where + ": duplicate meta");
          saw_meta = true;
          const StreamMeta& meta = record.meta;
          if (meta.plan_key != expected_key) {
            return merge_error(where + ": plan key " + meta.plan_key +
                               " does not match this request (" +
                               expected_key + ")");
          }
          // plan_key covers schedule + budgets + knobs, but cross-check
          // the sweep shape too: it defends against a worker built from
          // diverged sources whose key format happens to agree.
          if (meta.max_failures != sweep.max_failures ||
              meta.max_link_failures != sweep.max_link_failures ||
              meta.max_silences != sweep.max_silences ||
              meta.subsets != sweep.subsets ||
              meta.link_subsets != sweep.link_subsets ||
              meta.tasks != sweep.tasks) {
            return merge_error(where + ": sweep shape disagrees");
          }
          // The plan key only mixes constraints when present; compare the
          // lists themselves so a shard certified against different chains
          // (or none) can never contribute task records to this merge.
          if (!same_constraints(meta.constraints, spec.latency_constraints)) {
            return merge_error(where + ": latency constraints disagree");
          }
          shard.shard_index = meta.shard_index;
          shard.shard_count = meta.shard_count;
          break;
        }
        case StreamRecord::Kind::kTask: {
          if (!saw_meta) return merge_error(where + ": task before meta");
          const std::size_t index = record.task.task_index;
          if (index >= sweep.tasks) {
            return merge_error(where + ": task index " +
                               std::to_string(index) + " out of range");
          }
          if (!shard.owns(index)) {
            return merge_error(where + ": task " + std::to_string(index) +
                               " not owned by shard " +
                               std::to_string(shard.shard_index) + "/" +
                               std::to_string(shard.shard_count));
          }
          if (!tasks.emplace(index, std::move(record.task)).second) {
            return merge_error("task " + std::to_string(index) +
                               " appears in more than one record");
          }
          ++task_records;
          break;
        }
        case StreamRecord::Kind::kEnd: {
          if (!saw_meta) return merge_error(where + ": end before meta");
          saw_end = true;
          if (record.end.cancelled) {
            return merge_error(where + ": shard was cancelled");
          }
          if (record.end.tasks_emitted != task_records) {
            return merge_error(where + ": end advertises " +
                               std::to_string(record.end.tasks_emitted) +
                               " tasks but " + std::to_string(task_records) +
                               " records arrived");
          }
          break;
        }
      }
    }
    if (!saw_meta) return merge_error(where + ": missing meta record");
    if (!saw_end) return merge_error(where + ": truncated (no end record)");
  }

  if (tasks.size() != sweep.tasks) {
    return merge_error("incomplete shard set: " +
                       std::to_string(tasks.size()) + " of " +
                       std::to_string(sweep.tasks) + " tasks covered");
  }

  campaign::CertifyMerger merger(sweep, spec);
  for (auto& [index, partial] : tasks) merger.add(std::move(partial));
  return merger.finish();
}

}  // namespace ftsched::service
