// certifyd: the certifier as a long-lived service.
//
// CertifyService is the transport-agnostic core — one request line in, a
// stream of response records out — so the pipe loop (CI, tests, benches
// drive it with stringstreams), the Unix-domain socket loop, and any
// future transport share one implementation. The service owns the LRU
// plan-key cache, so repeated/isomorphic submissions across requests AND
// across socket connections hit it.
//
// Certification streams: each finished task yields a progress record and
// its counterexamples (capped like the certificate) the moment the task
// completes, and is folded into the O(max_counterexamples) CertifyMerger —
// the server never materializes a full in-memory report beyond that capped
// summary.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <string_view>

#include "service/cache.hpp"
#include "service/protocol.hpp"
#include "service/stream.hpp"

namespace ftsched::service {

struct ServeOptions {
  /// Plan-key result cache entries; 0 disables caching.
  std::size_t cache_capacity = 64;
  /// Default worker threads for requests that don't set their own.
  unsigned threads = 0;
  /// Graceful-shutdown flag (SIGINT): polled between requests, so an
  /// in-flight certification drains before the loop exits.
  const std::atomic<bool>* stop = nullptr;
  /// Emit a progress record per finished certification task.
  bool progress = true;
  /// Socket-mode connection workers. 1 (the default) serves connections
  /// sequentially in accept order; N > 1 lets N clients certify
  /// concurrently against the one shared service + plan-key cache. Their
  /// sweeps share the process's one helper pool (campaign/work_pool.hpp).
  unsigned serve_threads = 1;
};

/// Deterministic service counters: status responses report them, and they
/// are the service's only hit/miss accounting.
struct ServiceStats {
  std::uint64_t requests = 0;
  std::uint64_t submits = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t errors = 0;
};

class CertifyService {
 public:
  explicit CertifyService(const ServeOptions& options);

  /// Handles one request line, writing response records to `sink`.
  /// Returns false when the request was a shutdown (a bye record has been
  /// written); every other outcome — including malformed requests, which
  /// answer with an error record — returns true and keeps serving.
  ///
  /// Thread-safe: concurrent callers (the socket worker pool) certify in
  /// parallel; each request accumulates its counters privately and merges
  /// the whole delta under one lock when it finishes, so the totals any
  /// later status request observes are a sum of completed requests —
  /// independent of worker interleaving.
  bool handle_line(std::string_view line, RecordSink& sink);

  /// Snapshot of the merged counters (by value: the struct is shared with
  /// the worker pool).
  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] ResultCache& cache() { return cache_; }

 private:
  void handle_submit(const SubmitRequest& submit, RecordSink& sink,
                     ServiceStats& delta);
  void emit_error(RecordSink& sink, const std::string& id,
                  const std::string& message, ServiceStats& delta);
  void write_status(RecordSink& sink, const std::string& id) const;
  void merge(const ServiceStats& delta);

  ServeOptions options_;
  mutable std::mutex mu_;  // guards stats_; cache_ locks itself
  ResultCache cache_;
  ServiceStats stats_;
};

/// Pipe mode: serve line-delimited requests from `in`, records to `out`
/// (flushed per record — the CI smoke test talks to us through a pipe).
/// Returns 0 after shutdown/EOF/stop-flag drain.
int serve_lines(std::istream& in, std::ostream& out,
                const ServeOptions& options);

/// Unix-domain socket mode: bind + listen on `path` (an existing socket
/// file is replaced), serve connections sequentially with one shared
/// service (and cache) until a shutdown request or the stop flag. Returns
/// 0 on clean shutdown, 2 if the socket cannot be created.
int serve_socket(const std::string& path, const ServeOptions& options);

}  // namespace ftsched::service
