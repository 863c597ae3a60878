// GrappleService: the long-lived multi-tenant analysis service behind the
// grappled daemon (DESIGN.md §15).
//
// One process serves check requests from many tenants over the loopback
// HTTP listener (support/socket_server.h):
//
//   POST /check?tenant=<id>[&priority=interactive|batch]
//              [&checkers=io,lock,...][&fields=reports]
//   <body: IR program text (src/ir/parser.h grammar)>
//
// The request flows admission -> worker -> session:
//   * AdmissionQueue bounds queued work and keeps tenants fair (429 on
//     overload, 503 while shutting down — clients see backpressure instead
//     of unbounded latency). It is the only place a request waits.
//   * min(checker_slots, worker_threads) dispatch workers drain it, each
//     running one request at a time, so N resident sessions do not
//     oversubscribe the machine N-fold.
//   * SessionCache keeps hot Grapple sessions resident keyed by a
//     fingerprint of (tenant, subject): a warm hit reuses the cached
//     phase-1 alias analysis and runs phases 2-3 only.
// A Check() that throws (an I/O failure in phase 1, say) answers 500 and
// leaves the daemon serving; the session stays cached and retries phase 1
// on its next request.
//
// Responses: with `fields=reports` the body is byte-identical to
// `analyze_file <subject> --json` on the same subject and checker set —
// warm or cold, the service is a drop-in for the one-shot CLI. The default
// is a JSON envelope that adds service metadata (ticket, warm/cached,
// queue/check latency) and the per-request obs::RunReport.
//
// Every other path (/healthz /statusz /metricsz /tracez /profilez)
// renders the introspection pages; the service registers a "service" status
// source (queue depth, resident sessions, per-tenant counters, exact
// p50/p99 latency over the recent window) plus service_* metrics so one
// scrape shows daemon and analysis state together.
#ifndef GRAPPLE_SRC_SERVICE_SERVICE_H_
#define GRAPPLE_SRC_SERVICE_SERVICE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/core/grapple.h"
#include "src/obs/metrics.h"
#include "src/obs/statusz.h"
#include "src/service/admission_queue.h"
#include "src/service/session_cache.h"
#include "src/support/socket_server.h"

namespace grapple {

struct ServiceOptions {
  // Listener port; 0 binds an ephemeral one (read it back via port()).
  int port = 0;
  // Sessions kept hot. Eviction is LRU among idle sessions only; in-flight
  // sessions are pinned and never dropped.
  size_t max_resident_sessions = 8;
  // Bound on admitted-but-undispatched requests (beyond this: 429).
  size_t admission_capacity = 64;
  // Concurrent Check() runs across all sessions: the service runs
  // max(1, min(checker_slots, worker_threads)) dispatch workers.
  size_t checker_slots = 2;
  // Dispatch workers draining the admission queue (capped as above).
  size_t worker_threads = 2;
  // HTTP handler pool (requests park here while queued + checking).
  size_t handler_threads = 8;
  // Root for per-tenant session work dirs; empty = private temp dir.
  // Removed on Shutdown() when the service created it.
  std::string work_root;
  // Template for every session; work_dir is overridden per session.
  GrappleOptions session;

  // Defaults with GRAPPLE_SERVICE_PORT, GRAPPLE_MAX_RESIDENT_SESSIONS and
  // GRAPPLE_ADMISSION_QUEUE applied, and ApplyEnvOverrides on `session`.
  static ServiceOptions FromEnv();
};

struct ServiceStats {
  AdmissionStats admission;
  uint64_t warm_hits = 0;
  uint64_t cold_misses = 0;
  uint64_t bypasses = 0;      // always 0: every session is cached
  uint64_t evictions = 0;
  uint64_t errors = 0;       // 4xx/5xx responses on /check
  size_t resident_sessions = 0;
  size_t slots_in_use = 0;   // workers running a request
  double p50_ms = 0;  // exact, over the recent-latency window
  double p99_ms = 0;
};

class GrappleService {
 public:
  explicit GrappleService(ServiceOptions options);
  ~GrappleService();

  GrappleService(const GrappleService&) = delete;
  GrappleService& operator=(const GrappleService&) = delete;

  // Binds the listener and starts the worker pool. False (with *error set)
  // when the port is taken or the work root cannot be created.
  bool Start(std::string* error);

  // Graceful stop: rejects new requests, fails queued ones with 503,
  // finishes in-flight checks, drops every session (removing its work
  // dir), then removes the work root if the service created it.
  // Idempotent.
  void Shutdown();

  int port() const { return server_.port(); }
  const std::string& work_root() const { return work_root_; }
  ServiceStats Stats() const;

  // Evicts idle sessions until at most `target` remain resident (pinned,
  // in-flight sessions are skipped). The budget-pressure hook; exposed for
  // tests and the daemon's SIGHUP-style trimming.
  size_t TrimSessions(size_t target) { return cache_.TrimTo(target); }

 private:
  // A resident analysis session plus the bookkeeping the service needs.
  struct Session {
    std::string tenant;
    std::string dir;  // session work dir, removed on eviction
    uint64_t fingerprint = 0;
    uint64_t checks = 0;  // guarded by the cache entry's run mutex
    std::unique_ptr<Grapple> grapple;
  };

  HttpResponse Handle(const HttpRequest& request);
  HttpResponse HandleCheck(const HttpRequest& request);
  void WorkerLoop();
  size_t DispatchWorkers() const;
  void RecordLatency(double total_ms);
  std::string StatusSourceJson() const;

  ServiceOptions options_;
  std::string work_root_;
  bool owns_work_root_ = false;
  std::atomic<bool> draining_{false};
  bool started_ = false;
  std::mutex lifecycle_mu_;

  AdmissionQueue admission_;
  SessionCache<Session> cache_;
  SocketServer server_;
  std::vector<std::thread> workers_;
  std::atomic<size_t> running_{0};  // workers running a request

  // service_* counters; merged into /metricsz via the metrics source.
  obs::MetricsRegistry metrics_;
  obs::MetricId c_requests_;
  obs::MetricId c_rejected_;
  obs::MetricId c_warm_hits_;
  obs::MetricId c_cold_misses_;
  obs::MetricId c_errors_;
  obs::MetricId c_queue_wait_ns_;
  obs::MetricId c_check_ns_;
  obs::MetricId h_latency_ms_;

  // Recent /check latencies for exact p50/p99 in /statusz (the log2
  // histogram above is too coarse to gate on).
  mutable std::mutex latency_mu_;
  std::deque<double> recent_latency_ms_;

  // Declared last: unregister (blocking out in-flight scrapes) before the
  // state their callbacks read is torn down.
  obs::Introspection::Handle introspect_metrics_;
  obs::Introspection::Handle introspect_status_;
  obs::Introspection::Handle introspect_queue_depth_;
  obs::Introspection::Handle introspect_resident_;
};

// Fingerprint for session-cache keys: FNV-1a 64 over tenant + '\0' +
// subject text. Exposed for tests.
uint64_t SubjectFingerprint(const std::string& tenant, const std::string& subject_text);

}  // namespace grapple

#endif  // GRAPPLE_SRC_SERVICE_SERVICE_H_
