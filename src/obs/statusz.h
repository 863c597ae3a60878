// Live introspection endpoint (DESIGN.md §12): a process-wide registry of
// metrics / gauge / status sources, and the HTTP pages served over
// src/support/socket_server.
//
// Components register what they can report while they are alive:
//
//   class GraphEngine {
//     ...
//     obs::Introspection::Handle metrics_handle_;   // declared last: the
//     obs::Introspection::Handle status_handle_;    // handle unregisters
//   };                                              // before members die
//   // ctor body:
//   metrics_handle_ = Introspection::RegisterMetricsSource(
//       "engine", [this] { return metrics_.Snapshot(); });
//
// Handles are move-only RAII registrations. Unregistering blocks while a
// scrape is inside the callback (same lock), so a destructor that releases
// its handle first can safely tear down the state the callback reads.
// Callbacks run on the scrape thread and must be thread-safe; they
// must not re-enter Introspection.
//
// Pages (enabled via GrappleOptions::Observability::statusz_port, which
// GRAPPLE_STATUSZ sets at the program's edges; port 0 picks an ephemeral
// port, readable via StatuszPort()):
//   /healthz   200 "ok" while the server runs
//   /statusz   JSON: session/status sources + runtime gauges
//   /metricsz  Prometheus text exposition of the merged registries
//   /tracez    recent flight-recorder tail (JSON)
#ifndef GRAPPLE_SRC_OBS_STATUSZ_H_
#define GRAPPLE_SRC_OBS_STATUSZ_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "src/obs/metrics.h"

namespace grapple {
namespace obs {

class Introspection {
 public:
  // Move-only registration; unregisters on destruction or Release().
  class Handle {
   public:
    Handle() = default;
    ~Handle() { Release(); }
    Handle(Handle&& other) noexcept : id_(other.id_) { other.id_ = 0; }
    Handle& operator=(Handle&& other) noexcept;
    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;

    bool valid() const { return id_ != 0; }
    // Unregisters now; blocks until no scrape is inside the callback.
    void Release();

   private:
    friend class Introspection;
    explicit Handle(uint64_t id) : id_(id) {}
    uint64_t id_ = 0;
  };

  // A full registry snapshot, merged across sources for /metricsz.
  static Handle RegisterMetricsSource(const std::string& name,
                                      std::function<MetricsSnapshot()> fn);
  // A single live number (queue depth, cache bytes, resident sessions). Sources
  // sharing a name are summed — N engines' queue depths add up.
  static Handle RegisterGaugeSource(const std::string& name, std::function<double()> fn);
  // A JSON object (rendered text) describing live state: the session's
  // active checkers, an engine's pair cursor. The text is spliced into
  // StatusJson() verbatim, so it must be valid JSON (render it with
  // JsonWriter). Duplicate names get a "#k" suffix in StatusJson().
  static Handle RegisterStatusSource(const std::string& name,
                                     std::function<std::string()> fn);

  static MetricsSnapshot MergedMetrics();
  // Evaluated gauge sources plus built-in process gauges (rss_bytes).
  static std::map<std::string, double> RuntimeGauges();
  static std::string StatusJson();
};

// Resident set size from /proc/self/statm; 0 where unavailable.
uint64_t ProcessRssBytes();

// Prometheus text exposition (counters, gauges, histogram _count/_sum),
// every name prefixed "grapple_". Exposed for tests and /metricsz.
std::string RenderPrometheus(const MetricsSnapshot& snapshot,
                             const std::map<std::string, double>& runtime_gauges);

// One rendered introspection page; what the HTTP handler serves.
struct IntrospectionPage {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};
IntrospectionPage RenderIntrospectionPage(const std::string& path);

// Starts/stops the process-wide statusz server. Start is idempotent (a
// second call while running succeeds and keeps the first server); Stop is
// idempotent. Port 0 binds an ephemeral port.
bool StartStatusz(int port, std::string* error);
void StopStatusz();
bool StatuszRunning();
// Bound port; 0 when not running.
int StatuszPort();

}  // namespace obs
}  // namespace grapple

#endif  // GRAPPLE_SRC_OBS_STATUSZ_H_
