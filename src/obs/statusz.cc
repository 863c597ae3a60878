#include "src/obs/statusz.h"

#include <unistd.h>

#include <cstdio>
#include <mutex>
#include <vector>

#include "src/obs/event_log.h"
#include "src/obs/json.h"
#include "src/obs/profiler.h"
#include "src/support/socket_server.h"

namespace grapple {
namespace obs {

namespace {

enum class SourceKind { kMetrics, kGauge, kStatus };

struct Source {
  SourceKind kind;
  std::string name;
  std::function<MetricsSnapshot()> metrics_fn;
  std::function<double()> gauge_fn;
  std::function<std::string()> status_fn;
};

struct HubState {
  std::mutex mu;
  uint64_t next_id = 1;
  std::map<uint64_t, Source> sources;
};

HubState& Hub() {
  static HubState* state = new HubState;
  return *state;
}

uint64_t RegisterSource(Source source) {
  HubState& hub = Hub();
  std::lock_guard<std::mutex> lock(hub.mu);
  uint64_t id = hub.next_id++;
  hub.sources.emplace(id, std::move(source));
  return id;
}

// Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*.
std::string PrometheusName(const std::string& name) {
  std::string out = "grapple_";
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
              c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

// One-line # HELP text per metric. Exact names first; otherwise derived from
// the naming convention (DESIGN.md §8) so every exposed series gets *some*
// help line rather than none.
std::string PrometheusHelp(const std::string& name) {
  static const std::map<std::string, std::string>* overrides =
      new std::map<std::string, std::string>{
          {"rss_bytes", "Resident set size of the process."},
          {"obs_overhead", "Relative wall-clock cost of observability (on/off - 1)."},
          {"prof_overhead", "Relative wall-clock cost of the sampling profiler (on/off - 1)."},
      };
  auto it = overrides->find(name);
  if (it != overrides->end()) {
    return it->second;
  }
  auto ends_with = [&name](const char* suffix) {
    size_t n = std::char_traits<char>::length(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (ends_with("_total")) {
    return "Monotonic count of " + name.substr(0, name.size() - 6) + " events.";
  }
  if (ends_with("_ns")) {
    return "Cumulative " + name.substr(0, name.size() - 3) + " time in nanoseconds.";
  }
  if (ends_with("_bytes")) {
    return "Size of " + name.substr(0, name.size() - 6) + " in bytes.";
  }
  if (ends_with("_seconds")) {
    return "Duration of " + name.substr(0, name.size() - 8) + " in seconds.";
  }
  return "Grapple metric " + name + ".";
}

std::string FormatDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

struct ServerState {
  std::mutex mu;
  SocketServer server;
};

ServerState& Server() {
  static ServerState* state = new ServerState;
  return *state;
}

}  // namespace

Introspection::Handle& Introspection::Handle::operator=(Handle&& other) noexcept {
  if (this != &other) {
    Release();
    id_ = other.id_;
    other.id_ = 0;
  }
  return *this;
}

void Introspection::Handle::Release() {
  if (id_ == 0) {
    return;
  }
  HubState& hub = Hub();
  std::lock_guard<std::mutex> lock(hub.mu);
  hub.sources.erase(id_);
  id_ = 0;
}

Introspection::Handle Introspection::RegisterMetricsSource(const std::string& name,
                                                           std::function<MetricsSnapshot()> fn) {
  Source source;
  source.kind = SourceKind::kMetrics;
  source.name = name;
  source.metrics_fn = std::move(fn);
  return Handle(RegisterSource(std::move(source)));
}

Introspection::Handle Introspection::RegisterGaugeSource(const std::string& name,
                                                         std::function<double()> fn) {
  Source source;
  source.kind = SourceKind::kGauge;
  source.name = name;
  source.gauge_fn = std::move(fn);
  return Handle(RegisterSource(std::move(source)));
}

Introspection::Handle Introspection::RegisterStatusSource(const std::string& name,
                                                          std::function<std::string()> fn) {
  Source source;
  source.kind = SourceKind::kStatus;
  source.name = name;
  source.status_fn = std::move(fn);
  return Handle(RegisterSource(std::move(source)));
}

MetricsSnapshot Introspection::MergedMetrics() {
  MetricsSnapshot merged;
  HubState& hub = Hub();
  std::lock_guard<std::mutex> lock(hub.mu);
  for (const auto& [id, source] : hub.sources) {
    if (source.kind == SourceKind::kMetrics) {
      merged.Merge(source.metrics_fn());
    }
  }
  return merged;
}

std::map<std::string, double> Introspection::RuntimeGauges() {
  std::map<std::string, double> gauges;
  gauges["rss_bytes"] = static_cast<double>(ProcessRssBytes());
  HubState& hub = Hub();
  std::lock_guard<std::mutex> lock(hub.mu);
  for (const auto& [id, source] : hub.sources) {
    if (source.kind == SourceKind::kGauge) {
      gauges[source.name] += source.gauge_fn();
    }
  }
  return gauges;
}

std::string Introspection::StatusJson() {
  JsonWriter w;
  w.BeginObject();
  w.Key("pid").Int(static_cast<int64_t>(::getpid()));
  w.Key("sources").BeginObject();
  {
    HubState& hub = Hub();
    std::lock_guard<std::mutex> lock(hub.mu);
    std::map<std::string, int> name_uses;
    for (const auto& [id, source] : hub.sources) {
      if (source.kind != SourceKind::kStatus) {
        continue;
      }
      int use = name_uses[source.name]++;
      std::string key = use == 0 ? source.name : source.name + "#" + std::to_string(use);
      w.Key(key).Raw(source.status_fn());
    }
  }
  w.EndObject();
  w.Key("gauges").BeginObject();
  for (const auto& [name, value] : RuntimeGauges()) {
    w.Key(name).Double(value);
  }
  w.EndObject();
  w.EndObject();
  return w.Take();
}

uint64_t ProcessRssBytes() {
#if defined(__linux__)
  std::FILE* file = std::fopen("/proc/self/statm", "r");
  if (file == nullptr) {
    return 0;
  }
  unsigned long long total_pages = 0;
  unsigned long long resident_pages = 0;
  int fields = std::fscanf(file, "%llu %llu", &total_pages, &resident_pages);
  std::fclose(file);
  if (fields != 2) {
    return 0;
  }
  long page = ::sysconf(_SC_PAGESIZE);
  return static_cast<uint64_t>(resident_pages) * static_cast<uint64_t>(page > 0 ? page : 4096);
#else
  return 0;
#endif
}

std::string RenderPrometheus(const MetricsSnapshot& snapshot,
                             const std::map<std::string, double>& runtime_gauges) {
  std::string out;
  for (const auto& [name, value] : snapshot.counters) {
    std::string metric = PrometheusName(name);
    out += "# HELP " + metric + " " + PrometheusHelp(name) + "\n";
    out += "# TYPE " + metric + " counter\n";
    out += metric + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : snapshot.gauges) {
    std::string metric = PrometheusName(name);
    out += "# HELP " + metric + " " + PrometheusHelp(name) + "\n";
    out += "# TYPE " + metric + " gauge\n";
    out += metric + " " + FormatDouble(value) + "\n";
  }
  for (const auto& [name, value] : runtime_gauges) {
    std::string metric = PrometheusName(name);
    out += "# HELP " + metric + " " + PrometheusHelp(name) + "\n";
    out += "# TYPE " + metric + " gauge\n";
    out += metric + " " + FormatDouble(value) + "\n";
  }
  for (const auto& [name, hist] : snapshot.histograms) {
    std::string metric = PrometheusName(name);
    out += "# HELP " + metric + " " + PrometheusHelp(name) + "\n";
    out += "# TYPE " + metric + " summary\n";
    out += metric + "_count " + std::to_string(hist.count) + "\n";
    out += metric + "_sum " + std::to_string(hist.sum) + "\n";
  }
  return out;
}

IntrospectionPage RenderIntrospectionPage(const std::string& path) {
  IntrospectionPage page;
  if (path == "/healthz") {
    page.body = "ok\n";
    return page;
  }
  if (path == "/statusz") {
    page.content_type = "application/json";
    page.body = Introspection::StatusJson();
    return page;
  }
  if (path == "/metricsz") {
    page.content_type = "text/plain; version=0.0.4; charset=utf-8";
    page.body = RenderPrometheus(Introspection::MergedMetrics(), Introspection::RuntimeGauges());
    return page;
  }
  if (path == "/tracez") {
    page.content_type = "application/json";
    page.body = EventLogTailJson(256);
    return page;
  }
  if (path == "/profilez") {
    page.content_type = "application/json";
    page.body = ProfileToJson(ProfilerSnapshot());
    return page;
  }
  page.status = 404;
  page.body = "not found; try /healthz /statusz /metricsz /tracez /profilez\n";
  return page;
}

bool StartStatusz(int port, std::string* error) {
  ServerState& state = Server();
  std::lock_guard<std::mutex> lock(state.mu);
  if (state.server.running()) {
    return true;
  }
  return state.server.Start(
      port,
      [](const HttpRequest& request) {
        IntrospectionPage page = RenderIntrospectionPage(request.path);
        HttpResponse response;
        response.status = page.status;
        response.content_type = page.content_type;
        response.body = std::move(page.body);
        return response;
      },
      error);
}

void StopStatusz() {
  ServerState& state = Server();
  std::lock_guard<std::mutex> lock(state.mu);
  state.server.Stop();
}

bool StatuszRunning() {
  ServerState& state = Server();
  std::lock_guard<std::mutex> lock(state.mu);
  return state.server.running();
}

int StatuszPort() {
  ServerState& state = Server();
  std::lock_guard<std::mutex> lock(state.mu);
  return state.server.port();
}

}  // namespace obs
}  // namespace grapple
