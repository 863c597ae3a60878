#include "src/service/service.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <utility>

#include "src/checker/report_json.h"
#include "src/ir/parser.h"
#include "src/obs/json.h"
#include "src/support/byte_io.h"
#include "src/support/env.h"

namespace grapple {

namespace {

using SteadyClock = std::chrono::steady_clock;

double MsSince(SteadyClock::time_point begin) {
  return std::chrono::duration<double, std::milli>(SteadyClock::now() - begin).count();
}

// mkdir -p. Returns false (errno preserved) on failure other than EEXIST.
bool MakeDirs(const std::string& path) {
  std::string prefix;
  size_t pos = 0;
  while (pos <= path.size()) {
    size_t slash = path.find('/', pos);
    if (slash == std::string::npos) {
      slash = path.size();
    }
    prefix = path.substr(0, slash);
    pos = slash + 1;
    if (prefix.empty()) {
      continue;
    }
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      return false;
    }
  }
  return true;
}

// rm -rf. Best effort; the work root lives under /tmp, so a leftover file
// is a leak the CI smoke checks for, not a correctness problem.
void RemoveTree(const std::string& path) {
  DIR* dir = ::opendir(path.c_str());
  if (dir != nullptr) {
    while (dirent* entry = ::readdir(dir)) {
      if (std::strcmp(entry->d_name, ".") == 0 || std::strcmp(entry->d_name, "..") == 0) {
        continue;
      }
      std::string child = path + "/" + entry->d_name;
      struct stat st {};
      if (::lstat(child.c_str(), &st) == 0 && S_ISDIR(st.st_mode)) {
        RemoveTree(child);
      } else {
        ::unlink(child.c_str());
      }
    }
    ::closedir(dir);
  }
  ::rmdir(path.c_str());
}

// Tenant ids become path components; anything outside [A-Za-z0-9_.-]
// flattens to '_' so a hostile tenant string cannot escape the work root.
std::string SanitizeTenant(const std::string& tenant) {
  std::string out = tenant.empty() ? "default" : tenant;
  for (char& c : out) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
              c == '_' || c == '-';
    if (!ok) {
      c = '_';
    }
  }
  if (out == "." || out == "..") {
    out = "_";
  }
  return out;
}

std::string FingerprintHex(uint64_t fp) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx", static_cast<unsigned long long>(fp));
  return buffer;
}

// Simple query-string parse: key=value pairs split on '&'. Values are used
// as opaque tokens (tenant ids, checker names); no percent-decoding.
std::map<std::string, std::string> ParseQuery(const std::string& query) {
  std::map<std::string, std::string> params;
  size_t pos = 0;
  while (pos < query.size()) {
    size_t amp = query.find('&', pos);
    std::string pair = query.substr(pos, amp == std::string::npos ? std::string::npos : amp - pos);
    pos = amp == std::string::npos ? query.size() : amp + 1;
    size_t eq = pair.find('=');
    if (eq == std::string::npos) {
      params[pair] = "";
    } else {
      params[pair.substr(0, eq)] = pair.substr(eq + 1);
    }
  }
  return params;
}

// Resolves `names` ("io,lock", empty = all builtins, matching the
// analyze_file default) against the builtin checker set.
bool ResolveCheckers(const std::string& names, std::vector<FsmSpec>* specs, std::string* why) {
  if (names.empty()) {
    *specs = AllBuiltinCheckers();
    return true;
  }
  size_t pos = 0;
  while (pos <= names.size()) {
    size_t comma = names.find(',', pos);
    std::string name =
        names.substr(pos, comma == std::string::npos ? std::string::npos : comma - pos);
    pos = comma == std::string::npos ? names.size() + 1 : comma + 1;
    if (name.empty()) {
      continue;
    }
    bool found = false;
    for (auto& spec : AllBuiltinCheckers()) {
      if (spec.fsm.name() == name) {
        specs->push_back(std::move(spec));
        found = true;
      }
    }
    if (!found) {
      *why = "no such checker '" + name + "'; choose from io lock except socket";
      return false;
    }
  }
  if (specs->empty()) {
    *why = "empty checker list";
    return false;
  }
  return true;
}

HttpResponse JsonError(int status, const std::string& message) {
  HttpResponse response;
  response.status = status;
  response.content_type = "application/json";
  obs::JsonWriter json;
  json.BeginObject().Key("error").String(message).EndObject();
  response.body = json.Take() + "\n";
  return response;
}

double ExactPercentile(std::vector<double> values, double percentile) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  size_t index = static_cast<size_t>(percentile / 100.0 * static_cast<double>(values.size()));
  index = std::min(index, values.size() - 1);
  return values[index];
}

// Recent-latency window. Large enough for a stable p99, small enough that
// /statusz reflects the current load, not the daemon's whole life.
constexpr size_t kLatencyWindow = 2048;

}  // namespace

uint64_t SubjectFingerprint(const std::string& tenant, const std::string& subject_text) {
  // FNV-1a 64 from this function's own basis (not kFnv1aOffset64), so
  // fingerprints, and the session dirs named after them, stay stable.
  constexpr uint8_t kSeparator = 0;
  uint64_t hash = Fnv1a64(reinterpret_cast<const uint8_t*>(tenant.data()), tenant.size(),
                          1469598103934665603ULL);
  hash = Fnv1a64(&kSeparator, 1, hash);
  return Fnv1a64(reinterpret_cast<const uint8_t*>(subject_text.data()), subject_text.size(),
                 hash);
}

ServiceOptions ServiceOptions::FromEnv() {
  ServiceOptions options;
  ApplyEnvOverrides(&options.session);
  options.port = static_cast<int>(EnvInt64("GRAPPLE_SERVICE_PORT", options.port));
  options.max_resident_sessions = static_cast<size_t>(std::max<int64_t>(
      1, EnvInt64("GRAPPLE_MAX_RESIDENT_SESSIONS",
                  static_cast<int64_t>(options.max_resident_sessions))));
  options.admission_capacity = static_cast<size_t>(std::max<int64_t>(
      1, EnvInt64("GRAPPLE_ADMISSION_QUEUE", static_cast<int64_t>(options.admission_capacity))));
  return options;
}

GrappleService::GrappleService(ServiceOptions options)
    : options_(options),
      admission_(options.admission_capacity),
      cache_(options.max_resident_sessions) {
  c_requests_ = metrics_.Counter("service_requests_total");
  c_rejected_ = metrics_.Counter("service_rejected_total");
  c_warm_hits_ = metrics_.Counter("service_warm_hits_total");
  c_cold_misses_ = metrics_.Counter("service_cold_misses_total");
  c_errors_ = metrics_.Counter("service_errors_total");
  c_queue_wait_ns_ = metrics_.Counter("service_queue_wait_ns");
  c_check_ns_ = metrics_.Counter("service_check_ns");
  h_latency_ms_ = metrics_.Histogram("service_latency_ms");
  cache_.set_evict_hook([](uint64_t, Session* session) {
    if (session != nullptr && !session->dir.empty()) {
      // The Grapple destructor has not run yet, but eviction only happens
      // for unpinned (idle) sessions, so nothing is writing to the dir.
      // Destroy the session first, then its spill files.
      session->grapple.reset();
      RemoveTree(session->dir);
    }
  });
}

GrappleService::~GrappleService() { Shutdown(); }

bool GrappleService::Start(std::string* error) {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (started_) {
    if (error != nullptr) {
      *error = "service already started";
    }
    return false;
  }
  if (options_.work_root.empty()) {
    work_root_ = "/tmp/grappled-" + std::to_string(static_cast<long>(::getpid()));
    owns_work_root_ = true;
  } else {
    work_root_ = options_.work_root;
    owns_work_root_ = false;
  }
  if (!MakeDirs(work_root_)) {
    if (error != nullptr) {
      *error = "cannot create work root " + work_root_ + ": " + std::strerror(errno);
    }
    return false;
  }
  draining_.store(false, std::memory_order_release);
  if (!server_.Start(
          options_.port, [this](const HttpRequest& request) { return Handle(request); }, error,
          options_.handler_threads)) {
    return false;
  }
  size_t workers = DispatchWorkers();
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  introspect_metrics_ =
      obs::Introspection::RegisterMetricsSource("service", [this] { return metrics_.Snapshot(); });
  introspect_status_ =
      obs::Introspection::RegisterStatusSource("service", [this] { return StatusSourceJson(); });
  introspect_queue_depth_ = obs::Introspection::RegisterGaugeSource(
      "service.queue_depth", [this] { return static_cast<double>(admission_.Stats().depth); });
  introspect_resident_ = obs::Introspection::RegisterGaugeSource(
      "service.resident_sessions", [this] { return static_cast<double>(cache_.resident()); });
  started_ = true;
  return true;
}

void GrappleService::Shutdown() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (!started_) {
    return;
  }
  // Order matters: fail queued work first so no HTTP handler is left
  // waiting on a promise, then retire the workers, then the listener.
  draining_.store(true, std::memory_order_release);
  std::vector<AdmissionItem> leftover = admission_.ShutdownAndDrain();
  for (auto& item : leftover) {
    item.fn();  // sees draining_ and fails the request with 503
  }
  for (auto& worker : workers_) {
    if (worker.joinable()) {
      worker.join();
    }
  }
  workers_.clear();
  server_.Stop();
  // Unregister introspection before tearing down the state it reads.
  introspect_metrics_.Release();
  introspect_status_.Release();
  introspect_queue_depth_.Release();
  introspect_resident_.Release();
  // All checks are done, so every session is unpinned and evictable; the
  // evict hook removes each session's work dir.
  cache_.TrimTo(0);
  if (owns_work_root_) {
    RemoveTree(work_root_);
  }
  started_ = false;
}

size_t GrappleService::DispatchWorkers() const {
  return std::max<size_t>(1, std::min(options_.worker_threads, options_.checker_slots));
}

void GrappleService::WorkerLoop() {
  AdmissionItem item;
  while (admission_.Dequeue(&item)) {
    running_.fetch_add(1, std::memory_order_relaxed);
    item.fn();
    item.fn = nullptr;
    running_.fetch_sub(1, std::memory_order_relaxed);
  }
}

HttpResponse GrappleService::Handle(const HttpRequest& request) {
  if (request.path == "/check") {
    return HandleCheck(request);
  }
  obs::IntrospectionPage page = obs::RenderIntrospectionPage(request.path);
  HttpResponse response;
  response.status = page.status;
  response.content_type = page.content_type;
  response.body = std::move(page.body);
  return response;
}

HttpResponse GrappleService::HandleCheck(const HttpRequest& request) {
  auto fail = [this](int status, const std::string& message) {
    metrics_.Add(c_errors_);
    return JsonError(status, message);
  };
  metrics_.Add(c_requests_);
  if (request.method != "POST") {
    return fail(400, "/check requires POST with the subject IR as the body");
  }
  if (request.body.empty()) {
    return fail(400, "empty subject: POST the IR program text as the request body");
  }
  std::map<std::string, std::string> params = ParseQuery(request.query);
  std::string tenant = SanitizeTenant(params["tenant"]);
  int priority = params["priority"] == "batch" ? kPriorityBatch : kPriorityInteractive;
  std::vector<FsmSpec> specs;
  std::string why;
  if (!ResolveCheckers(params["checkers"], &specs, &why)) {
    return fail(400, why);
  }
  bool reports_only = params["fields"] == "reports";

  SteadyClock::time_point admitted_at = SteadyClock::now();
  auto state = std::make_shared<std::promise<HttpResponse>>();
  std::future<HttpResponse> future = state->get_future();
  auto subject = std::make_shared<std::string>(request.body);
  auto run = [this, fail, state, subject, tenant, specs = std::move(specs), reports_only,
              admitted_at]() mutable {
    if (draining_.load(std::memory_order_acquire)) {
      state->set_value(fail(503, "service is shutting down"));
      return;
    }
    double queue_ms = MsSince(admitted_at);
    metrics_.Add(c_queue_wait_ns_, static_cast<uint64_t>(queue_ms * 1e6));

    uint64_t fingerprint = SubjectFingerprint(tenant, *subject);
    std::string factory_error;
    auto factory = [&]() -> std::unique_ptr<Session> {
      ParseResult parsed = ParseProgram(*subject);
      if (!parsed.ok) {
        factory_error = "parse error: " + parsed.error;
        return nullptr;
      }
      auto session = std::make_unique<Session>();
      session->tenant = tenant;
      session->fingerprint = fingerprint;
      session->dir = work_root_ + "/" + tenant + "/" + FingerprintHex(fingerprint);
      if (!MakeDirs(session->dir)) {
        factory_error = "cannot create session work dir " + session->dir;
        return nullptr;
      }
      GrappleOptions options = options_.session;
      options.work_dir = session->dir;
      try {
        session->grapple = std::make_unique<Grapple>(std::move(parsed.program), options);
      } catch (const std::exception& e) {
        factory_error = std::string("session construction failed: ") + e.what();
        RemoveTree(session->dir);
        return nullptr;
      }
      return session;
    };
    SessionCache<Session>::Handle handle;
    GrappleResult result;
    uint64_t session_checks = 0;
    double check_ms = 0;
    try {
      handle = cache_.Acquire(fingerprint, factory);
      if (!handle.valid()) {
        state->set_value(
            fail(400, factory_error.empty() ? "session creation failed" : factory_error));
        return;
      }
      metrics_.Add(handle.warm() ? c_warm_hits_ : c_cold_misses_);
      // Sessions are not safe for concurrent Check; serialize per session.
      std::lock_guard<std::mutex> run_lock(handle.run_mu());
      SteadyClock::time_point check_begin = SteadyClock::now();
      result = handle.session()->grapple->Check(specs);
      check_ms = MsSince(check_begin);
      metrics_.Add(c_check_ns_, static_cast<uint64_t>(check_ms * 1e6));
      session_checks = ++handle.session()->checks;
    } catch (const std::exception& e) {
      // The session stays cached: a failed phase 1 reruns on its next Check.
      state->set_value(fail(500, std::string("check failed: ") + e.what()));
      return;
    }

    // Aggregate reports exactly like examples/analyze_file --json so the
    // `fields=reports` body is byte-identical to the one-shot CLI.
    std::vector<BugReport> all_reports;
    for (const auto& checker : result.checkers) {
      for (const auto& report : checker.reports) {
        all_reports.push_back(report);
      }
    }
    HttpResponse response;
    response.content_type = "application/json";
    if (reports_only) {
      response.body = ReportsToJson(all_reports) + "\n";
    } else {
      obs::JsonWriter json;
      json.BeginObject();
      json.Key("tenant").String(tenant);
      json.Key("warm").Bool(handle.warm());
      json.Key("cached").Bool(true);  // every session is a cached one
      json.Key("session_checks").UInt(session_checks);
      json.Key("queue_ms").Double(queue_ms);
      // This request's Check only: result.report.total_seconds also counts the
      // session's one-time frontend, which warm requests did not run.
      json.Key("check_seconds").Double(check_ms / 1e3);
      json.Key("total_reports").UInt(result.TotalReports());
      json.Key("reports").Raw(ReportsToJson(all_reports));
      json.Key("report").Raw(result.report.ToJson());
      json.EndObject();
      response.body = json.Take() + "\n";
    }
    double total_ms = MsSince(admitted_at);
    RecordLatency(total_ms);
    state->set_value(std::move(response));
  };

  uint64_t ticket = admission_.TryEnqueue(tenant, priority, std::move(run), &why);
  if (ticket == 0) {
    metrics_.Add(c_rejected_);
    bool shutting_down = why.find("shutting down") != std::string::npos;
    return fail(shutting_down ? 503 : 429, why);
  }
  return future.get();
}

void GrappleService::RecordLatency(double total_ms) {
  metrics_.Observe(h_latency_ms_, static_cast<uint64_t>(total_ms));
  std::lock_guard<std::mutex> lock(latency_mu_);
  recent_latency_ms_.push_back(total_ms);
  while (recent_latency_ms_.size() > kLatencyWindow) {
    recent_latency_ms_.pop_front();
  }
}

ServiceStats GrappleService::Stats() const {
  ServiceStats stats;
  stats.admission = admission_.Stats();
  obs::MetricsSnapshot snapshot = metrics_.Snapshot();
  stats.warm_hits = snapshot.CounterOr("service_warm_hits_total");
  stats.cold_misses = snapshot.CounterOr("service_cold_misses_total");
  stats.errors = snapshot.CounterOr("service_errors_total");
  auto cache_stats = cache_.stats();
  stats.evictions = cache_stats.evictions;
  stats.resident_sessions = cache_stats.resident;
  stats.slots_in_use = running_.load(std::memory_order_relaxed);
  std::vector<double> window;
  {
    std::lock_guard<std::mutex> lock(latency_mu_);
    window.assign(recent_latency_ms_.begin(), recent_latency_ms_.end());
  }
  stats.p50_ms = ExactPercentile(window, 50);
  stats.p99_ms = ExactPercentile(window, 99);
  return stats;
}

std::string GrappleService::StatusSourceJson() const {
  ServiceStats stats = Stats();
  obs::JsonWriter json;
  json.BeginObject();
  json.Key("queue").BeginObject();
  json.Key("depth").UInt(stats.admission.depth);
  json.Key("depth_peak").UInt(stats.admission.depth_peak);
  json.Key("capacity").UInt(admission_.capacity());
  json.Key("admitted").UInt(stats.admission.admitted);
  json.Key("rejected").UInt(stats.admission.rejected);
  json.Key("dispatched").UInt(stats.admission.dispatched);
  json.EndObject();
  json.Key("sessions").BeginObject();
  json.Key("resident").UInt(stats.resident_sessions);
  json.Key("max_resident").UInt(options_.max_resident_sessions);
  json.Key("warm_hits").UInt(stats.warm_hits);
  json.Key("cold_misses").UInt(stats.cold_misses);
  json.Key("evictions").UInt(stats.evictions);
  json.EndObject();
  json.Key("slots").BeginObject();
  json.Key("total").UInt(DispatchWorkers());
  json.Key("in_use").UInt(stats.slots_in_use);
  json.EndObject();
  json.Key("tenants").BeginObject();
  for (const auto& [tenant, admitted] : stats.admission.per_tenant_admitted) {
    json.Key(tenant).UInt(admitted);
  }
  json.EndObject();
  json.Key("latency").BeginObject();
  json.Key("p50_ms").Double(stats.p50_ms);
  json.Key("p99_ms").Double(stats.p99_ms);
  size_t window = 0;
  {
    std::lock_guard<std::mutex> lock(latency_mu_);
    window = recent_latency_ms_.size();
  }
  json.Key("window").UInt(window);
  json.EndObject();
  json.Key("errors").UInt(stats.errors);
  json.EndObject();
  return json.Take();
}

}  // namespace grapple
