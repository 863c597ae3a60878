// Service bench: throughput and tail latency of the grappled analysis
// service (src/service/service.h, DESIGN.md §15) under a two-tenant warm
// burst, plus the warm-identity acceptance check.
//
// Flow: start an in-process GrappleService on an ephemeral loopback port,
// issue one cold /check per tenant (each builds a session: frontend +
// phase 1 + phases 2-3), then a concurrent warm burst against the now
// resident sessions. Warm requests skip straight to phases 2-3 off the
// cached alias state, which is exactly the speedup the daemon exists for.
//
// Emitted gauges (gated by scripts/check_bench.py):
//   svc_checks_per_sec    warm burst throughput over the wall clock
//   svc_p50_ms/svc_p99_ms exact percentiles over the warm burst
//   svc_warm_hit_rate     warm hits / all session acquisitions
//   svc_warm_identical    1 when every response body (cold, warm, either
//                         tenant) is byte-identical to the one-shot
//                         aggregation analyze_file --json prints
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/checker/report_json.h"
#include "src/ir/parser.h"
#include "src/service/service.h"
#include "src/support/timer.h"

namespace grapple {
namespace {

// Blocking HTTP/1.0 round trip; empty string on failure.
std::string RoundTrip(int port, const std::string& request) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return "";
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = ::write(fd, request.data() + sent, request.size() - sent);
    if (n <= 0) {
      ::close(fd);
      return "";
    }
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buffer[8192];
  ssize_t n;
  while ((n = ::read(fd, buffer, sizeof(buffer))) > 0) {
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string BodyOf(const std::string& response) {
  size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? std::string() : response.substr(pos + 4);
}

bool IsOk(const std::string& response) {
  return response.find(" 200 ") != std::string::npos &&
         response.find(" 200 ") < response.find('\n');
}

std::string CheckRequest(const std::string& tenant, const std::string& subject) {
  return "POST /check?tenant=" + tenant + "&fields=reports HTTP/1.0\r\nContent-Length: " +
         std::to_string(subject.size()) + "\r\n\r\n" + subject;
}

double Percentile(std::vector<double> values, double percentile) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  size_t index = static_cast<size_t>(percentile / 100.0 * static_cast<double>(values.size()));
  return values[std::min(index, values.size() - 1)];
}

}  // namespace
}  // namespace grapple

int main() {
  using namespace grapple;

  double scale = ScaleFromEnv(0.5);
  WorkloadConfig preset = ZooKeeperPreset(scale);
  Workload workload = GenerateWorkload(preset);
  std::string subject = workload.program.ToString();

  // The ground truth the service must reproduce byte-for-byte: the one-shot
  // aggregation of analyze_file --json over the same subject and checkers.
  // Parse the rendered text (not the in-memory program) so report line
  // numbers come from the same source the service will see.
  std::string expected;
  {
    ParseResult parsed = ParseProgram(subject);
    if (!parsed.ok) {
      std::fprintf(stderr, "service_bench: subject does not re-parse: %s\n",
                   parsed.error.c_str());
      return 1;
    }
    Grapple analyzer(std::move(parsed.program), BenchOptions());
    GrappleResult result = analyzer.Check(AllBuiltinCheckers());
    std::vector<BugReport> all_reports;
    for (const auto& checker : result.checkers) {
      for (const auto& report : checker.reports) {
        all_reports.push_back(report);
      }
    }
    expected = ReportsToJson(all_reports) + "\n";
  }

  ServiceOptions options;
  options.session = BenchOptions();
  options.worker_threads = 4;
  options.checker_slots = 2;
  GrappleService service(options);
  std::string error;
  if (!service.Start(&error)) {
    std::fprintf(stderr, "service_bench: %s\n", error.c_str());
    return 1;
  }
  int port = service.port();

  const std::vector<std::string> tenants = {"alpha", "beta"};
  std::atomic<bool> identical{true};

  // Cold phase: one session build per tenant.
  std::vector<double> cold_ms;
  for (const auto& tenant : tenants) {
    WallTimer timer;
    std::string response = RoundTrip(port, CheckRequest(tenant, subject));
    cold_ms.push_back(timer.ElapsedSeconds() * 1e3);
    if (!IsOk(response) || BodyOf(response) != expected) {
      identical.store(false);
    }
  }

  // Warm burst: concurrent clients per tenant against resident sessions.
  constexpr int kClientsPerTenant = 2;
  constexpr int kRequestsPerClient = 6;
  std::mutex latencies_mu;
  std::vector<double> warm_ms;
  std::vector<std::thread> clients;
  WallTimer burst_timer;
  for (const auto& tenant : tenants) {
    for (int c = 0; c < kClientsPerTenant; ++c) {
      clients.emplace_back([&, tenant] {
        for (int i = 0; i < kRequestsPerClient; ++i) {
          WallTimer timer;
          std::string response = RoundTrip(port, CheckRequest(tenant, subject));
          double ms = timer.ElapsedSeconds() * 1e3;
          if (!IsOk(response) || BodyOf(response) != expected) {
            identical.store(false);
          }
          std::lock_guard<std::mutex> lock(latencies_mu);
          warm_ms.push_back(ms);
        }
      });
    }
  }
  for (auto& client : clients) {
    client.join();
  }
  double burst_seconds = burst_timer.ElapsedSeconds();

  ServiceStats stats = service.Stats();
  uint64_t acquisitions = stats.warm_hits + stats.cold_misses;
  double warm_hit_rate =
      acquisitions > 0 ? static_cast<double>(stats.warm_hits) / static_cast<double>(acquisitions)
                       : 0;
  double checks_per_sec =
      burst_seconds > 0 ? static_cast<double>(warm_ms.size()) / burst_seconds : 0;
  double cold_p50 = Percentile(cold_ms, 50);
  double warm_p50 = Percentile(warm_ms, 50);
  double warm_p99 = Percentile(warm_ms, 99);
  service.Shutdown();

  std::printf("Service: two-tenant warm burst over grappled (scale %.2f)\n", scale);
  std::printf("%-11s %8s %9s %9s %9s %11s %9s %10s\n", "Subject", "warm", "cold p50", "p50",
              "p99", "checks/s", "hit rate", "identical");
  std::printf("%-11s %8zu %8.1fm %8.1fm %8.1fm %11.2f %8.0f%% %10s\n", preset.name.c_str(),
              warm_ms.size(), cold_p50, warm_p50, warm_p99, checks_per_sec,
              100.0 * warm_hit_rate, identical.load() ? "yes" : "NO");
  std::printf("cold requests build the session (frontend + alias + checkers); warm ones\n");
  std::printf("reuse the resident alias state and run phases 2-3 only.\n");

  obs::BenchReport bench("service_bench");
  obs::RunReport run;
  run.subject = preset.name;
  run.total_seconds = burst_seconds;
  run.total_reports = stats.warm_hits + stats.cold_misses;
  obs::PhaseReport phase;
  phase.name = "service";
  phase.seconds = burst_seconds;
  phase.metrics.gauges["svc_checks_per_sec"] = checks_per_sec;
  phase.metrics.gauges["svc_cold_p50_ms"] = cold_p50;
  phase.metrics.gauges["svc_p50_ms"] = warm_p50;
  phase.metrics.gauges["svc_p99_ms"] = warm_p99;
  phase.metrics.gauges["svc_warm_hit_rate"] = warm_hit_rate;
  phase.metrics.gauges["svc_warm_identical"] = identical.load() ? 1 : 0;
  phase.metrics.gauges["svc_rejected"] = static_cast<double>(stats.admission.rejected);
  phase.metrics.gauges["svc_evictions"] = static_cast<double>(stats.evictions);
  run.phases.push_back(std::move(phase));
  bench.Add(std::move(run));
  if (!bench.Write()) {
    return 1;
  }
  return identical.load() ? 0 : 1;
}
