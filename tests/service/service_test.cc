// End-to-end tests of GrappleService over real HTTP: protocol errors,
// warm/cold byte-identity with the one-shot CLI aggregation, multi-tenant
// bursts, introspection, and shutdown hygiene (no leaked work dirs).
#include "src/service/service.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "src/checker/report_json.h"
#include "src/core/grapple.h"
#include "src/ir/parser.h"
#include "tests/obs/json_parse.h"

namespace grapple {
namespace {

constexpr char kLeaky[] = R"(
  method main() {
    obj f : FileWriter
    int x
    x = ?
    f = new FileWriter
    event f open
    if (x > 0) {
      event f close
    }
    return
  }
)";

// kLeaky plus `fillers` uncalled methods with one loop each: a subject
// whose one-time frontend (unrolling, call graph, ICFET) takes milliseconds.
std::string SubjectWithFillers(int fillers) {
  std::string text = kLeaky;
  for (int i = 0; i < fillers; ++i) {
    text += "method filler" + std::to_string(i) +
            "() {\n  int a\n  int b\n  a = ?\n  b = 0\n"
            "  while (a > b) {\n    b = b + 1\n  }\n  return\n}\n";
  }
  return text;
}

// Blocking HTTP/1.0 round trip; returns false on connect/reset.
bool RoundTrip(int port, const std::string& request, std::string* response) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return false;
  }
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = ::write(fd, request.data() + sent, request.size() - sent);
    if (n <= 0) {
      ::close(fd);
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  response->clear();
  char buffer[8192];
  for (;;) {
    ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n < 0) {
      ::close(fd);
      return false;
    }
    if (n == 0) {
      break;
    }
    response->append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return !response->empty();
}

std::string CheckRequest(const std::string& query, const std::string& body) {
  return "POST /check" + query + " HTTP/1.0\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

int StatusOf(const std::string& response) {
  size_t space = response.find(' ');
  if (space == std::string::npos) {
    return 0;
  }
  return std::atoi(response.c_str() + space + 1);
}

std::string BodyOf(const std::string& response) {
  size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? std::string() : response.substr(pos + 4);
}

// Session dirs are named after the fingerprint, so its values are pinned:
// a change of hash here would orphan every resident session dir.
TEST(SubjectFingerprintTest, ValuesArePinned) {
  EXPECT_EQ(SubjectFingerprint("acme", "method main() {\n  return\n}\n"),
            0x60bdfe1da67f414cULL);
  EXPECT_EQ(SubjectFingerprint("", ""), 0x44bd2bd473ccf799ULL);
  EXPECT_NE(SubjectFingerprint("a", "b"), SubjectFingerprint("ab", ""));
}

class ServiceTest : public ::testing::Test {
 protected:
  void StartService(ServiceOptions options) {
    service_ = std::make_unique<GrappleService>(options);
    std::string error;
    ASSERT_TRUE(service_->Start(&error)) << error;
    port_ = service_->port();
  }

  std::unique_ptr<GrappleService> service_;
  int port_ = 0;
};

TEST_F(ServiceTest, RejectsMalformedCheckRequests) {
  StartService(ServiceOptions{});
  std::string response;
  // GET on /check.
  ASSERT_TRUE(RoundTrip(port_, "GET /check HTTP/1.0\r\n\r\n", &response));
  EXPECT_EQ(StatusOf(response), 400);
  // Empty body.
  ASSERT_TRUE(RoundTrip(port_, CheckRequest("", ""), &response));
  EXPECT_EQ(StatusOf(response), 400);
  // Unknown checker.
  ASSERT_TRUE(RoundTrip(port_, CheckRequest("?checkers=bogus", kLeaky), &response));
  EXPECT_EQ(StatusOf(response), 400);
  EXPECT_NE(BodyOf(response).find("bogus"), std::string::npos);
  // Subject that does not parse.
  ASSERT_TRUE(RoundTrip(port_, CheckRequest("", "not a program"), &response));
  EXPECT_EQ(StatusOf(response), 400);
  EXPECT_NE(BodyOf(response).find("parse error"), std::string::npos);
  // Subject that parses but is ill-formed: a call with the wrong arity.
  constexpr char kBadArity[] = R"(
    method use(obj f : FileWriter, int k) {
      return
    }
    method main() {
      obj f : FileWriter
      f = new FileWriter
      call use(f)
      return
    }
  )";
  ASSERT_TRUE(RoundTrip(port_, CheckRequest("", kBadArity), &response));
  EXPECT_EQ(StatusOf(response), 400);
  EXPECT_NE(BodyOf(response).find("passes 1 args, expected 2"), std::string::npos)
      << BodyOf(response);
  EXPECT_EQ(service_->Stats().errors, 5u);
}

// The service's core contract: with fields=reports the body is
// byte-identical to the one-shot aggregation (analyze_file --json), cold
// and warm alike.
TEST_F(ServiceTest, WarmResponseIsByteIdenticalToColdAndToOneShot) {
  StartService(ServiceOptions{});
  std::string expected;
  {
    ParseResult parsed = ParseProgram(kLeaky);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    Grapple analyzer(std::move(parsed.program));
    GrappleResult result = analyzer.Check(AllBuiltinCheckers());
    std::vector<BugReport> all_reports;
    for (const auto& checker : result.checkers) {
      for (const auto& report : checker.reports) {
        all_reports.push_back(report);
      }
    }
    expected = ReportsToJson(all_reports) + "\n";
  }
  std::string cold;
  ASSERT_TRUE(RoundTrip(port_, CheckRequest("?tenant=t0&fields=reports", kLeaky), &cold));
  ASSERT_EQ(StatusOf(cold), 200);
  std::string warm;
  ASSERT_TRUE(RoundTrip(port_, CheckRequest("?tenant=t0&fields=reports", kLeaky), &warm));
  ASSERT_EQ(StatusOf(warm), 200);
  EXPECT_EQ(BodyOf(cold), expected);
  EXPECT_EQ(BodyOf(warm), expected);

  ServiceStats stats = service_->Stats();
  EXPECT_EQ(stats.cold_misses, 1u);
  EXPECT_EQ(stats.warm_hits, 1u);
}

TEST_F(ServiceTest, EnvelopeCarriesServiceMetadataAndRunReport) {
  StartService(ServiceOptions{});
  std::string first;
  ASSERT_TRUE(RoundTrip(port_, CheckRequest("?tenant=t0", kLeaky), &first));
  ASSERT_EQ(StatusOf(first), 200);
  EXPECT_NE(BodyOf(first).find("\"warm\":false"), std::string::npos);
  EXPECT_NE(BodyOf(first).find("\"reports\":["), std::string::npos);
  // The obs::RunReport rides along: phase entries for alias + typestates.
  EXPECT_NE(BodyOf(first).find("\"phases\""), std::string::npos);
  EXPECT_NE(BodyOf(first).find("\"alias\""), std::string::npos);
  std::string second;
  ASSERT_TRUE(RoundTrip(port_, CheckRequest("?tenant=t0", kLeaky), &second));
  EXPECT_NE(BodyOf(second).find("\"warm\":true"), std::string::npos);
  EXPECT_NE(BodyOf(second).find("\"session_checks\":2"), std::string::npos);
}

// check_seconds times this request's Check alone. The run report's
// total_seconds also counts the session's one-time frontend, which a warm
// request did not run, so the two must differ by about frontend_seconds.
TEST_F(ServiceTest, WarmCheckSecondsExcludesSessionFrontend) {
  StartService(ServiceOptions{});
  std::string subject = SubjectWithFillers(1000);
  std::string response;
  ASSERT_TRUE(RoundTrip(port_, CheckRequest("?tenant=t0", subject), &response));
  ASSERT_EQ(StatusOf(response), 200);
  ASSERT_TRUE(RoundTrip(port_, CheckRequest("?tenant=t0", subject), &response));
  ASSERT_EQ(StatusOf(response), 200);
  EXPECT_NE(BodyOf(response).find("\"warm\":true"), std::string::npos);
  std::string error;
  std::optional<obs::JsonValue> doc = obs::ParseJson(BodyOf(response), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const obs::JsonValue* report = doc->Find("report");
  ASSERT_NE(report, nullptr);
  double check = doc->NumberOr("check_seconds", -1);
  double frontend = report->NumberOr("frontend_seconds", -1);
  double total = report->NumberOr("total_seconds", -1);
  ASSERT_GT(frontend, 0);
  EXPECT_GT(check, 0);
  EXPECT_LT(check, total - frontend / 2)
      << "check=" << check << " frontend=" << frontend << " total=" << total;
}

// Sessions are per tenant even for identical subjects: isolation beats
// dedup across trust boundaries.
TEST_F(ServiceTest, TenantsGetSeparateSessionsAndWorkDirs) {
  StartService(ServiceOptions{});
  std::string response;
  ASSERT_TRUE(RoundTrip(port_, CheckRequest("?tenant=alice", kLeaky), &response));
  ASSERT_EQ(StatusOf(response), 200);
  ASSERT_TRUE(RoundTrip(port_, CheckRequest("?tenant=bob", kLeaky), &response));
  ASSERT_EQ(StatusOf(response), 200);
  ServiceStats stats = service_->Stats();
  EXPECT_EQ(stats.cold_misses, 2u);
  EXPECT_EQ(stats.resident_sessions, 2u);
  EXPECT_TRUE(std::filesystem::exists(service_->work_root() + "/alice"));
  EXPECT_TRUE(std::filesystem::exists(service_->work_root() + "/bob"));
  EXPECT_EQ(stats.admission.per_tenant_admitted.size(), 2u);
}

TEST_F(ServiceTest, ConcurrentMultiTenantBurst) {
  ServiceOptions options;
  options.worker_threads = 4;
  options.checker_slots = 2;
  StartService(options);
  constexpr int kTenants = 3;
  constexpr int kPerTenant = 4;
  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kTenants; ++t) {
    for (int i = 0; i < kPerTenant; ++i) {
      clients.emplace_back([this, t, &ok] {
        std::string response;
        std::string query = "?tenant=tenant" + std::to_string(t) + "&fields=reports";
        if (RoundTrip(port_, CheckRequest(query, kLeaky), &response) &&
            StatusOf(response) == 200) {
          ok.fetch_add(1);
        }
      });
    }
  }
  for (auto& client : clients) {
    client.join();
  }
  EXPECT_EQ(ok.load(), kTenants * kPerTenant);
  ServiceStats stats = service_->Stats();
  // One cold build per (tenant, subject); everyone else shared it warm.
  EXPECT_EQ(stats.cold_misses + stats.bypasses, static_cast<uint64_t>(kTenants));
  EXPECT_EQ(stats.warm_hits, static_cast<uint64_t>(kTenants * (kPerTenant - 1)));
  EXPECT_EQ(stats.admission.per_tenant_admitted.size(), static_cast<size_t>(kTenants));
  EXPECT_GT(stats.p99_ms, 0.0);
}

// Budget pressure mid-flight: trimming evicts only idle sessions; requests
// already holding a session finish on it.
TEST_F(ServiceTest, TrimNeverDropsInFlightSessions) {
  ServiceOptions options;
  options.max_resident_sessions = 4;
  StartService(options);
  std::string response;
  ASSERT_TRUE(RoundTrip(port_, CheckRequest("?tenant=idle", kLeaky), &response));
  ASSERT_EQ(StatusOf(response), 200);

  std::atomic<bool> trimming{true};
  std::thread trimmer([&] {
    while (trimming.load()) {
      service_->TrimSessions(0);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < 6; ++i) {
    clients.emplace_back([this, &ok] {
      std::string inner;
      if (RoundTrip(port_, CheckRequest("?tenant=busy&fields=reports", kLeaky), &inner) &&
          StatusOf(inner) == 200) {
        ok.fetch_add(1);
      }
    });
  }
  for (auto& client : clients) {
    client.join();
  }
  trimming.store(false);
  trimmer.join();
  // Every request succeeded despite continuous eviction pressure.
  EXPECT_EQ(ok.load(), 6);
  EXPECT_GT(service_->Stats().evictions, 0u);
}

TEST_F(ServiceTest, IntrospectionPagesAreServedOnTheSamePort) {
  StartService(ServiceOptions{});
  std::string response;
  ASSERT_TRUE(RoundTrip(port_, CheckRequest("?tenant=t0", kLeaky), &response));
  ASSERT_EQ(StatusOf(response), 200);
  ASSERT_TRUE(RoundTrip(port_, "GET /healthz HTTP/1.0\r\n\r\n", &response));
  EXPECT_EQ(StatusOf(response), 200);
  ASSERT_TRUE(RoundTrip(port_, "GET /statusz HTTP/1.0\r\n\r\n", &response));
  EXPECT_EQ(StatusOf(response), 200);
  EXPECT_NE(response.find("\"service\""), std::string::npos);
  EXPECT_NE(response.find("\"queue\""), std::string::npos);
  EXPECT_NE(response.find("\"p99_ms\""), std::string::npos);
  ASSERT_TRUE(RoundTrip(port_, "GET /metricsz HTTP/1.0\r\n\r\n", &response));
  EXPECT_EQ(StatusOf(response), 200);
  EXPECT_NE(response.find("grapple_service_requests_total"), std::string::npos);
}

// A warm check spills only into dirs that die with its engine runs, so a
// resident session holds no files however many checks it has served.
TEST_F(ServiceTest, WarmChecksLeaveNoFilesInTheSessionDir) {
  StartService(ServiceOptions{});
  std::string response;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(RoundTrip(port_, CheckRequest("?tenant=t0", kLeaky), &response));
    ASSERT_EQ(StatusOf(response), 200);
  }
  EXPECT_NE(BodyOf(response).find("\"session_checks\":5"), std::string::npos);
  std::string session_dir = service_->work_root() + "/t0";
  ASSERT_TRUE(std::filesystem::exists(session_dir));
  for (const auto& entry : std::filesystem::recursive_directory_iterator(session_dir)) {
    EXPECT_FALSE(entry.is_regular_file()) << entry.path();
  }
}

TEST_F(ServiceTest, ShutdownRemovesWorkRootAndRejectsLateRequests) {
  StartService(ServiceOptions{});
  std::string work_root = service_->work_root();
  std::string response;
  ASSERT_TRUE(RoundTrip(port_, CheckRequest("?tenant=t0", kLeaky), &response));
  ASSERT_EQ(StatusOf(response), 200);
  ASSERT_TRUE(std::filesystem::exists(work_root));
  service_->Shutdown();
  EXPECT_FALSE(std::filesystem::exists(work_root)) << "leaked work dirs under " << work_root;
  // The listener is gone; connections are refused, not hung.
  EXPECT_FALSE(RoundTrip(port_, CheckRequest("?tenant=t0", kLeaky), &response));
  service_->Shutdown();  // idempotent
}

}  // namespace
}  // namespace grapple
