// Live introspection endpoint: page routing/rendering, the Prometheus
// exposition, the registration hub, and a real HTTP scrape against a
// running analysis. Own test binary: it binds sockets and mutates the
// process-wide statusz singletons.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>

#include "src/checker/builtin_checkers.h"
#include "src/core/grapple.h"
#include "src/ir/parser.h"
#include "src/obs/statusz.h"
#include "tests/obs/json_parse.h"

namespace grapple {
namespace obs {
namespace {

// Minimal HTTP/1.0 client: one request, reads to EOF.
std::string HttpGet(int port, const std::string& path_and_query, int* status_out = nullptr) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return "";
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  std::string request = "GET " + path_and_query + " HTTP/1.0\r\n\r\n";
  (void)!::write(fd, request.data(), request.size());
  std::string response;
  char buffer[4096];
  ssize_t n;
  while ((n = ::read(fd, buffer, sizeof(buffer))) > 0) {
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  if (status_out != nullptr) {
    *status_out = 0;
    size_t space = response.find(' ');
    if (space != std::string::npos) {
      *status_out = std::atoi(response.c_str() + space + 1);
    }
  }
  size_t body = response.find("\r\n\r\n");
  return body == std::string::npos ? "" : response.substr(body + 4);
}

TEST(StatuszTest, PageRouting) {
  IntrospectionPage healthz = RenderIntrospectionPage("/healthz");
  EXPECT_EQ(healthz.status, 200);
  EXPECT_EQ(healthz.body, "ok\n");

  EXPECT_EQ(RenderIntrospectionPage("/statusz").status, 200);
  EXPECT_EQ(RenderIntrospectionPage("/metricsz").status, 200);
  EXPECT_EQ(RenderIntrospectionPage("/tracez").status, 200);
  EXPECT_EQ(RenderIntrospectionPage("/varz").status, 404);  // removed route
  IntrospectionPage missing = RenderIntrospectionPage("/nonsense");
  EXPECT_EQ(missing.status, 404);
  // The 404 page advertises every route, including the profiler's.
  EXPECT_NE(missing.body.find("/profilez"), std::string::npos);

  // /profilez always serves valid profile JSON, even with the profiler off.
  IntrospectionPage profilez = RenderIntrospectionPage("/profilez");
  EXPECT_EQ(profilez.status, 200);
  EXPECT_EQ(profilez.content_type, "application/json");
  std::string error;
  std::optional<JsonValue> doc = ParseJson(profilez.body, &error);
  ASSERT_TRUE(doc.has_value()) << error << "\n" << profilez.body;
  EXPECT_EQ(doc->StringOr("schema", ""), "grapple.profile.v1");
}

TEST(StatuszTest, GaugeSourcesSumAndUnregister) {
  {
    Introspection::Handle a =
        Introspection::RegisterGaugeSource("statusz_test_gauge", [] { return 2.0; });
    Introspection::Handle b =
        Introspection::RegisterGaugeSource("statusz_test_gauge", [] { return 3.0; });
    std::map<std::string, double> gauges = Introspection::RuntimeGauges();
    EXPECT_DOUBLE_EQ(gauges["statusz_test_gauge"], 5.0);
  }
  // Handles released: the name disappears.
  std::map<std::string, double> gauges = Introspection::RuntimeGauges();
  EXPECT_EQ(gauges.count("statusz_test_gauge"), 0u);
  // Built-in process gauge is always there (Linux).
  EXPECT_GT(gauges.count("rss_bytes"), 0u);
}

TEST(StatuszTest, StatusSourcesRenderAsJson) {
  Introspection::Handle status = Introspection::RegisterStatusSource(
      "statusz_test_source", [] { return std::string("{\"answer\":42}"); });
  std::string json = Introspection::StatusJson();
  std::string error;
  std::optional<JsonValue> doc = ParseJson(json, &error);
  ASSERT_TRUE(doc.has_value()) << error << "\n" << json;
  const JsonValue* sources = doc->Find("sources");
  ASSERT_NE(sources, nullptr);
  const JsonValue* mine = sources->Find("statusz_test_source");
  ASSERT_NE(mine, nullptr);
  EXPECT_EQ(mine->NumberOr("answer", -1), 42.0);
}

TEST(StatuszTest, PrometheusExposition) {
  MetricsSnapshot snapshot;
  snapshot.counters["engine_pair_loads_total"] = 7;
  snapshot.gauges["engine_num_partitions"] = 3.5;
  HistogramSnapshot hist;
  hist.count = 2;
  hist.sum = 10;
  snapshot.histograms["oracle_solve_ns"] = hist;
  std::map<std::string, double> runtime{{"rss_bytes", 1024.0}};

  std::string text = RenderPrometheus(snapshot, runtime);
  EXPECT_NE(text.find("# TYPE grapple_engine_pair_loads_total counter"), std::string::npos);
  EXPECT_NE(text.find("grapple_engine_pair_loads_total 7"), std::string::npos);
  EXPECT_NE(text.find("grapple_engine_num_partitions 3.5"), std::string::npos);
  EXPECT_NE(text.find("grapple_oracle_solve_ns_count 2"), std::string::npos);
  EXPECT_NE(text.find("grapple_oracle_solve_ns_sum 10"), std::string::npos);
  EXPECT_NE(text.find("grapple_rss_bytes 1024"), std::string::npos);

  // Every series carries a # HELP line immediately before its # TYPE line
  // (prometheus exposition format), whether hand-written or derived.
  EXPECT_NE(text.find("# HELP grapple_engine_pair_loads_total "), std::string::npos);
  EXPECT_NE(text.find("# HELP grapple_engine_num_partitions "), std::string::npos);
  EXPECT_NE(text.find("# HELP grapple_oracle_solve_ns "), std::string::npos);
  EXPECT_NE(text.find("# HELP grapple_rss_bytes Resident set size"), std::string::npos);
  size_t help_lines = 0;
  size_t type_lines = 0;
  for (size_t pos = 0; (pos = text.find("# HELP ", pos)) != std::string::npos; ++pos) {
    ++help_lines;
  }
  for (size_t pos = 0; (pos = text.find("# TYPE ", pos)) != std::string::npos; ++pos) {
    ++type_lines;
  }
  EXPECT_EQ(help_lines, type_lines);
  EXPECT_EQ(help_lines, 4u);
}

TEST(StatuszTest, ServerStartStopIdempotent) {
  std::string error;
  ASSERT_TRUE(StartStatusz(0, &error)) << error;
  EXPECT_TRUE(StatuszRunning());
  int port = StatuszPort();
  EXPECT_GT(port, 0);
  EXPECT_TRUE(StartStatusz(0, &error));  // second start: keeps the first
  EXPECT_EQ(StatuszPort(), port);

  int status = 0;
  EXPECT_EQ(HttpGet(port, "/healthz", &status), "ok\n");
  EXPECT_EQ(status, 200);

  StopStatusz();
  EXPECT_FALSE(StatuszRunning());
  StopStatusz();  // idempotent
  EXPECT_FALSE(StatuszRunning());
}

constexpr char kProgram[] = R"(
method main() {
  obj out : FileWriter
  int x
  x = ?
  if (x >= 0) {
    out = new FileWriter
    event out open
    event out write
  }
  return
}
)";

// The satellite e2e: a session with statusz on, scraped over real HTTP
// while (and after) checkers run. Payloads must stay well-formed at every
// point in the run.
TEST(StatuszTest, ScrapeDuringAnalysisRun) {
  ParseResult parsed = ParseProgram(kProgram);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  GrappleOptions options;
  options.observability.statusz_port = 0;  // ephemeral
  Grapple analyzer(std::move(parsed.program), options);
  ASSERT_TRUE(StatuszRunning());
  int port = StatuszPort();
  ASSERT_GT(port, 0);

  std::atomic<bool> done{false};
  std::atomic<bool> scraping{false};
  std::atomic<int> scrapes{0};
  std::thread scraper([&] {
    while (!done.load(std::memory_order_acquire)) {
      scraping.store(true, std::memory_order_release);
      int status = 0;
      std::string body = HttpGet(port, "/statusz", &status);
      if (status == 200) {
        std::string error;
        EXPECT_TRUE(ParseJson(body, &error).has_value()) << error;
        scrapes.fetch_add(1, std::memory_order_relaxed);
      }
      std::string metrics = HttpGet(port, "/metricsz", &status);
      if (status == 200) {
        EXPECT_NE(metrics.find("grapple_"), std::string::npos);
      }
    }
  });
  // A small Check can finish before the scraper thread is first scheduled;
  // start it only once the scraper is inside its loop, so at least one
  // scrape overlaps the run (or completes right after it).
  while (!scraping.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  GrappleResult result = analyzer.Check(AllBuiltinCheckers());
  done.store(true, std::memory_order_release);
  scraper.join();
  EXPECT_GT(scrapes.load(), 0);
  EXPECT_GE(result.TotalReports(), 1u);

  // After the run, /statusz names every checker with a terminal state.
  int status = 0;
  std::string body = HttpGet(port, "/statusz", &status);
  ASSERT_EQ(status, 200);
  std::string error;
  std::optional<JsonValue> doc = ParseJson(body, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const JsonValue* sources = doc->Find("sources");
  ASSERT_NE(sources, nullptr);
  const JsonValue* session = sources->Find("session");
  ASSERT_NE(session, nullptr);
  const JsonValue* checkers = session->Find("checkers");
  ASSERT_NE(checkers, nullptr);
  EXPECT_EQ(checkers->members.size(), AllBuiltinCheckers().size());
  for (const auto& [name, state] : checkers->members) {
    EXPECT_NE(state.string_value.find("done"), std::string::npos)
        << name << " = " << state.string_value;
  }

  // /tracez serves the flight-recorder tail as JSON.
  std::string tracez = HttpGet(port, "/tracez", &status);
  ASSERT_EQ(status, 200);
  EXPECT_TRUE(ParseJson(tracez, &error).has_value()) << error;
}

}  // namespace
}  // namespace obs
}  // namespace grapple
