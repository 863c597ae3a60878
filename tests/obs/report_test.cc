// Run reports: JSON writer/parser round trips, golden-file parse checks of
// the run-report JSON, and — on a real engine run — the guarantee that the
// metrics snapshot, the one record of an engine run, carries every counter
// the reports render.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "src/cfg/call_graph.h"
#include "src/cfg/loop_unroll.h"
#include "src/graph/engine.h"
#include "src/ir/parser.h"
#include "src/obs/json.h"
#include "src/obs/report.h"
#include "src/symexec/cfet_builder.h"
#include "tests/obs/json_parse.h"

namespace grapple {
namespace {

using obs::JsonValue;
using obs::JsonWriter;
using obs::MetricsSnapshot;
using obs::ParseJson;

TEST(JsonWriterTest, RoundTripsThroughParser) {
  JsonWriter w;
  w.BeginObject();
  w.Key("name").String("quote\" and \\ and \n newline");
  w.Key("count").UInt(12345678901234ull);
  w.Key("ratio").Double(0.25);
  w.Key("flag").Bool(true);
  w.Key("nothing").Null();
  w.Key("list").BeginArray().Int(-3).Int(0).Int(7).EndArray();
  w.Key("nested").BeginObject().Key("k").String("v").EndObject();
  w.EndObject();
  std::string error;
  std::optional<JsonValue> doc = ParseJson(w.Take(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->StringOr("name", ""), "quote\" and \\ and \n newline");
  EXPECT_EQ(doc->NumberOr("count", 0), 12345678901234.0);
  EXPECT_EQ(doc->NumberOr("ratio", 0), 0.25);
  const JsonValue* list = doc->Find("list");
  ASSERT_NE(list, nullptr);
  ASSERT_EQ(list->items.size(), 3u);
  EXPECT_EQ(list->items[0].number_value, -3);
  const JsonValue* nested = doc->Find("nested");
  ASSERT_NE(nested, nullptr);
  EXPECT_EQ(nested->StringOr("k", ""), "v");
}

TEST(CostBreakdownTest, AccumulateSplitsJoinTime) {
  MetricsSnapshot snapshot;
  snapshot.counters["phase_io_ns"] = 2000000000;      // 2s
  snapshot.counters["phase_join_ns"] = 10000000000;   // 10s
  snapshot.counters["oracle_lookup_ns"] = 1000000000; // 1s
  snapshot.counters["oracle_solve_ns"] = 4000000000;  // 4s
  obs::CostBreakdown breakdown;
  breakdown.Accumulate(snapshot);
  EXPECT_DOUBLE_EQ(breakdown.io, 2.0);
  EXPECT_DOUBLE_EQ(breakdown.lookup, 1.0);
  EXPECT_DOUBLE_EQ(breakdown.solve, 4.0);
  EXPECT_DOUBLE_EQ(breakdown.edge, 5.0);  // join - lookup - solve
  EXPECT_DOUBLE_EQ(breakdown.Total(), 12.0);
  EXPECT_DOUBLE_EQ(breakdown.Pct(breakdown.io), 100.0 * 2.0 / 12.0);
}

// The real-engine fixture from the engine tests, reused so the report is
// validated against genuine instrumentation rather than hand-built numbers.
class ReportEngineTest : public ::testing::Test {
 protected:
  ReportEngineTest() {
    // Same two-branch method as the engine tests: interval [0,0,2] is the
    // x >= 0 branch, [0,0,1] the x < 0 branch, so composing them is unsat.
    ParseResult parsed = ParseProgram(R"(
      method m(int x) {
        int y
        y = x
        if (x >= 0) {
          y = x - 1
        } else {
          y = x + 1
        }
        if (y > 0) {
          y = 0
        }
        return
      }
    )");
    EXPECT_TRUE(parsed.ok) << parsed.error;
    program_ = std::move(parsed.program);
    UnrollLoops(&program_, 2);
    call_graph_ = std::make_unique<CallGraph>(program_);
    icfet_ = BuildIcfet(program_, *call_graph_);
    edge_ = grammar_.Intern("edge");
    path_ = grammar_.Intern("path");
    grammar_.AddUnary(edge_, path_);
    grammar_.AddBinary(path_, edge_, path_);
  }

  // Runs a small closure with one infeasible composition so engine and
  // oracle counters are all non-trivial.
  void RunEngine(GraphEngine* engine) {
    engine->AddBaseEdge(0, 1, edge_, PathEncoding::Interval(0, 0, 2));
    engine->AddBaseEdge(1, 2, edge_, PathEncoding::Interval(0, 0, 1));
    engine->AddBaseEdge(2, 3, edge_, PathEncoding::Empty());
    engine->Finalize(4);
    engine->Run();
  }

  Program program_;
  std::unique_ptr<CallGraph> call_graph_;
  Icfet icfet_;
  Grammar grammar_;
  Label edge_ = kNoLabel;
  Label path_ = kNoLabel;
};

// The merged snapshot is the engine run's one record: it carries the
// engine's counters, the oracle's, and the phase timers Figure 9 reads.
TEST_F(ReportEngineTest, SnapshotCarriesEngineOracleAndPhaseCounters) {
  TempDir dir("report-snapshot");
  IntervalOracle oracle(&icfet_);
  EngineOptions options;
  options.work_dir = dir.path();
  GraphEngine engine(&grammar_, &oracle, options);
  RunEngine(&engine);

  const MetricsSnapshot m = engine.Metrics();
  EXPECT_GT(m.CounterOr("engine_base_edges_total"), 0u);
  EXPECT_GE(m.CounterOr("engine_final_edges_total"), m.CounterOr("engine_base_edges_total"));
  EXPECT_GT(m.CounterOr("engine_pair_loads_total"), 0u);
  EXPECT_GT(m.CounterOr("engine_joins_attempted_total"), 0u);
  EXPECT_GE(m.GaugeOr("engine_peak_partitions"), m.GaugeOr("engine_num_partitions"));
  EXPECT_GT(m.GaugeOr("engine_num_partitions"), 0.0);
  EXPECT_EQ(m.GaugeOr("engine_timed_out", -1), 0.0);
  EXPECT_GT(m.counters.count("engine_preprocess_ns"), 0u);
  EXPECT_GT(m.counters.count("engine_compute_ns"), 0u);

  // The oracle's counters are merged in unchanged; a merge is either a memo
  // hit or a checked pair.
  EXPECT_GT(m.CounterOr("oracle_merges_total"), 0u);
  EXPECT_EQ(m.CounterOr("oracle_merges_total"),
            m.CounterOr("oracle_constraints_checked_total") + m.CounterOr("oracle_cache_hits_total"));
  EXPECT_EQ(oracle.Metrics().CounterOr("oracle_merges_total"), m.CounterOr("oracle_merges_total"));

  // phase_<name>_ns timers for the join and io phases are registered.
  for (const char* phase : {"join", "io"}) {
    std::string counter = std::string(obs::kPhaseNsPrefix) + phase + obs::kPhaseNsSuffix;
    EXPECT_GT(m.counters.count(counter), 0u) << counter;
  }
  // Checkpointing is off, so its counter is never registered.
  EXPECT_EQ(m.counters.count("phase_ckpt_ns"), 0u);

  // An unsat composition happened and the engine counted the pruned join.
  EXPECT_GT(m.CounterOr("engine_unsat_pruned_total"), 0u);
}

// On a spilling run every phase counter is charged; phase_ckpt_ns exists
// only when checkpointing is on.
TEST_F(ReportEngineTest, PhaseCountersChargeIoJoinAndCheckpoint) {
  for (uint32_t interval : {0u, 1u}) {
    SCOPED_TRACE("checkpoint_interval=" + std::to_string(interval));
    TempDir dir("report-phases");
    IntervalOracle oracle(&icfet_);
    EngineOptions options;
    options.work_dir = dir.path();
    options.memory_budget_bytes = 4096;
    options.checkpoint_interval = interval;
    options.checkpoint_min_spacing_seconds = 0;
    GraphEngine engine(&grammar_, &oracle, options);
    constexpr VertexId kChain = 16;
    for (VertexId v = 0; v < kChain; ++v) {
      engine.AddBaseEdge(v, v + 1, edge_, PathEncoding::Empty());
    }
    engine.Finalize(kChain + 1);
    engine.Run();

    const MetricsSnapshot m = engine.Metrics();
    EXPECT_GT(m.GaugeOr("engine_peak_partitions"), 1.0);
    EXPECT_GT(m.CounterOr("phase_io_ns"), 0u);
    EXPECT_GT(m.CounterOr("phase_join_ns"), 0u);
    if (interval == 0) {
      EXPECT_EQ(m.counters.count("phase_ckpt_ns"), 0u);
    } else {
      EXPECT_GT(m.CounterOr("ckpt_written_total"), 0u);
      EXPECT_GT(m.CounterOr("phase_ckpt_ns"), 0u);
    }
  }
}

TEST_F(ReportEngineTest, RunReportJsonParsesAndMatchesSnapshot) {
  TempDir dir("report-json");
  IntervalOracle oracle(&icfet_);
  EngineOptions options;
  options.work_dir = dir.path();
  GraphEngine engine(&grammar_, &oracle, options);
  RunEngine(&engine);
  const MetricsSnapshot m = engine.Metrics();
  const uint64_t final_edges = m.CounterOr("engine_final_edges_total");

  obs::RunReport report;
  report.subject = "unit";
  report.total_seconds = 1.5;
  report.total_reports = 2;
  obs::PhaseReport phase;
  phase.name = "closure";
  phase.num_vertices = 4;
  phase.edges_before = 3;
  phase.edges_after = final_edges;
  phase.metrics = m;
  report.phases.push_back(phase);

  std::string error;
  std::optional<JsonValue> doc = ParseJson(report.ToJson(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->StringOr("schema", ""), "grapple.run_report.v1");
  EXPECT_EQ(doc->StringOr("subject", ""), "unit");
  EXPECT_EQ(doc->NumberOr("total_reports", -1), 2);
  const JsonValue* breakdown = doc->Find("breakdown");
  ASSERT_NE(breakdown, nullptr);
  EXPECT_GE(breakdown->NumberOr("io_seconds", -1), 0);
  const JsonValue* phases = doc->Find("phases");
  ASSERT_NE(phases, nullptr);
  ASSERT_EQ(phases->items.size(), 1u);
  const JsonValue& p0 = phases->items[0];
  EXPECT_EQ(p0.StringOr("name", ""), "closure");
  EXPECT_EQ(p0.NumberOr("edges_after", 0), static_cast<double>(final_edges));
  const JsonValue* metrics = p0.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  const JsonValue* counters = metrics->Find("counters");
  ASSERT_NE(counters, nullptr);
  // Counter totals in the serialized report equal the snapshot's.
  EXPECT_EQ(counters->NumberOr("engine_pair_loads_total", -1),
            static_cast<double>(m.CounterOr("engine_pair_loads_total")));
  EXPECT_EQ(counters->NumberOr("engine_final_edges_total", -1),
            static_cast<double>(final_edges));
  EXPECT_EQ(counters->NumberOr("oracle_merges_total", -1),
            static_cast<double>(m.CounterOr("oracle_merges_total")));
  const JsonValue* histograms = metrics->Find("histograms");
  ASSERT_NE(histograms, nullptr);
  const JsonValue* join_hist = histograms->Find("engine_join_round_joins");
  ASSERT_NE(join_hist, nullptr);
  EXPECT_EQ(join_hist->NumberOr("count", 0),
            static_cast<double>(m.CounterOr("engine_join_rounds_total")));

  // The text renderings are built from the same snapshot and must carry the
  // same headline numbers.
  std::string summary = obs::RenderEngineSummary(m);
  EXPECT_NE(summary.find("-> " + std::to_string(final_edges)), std::string::npos);
  EXPECT_NE(report.ToText().find("closure"), std::string::npos);
}

TEST_F(ReportEngineTest, BenchReportJsonParses) {
  TempDir dir("report-bench");
  IntervalOracle oracle(&icfet_);
  EngineOptions options;
  options.work_dir = dir.path();
  GraphEngine engine(&grammar_, &oracle, options);
  RunEngine(&engine);

  obs::BenchReport bench("unit_bench");
  bench.AddSnapshot("subject_a", "closure", engine.Metrics());
  std::string error;
  std::optional<JsonValue> doc = ParseJson(bench.ToJson(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->StringOr("schema", ""), "grapple.bench_report.v1");
  EXPECT_EQ(doc->StringOr("bench", ""), "unit_bench");
  const JsonValue* subjects = doc->Find("subjects");
  ASSERT_NE(subjects, nullptr);
  ASSERT_EQ(subjects->items.size(), 1u);
  EXPECT_EQ(subjects->items[0].StringOr("subject", ""), "subject_a");
}

// End-to-end: GRAPPLE_REPORT_DIR steers BenchReport::Write, and the file on
// disk parses back with the expected schema and content.
TEST_F(ReportEngineTest, ReportDirEnvSteersBenchWriteEndToEnd) {
  TempDir work("report-dir-work");
  TempDir report_dir("report-dir-out");
  ::setenv("GRAPPLE_REPORT_DIR", report_dir.path().c_str(), 1);

  IntervalOracle oracle(&icfet_);
  EngineOptions options;
  options.work_dir = work.path();
  GraphEngine engine(&grammar_, &oracle, options);
  RunEngine(&engine);

  obs::BenchReport bench("env_e2e");
  bench.AddSnapshot("subject_a", "closure", engine.Metrics());
  std::string path = bench.Path();
  EXPECT_EQ(path, report_dir.path() + "/BENCH_env_e2e.json");
  ASSERT_TRUE(bench.Write());
  ::unsetenv("GRAPPLE_REPORT_DIR");

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string text = buffer.str();
  ASSERT_FALSE(text.empty());
  std::string error;
  std::optional<JsonValue> doc = ParseJson(text, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->StringOr("schema", ""), "grapple.bench_report.v1");
  EXPECT_EQ(doc->StringOr("bench", ""), "env_e2e");
  const JsonValue* subjects = doc->Find("subjects");
  ASSERT_NE(subjects, nullptr);
  ASSERT_EQ(subjects->items.size(), 1u);
  // Each subject is a full RunReport; metrics hang off its phases.
  const JsonValue* phases = subjects->items[0].Find("phases");
  ASSERT_NE(phases, nullptr);
  ASSERT_EQ(phases->items.size(), 1u);
  const JsonValue* metrics = phases->items[0].Find("metrics");
  ASSERT_NE(metrics, nullptr);
  const JsonValue* counters = metrics->Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->NumberOr("engine_final_edges_total", -1),
            static_cast<double>(engine.Metrics().CounterOr("engine_final_edges_total")));
}

TEST(ReportFileTest, WriteTextFileRoundTrips) {
  std::string path = ::testing::TempDir() + "/grapple_report_test.json";
  ASSERT_TRUE(obs::WriteTextFile(path, "{\"ok\":true}"));
  std::FILE* file = std::fopen(path.c_str(), "rb");
  ASSERT_NE(file, nullptr);
  char buffer[64] = {};
  size_t n = std::fread(buffer, 1, sizeof(buffer) - 1, file);
  std::fclose(file);
  std::remove(path.c_str());
  EXPECT_EQ(std::string(buffer, n), "{\"ok\":true}");
}

}  // namespace
}  // namespace grapple
