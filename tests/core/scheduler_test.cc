// Concurrent checker scheduling: parallel runs must be observationally
// identical to sequential ones — same reports, same witnesses, same report
// JSON, same phase structure — and must respect the shared memory budget.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/checker/builtin_checkers.h"
#include "src/checker/report_json.h"
#include "src/core/grapple.h"
#include "src/workload/workload.h"

namespace grapple {
namespace {

WorkloadConfig SchedulerConfig() {
  WorkloadConfig cfg;
  cfg.name = "sched";
  cfg.seed = 21;
  cfg.filler_statements = 150;
  cfg.modules = 2;
  cfg.branch_depth = 2;
  cfg.straightline_run = 4;
  cfg.io = {2, 1, 2};
  cfg.lock = {2, 1, 2};
  cfg.except = {2, 1, 2};
  cfg.socket = {2, 1, 2};
  return cfg;
}

// Everything timing-free about one analysis, as one comparable string.
std::string Fingerprint(const GrappleResult& result) {
  std::string out;
  for (const auto& checker : result.checkers) {
    out += checker.checker;
    out += " tracked=" + std::to_string(checker.tracked_objects);
    out += " vertices=" + std::to_string(checker.phase.num_vertices);
    out += " edges=" + std::to_string(checker.phase.edges_before) + "/" +
           std::to_string(checker.phase.edges_after);
    out += "\n";
    out += ReportsToJson(checker.reports);
    out += "\n";
  }
  for (const auto& phase : result.report.phases) {
    out += phase.name + " v=" + std::to_string(phase.num_vertices) +
           " e=" + std::to_string(phase.edges_before) + "/" +
           std::to_string(phase.edges_after) + "\n";
  }
  return out;
}

GrappleResult RunWith(size_t checker_parallelism, uint64_t memory_budget_bytes,
                      const std::vector<FsmSpec>& specs = AllBuiltinCheckers()) {
  Workload workload = GenerateWorkload(SchedulerConfig());
  GrappleOptions options;
  options.scheduling.checker_parallelism = checker_parallelism;
  options.engine.memory_budget_bytes = memory_budget_bytes;
  Grapple grapple(std::move(workload.program), options);
  return grapple.Check(specs);
}

TEST(SchedulerTest, ParallelByteIdenticalToSequential) {
  // Ample budget: no engine's slice ever binds, so parallel scheduling may
  // not change a single report, witness, or edge count.
  constexpr uint64_t kAmple = uint64_t{64} << 20;
  GrappleResult sequential = RunWith(1, kAmple);
  GrappleResult parallel = RunWith(4, kAmple);
  ASSERT_EQ(sequential.checkers.size(), 4u);
  ASSERT_EQ(parallel.checkers.size(), 4u);
  EXPECT_GT(sequential.TotalReports(), 0u);
  EXPECT_EQ(Fingerprint(sequential), Fingerprint(parallel));
}

TEST(SchedulerTest, TightSharedBudgetStillCorrect) {
  // 256 KB across four concurrent engines: each runs under a fixed 64 KB
  // slice and spills. Reports and witnesses must still match the sequential
  // run with the same total budget (edge counts may differ through widening
  // order).
  constexpr uint64_t kTight = 256 << 10;
  GrappleResult sequential = RunWith(1, kTight);
  GrappleResult parallel = RunWith(4, kTight);
  std::string seq_reports;
  std::string par_reports;
  for (const auto& checker : sequential.checkers) {
    seq_reports += checker.checker + "\n" + ReportsToJson(checker.reports) + "\n";
  }
  for (const auto& checker : parallel.checkers) {
    par_reports += checker.checker + "\n" + ReportsToJson(checker.reports) + "\n";
  }
  EXPECT_EQ(seq_reports, par_reports);
}

// The typestate phases' engine_budget_bytes gauges, in spec order.
std::vector<double> TypestateBudgets(const std::vector<FsmSpec>& specs,
                                     size_t checker_parallelism, uint64_t memory_budget_bytes) {
  GrappleResult result = RunWith(checker_parallelism, memory_budget_bytes, specs);
  std::vector<double> budgets;
  for (size_t i = 1; i < result.report.phases.size(); ++i) {
    budgets.push_back(result.report.phases[i].metrics.GaugeOr("engine_budget_bytes", -1));
  }
  return budgets;
}

TEST(SchedulerTest, ConcurrentEnginesGetAFixedSliceOfTheBudget) {
  // Concurrent engines split the total evenly, so their live budgets never
  // sum to more than it.
  constexpr uint64_t kTotal = 256 << 10;
  std::vector<FsmSpec> specs = AllBuiltinCheckers();
  ASSERT_EQ(specs.size(), 4u);
  std::vector<double> four = TypestateBudgets(specs, 4, kTotal);
  ASSERT_EQ(four.size(), 4u);
  double sum = 0;
  for (double budget : four) {
    EXPECT_EQ(budget, static_cast<double>(kTotal / 4));
    sum += budget;
  }
  EXPECT_LE(sum, static_cast<double>(kTotal));

  // Parallelism is capped by the spec count: two specs split it in two.
  specs.erase(specs.begin() + 2, specs.end());
  std::vector<double> two = TypestateBudgets(specs, 4, kTotal);
  ASSERT_EQ(two.size(), 2u);
  for (double budget : two) {
    EXPECT_EQ(budget, static_cast<double>(kTotal / 2));
  }
}

TEST(SchedulerTest, ParallelismZeroMeansHardwareConcurrency) {
  // 0 must behave like "use the hardware", not "skip the checkers".
  GrappleResult result = RunWith(0, uint64_t{64} << 20);
  ASSERT_EQ(result.checkers.size(), 4u);
  EXPECT_GT(result.TotalReports(), 0u);
}

TEST(SchedulerTest, PhaseReportsKeepSpecOrderUnderParallelism) {
  GrappleResult result = RunWith(4, uint64_t{64} << 20);
  std::vector<FsmSpec> specs = AllBuiltinCheckers();
  ASSERT_EQ(result.report.phases.size(), specs.size() + 1);
  EXPECT_EQ(result.report.phases[0].name, "alias");
  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(result.report.phases[i + 1].name, "typestate:" + specs[i].fsm.name());
    EXPECT_EQ(result.checkers[i].checker, specs[i].fsm.name());
  }
}

}  // namespace
}  // namespace grapple
