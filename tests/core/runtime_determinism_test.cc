// Determinism of full analysis sessions on the unified task runtime: the
// engine integrates frontier shards in shard-index order and the shard
// count is derived from options.scheduling.num_threads — never from the
// runtime's worker count or from which worker ran a task — so reports must
// be byte-identical for every worker count and repeat.
// scheduler_test.cc pins the checker-level contract; this file varies the
// runtime-level knobs underneath it.
#include <gtest/gtest.h>

#include <string>

#include "src/checker/builtin_checkers.h"
#include "src/checker/report_json.h"
#include "src/core/grapple.h"
#include "src/workload/workload.h"

namespace grapple {
namespace {

WorkloadConfig DeterminismConfig() {
  WorkloadConfig cfg;
  cfg.name = "runtime-determinism";
  cfg.seed = 33;
  cfg.filler_statements = 120;
  cfg.modules = 2;
  cfg.branch_depth = 2;
  cfg.straightline_run = 4;
  cfg.io = {2, 1, 2};
  cfg.lock = {2, 1, 2};
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

std::string RunFingerprint(size_t checker_parallelism, size_t num_threads) {
  Workload workload = GenerateWorkload(DeterminismConfig());
  GrappleOptions options;
  options.scheduling.checker_parallelism = checker_parallelism;
  options.scheduling.num_threads = num_threads;
  options.engine.memory_budget_bytes = uint64_t{64} << 20;
  Grapple grapple(std::move(workload.program), options);
  GrappleResult result = grapple.Check({MakeIoCheckerSpec(), MakeLockCheckerSpec()});
  EXPECT_GT(result.TotalReports(), 0u);
  return Fingerprint(result);
}

TEST(RuntimeDeterminismTest, ByteIdenticalAcrossWorkerCounts) {
  std::string sequential = RunFingerprint(/*checker_parallelism=*/1, /*num_threads=*/1);
  // Each configuration lands on a different session worker count
  // (checker_parallelism x num_threads + 1) and a different shard fan-out.
  EXPECT_EQ(sequential, RunFingerprint(1, 2));
  EXPECT_EQ(sequential, RunFingerprint(2, 1));
  EXPECT_EQ(sequential, RunFingerprint(2, 2));
  EXPECT_EQ(sequential, RunFingerprint(2, 4));
}

TEST(RuntimeDeterminismTest, ByteIdenticalAcrossRepeats) {
  std::string baseline = RunFingerprint(/*checker_parallelism=*/2, /*num_threads=*/2);
  for (size_t num_threads : {1, 2, 4}) {
    // Twice per shard count: which worker steals what must not leak into
    // results even across the scheduling races of distinct runs.
    EXPECT_EQ(baseline, RunFingerprint(2, num_threads)) << "num_threads=" << num_threads;
    EXPECT_EQ(baseline, RunFingerprint(2, num_threads)) << "num_threads=" << num_threads;
  }
}

}  // namespace
}  // namespace grapple
