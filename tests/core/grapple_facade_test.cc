// Tests of the Grapple facade: option plumbing, result aggregation, and the
// public-API contract.
#include <gtest/gtest.h>

#include <filesystem>

#include "src/checker/builtin_checkers.h"
#include "src/core/grapple.h"
#include "src/graph/checkpoint.h"
#include "src/ir/parser.h"

namespace grapple {
namespace {

Program MustParse(const std::string& text) {
  ParseResult result = ParseProgram(text);
  EXPECT_TRUE(result.ok) << result.error;
  return std::move(result.program);
}

constexpr char kSmall[] = R"(
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

// Every engine run's spills and provenance are scratch for that run: the
// alias dir goes once phase 1 is indexed, each checker dir when its run
// returns, and the session's explicit work dir is left without files.
TEST(GrappleFacadeTest, ChecksLeaveNoFilesBehind) {
  TempDir dir("facade-workdir");
  GrappleOptions options;
  options.work_dir = dir.path();
  Grapple analyzer(MustParse(kSmall), options);
  EXPECT_EQ(analyzer.work_dir(), dir.path());
  GrappleResult result = analyzer.Check({MakeIoCheckerSpec()});
  ASSERT_EQ(result.checkers[0].reports.size(), 1u);
  // A witness means a provenance log was written and decoded.
  EXPECT_TRUE(result.checkers[0].reports[0].has_witness);
  EXPECT_EQ(analyzer.CheckOne(MakeIoCheckerSpec()).reports.size(), 1u);
  EXPECT_EQ(analyzer.Check({MakeIoCheckerSpec()}).checkers[0].reports.size(), 1u);
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir.path())) {
    EXPECT_FALSE(entry.is_regular_file()) << entry.path();
  }
}

// Under checkpointing the phase dirs are what a rerun resumes from, so they
// stay, and a second session over the same dir resumes every engine run to
// the same reports.
TEST(GrappleFacadeTest, CheckpointedRunKeepsItsPhaseDirs) {
  TempDir dir("facade-checkpoint");
  GrappleOptions options;
  options.work_dir = dir.path();
  options.robustness.checkpoint_interval = 1;
  std::vector<BugReport> reports;
  {
    Grapple analyzer(MustParse(kSmall), options);
    reports = analyzer.Check({MakeIoCheckerSpec()}).checkers[0].reports;
  }
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(std::filesystem::exists(CheckpointManifestPath(dir.path() + "/alias")));
  EXPECT_TRUE(std::filesystem::exists(CheckpointManifestPath(dir.path() + "/typestate-io")));

  Grapple resumed(MustParse(kSmall), options);
  GrappleResult again = resumed.Check({MakeIoCheckerSpec()});
  uint64_t runs_resumed = 0;
  for (const obs::PhaseReport& phase : again.report.phases) {
    runs_resumed += phase.metrics.CounterOr("runs_resumed_total");
  }
  EXPECT_GT(runs_resumed, 0u);
  ASSERT_EQ(again.checkers[0].reports.size(), reports.size());
  EXPECT_EQ(again.checkers[0].reports[0].ToString(), reports[0].ToString());
}

TEST(GrappleFacadeTest, SessionIsReusable) {
  Grapple analyzer(MustParse(kSmall));
  GrappleResult first = analyzer.Check({MakeIoCheckerSpec()});
  GrappleResult second = analyzer.Check({MakeIoCheckerSpec()});
  ASSERT_EQ(first.checkers.size(), 1u);
  ASSERT_EQ(second.checkers.size(), 1u);
  ASSERT_EQ(first.checkers[0].reports.size(), second.checkers[0].reports.size());
  EXPECT_EQ(first.checkers[0].reports[0].ToString(), second.checkers[0].reports[0].ToString());
  // Phase 1 ran once and was reused: identical alias record, including the
  // wall-clock second of the original run.
  ASSERT_FALSE(first.report.phases.empty());
  ASSERT_FALSE(second.report.phases.empty());
  EXPECT_EQ(first.report.phases[0].name, "alias");
  EXPECT_EQ(first.report.phases[0].seconds, second.report.phases[0].seconds);
  EXPECT_EQ(first.report.phases[0].metrics.ToJson(), second.report.phases[0].metrics.ToJson());
  EXPECT_EQ(first.alias_pairs, second.alias_pairs);
}

TEST(GrappleFacadeTest, CheckOneReusesCachedAliasPhase) {
  Grapple analyzer(MustParse(kSmall));
  GrappleResult all = analyzer.Check(AllBuiltinCheckers());
  CheckerRunResult io = analyzer.CheckOne(MakeIoCheckerSpec());
  EXPECT_EQ(io.checker, "io");
  ASSERT_EQ(io.reports.size(), 1u);
  EXPECT_EQ(io.reports[0].ToString(), all.checkers[0].reports[0].ToString());
}

// A checker's record is taken after report extraction, so it counts the
// witness decodes that extraction did, and Check() reports the same record.
TEST(GrappleFacadeTest, CheckerRecordCountsItsWitnessDecodes) {
  GrappleOptions options;
  options.observability.witness = obs::WitnessMode::kBugs;
  Grapple analyzer(MustParse(kSmall), options);
  CheckerRunResult io = analyzer.CheckOne(MakeIoCheckerSpec());
  uint64_t witnesses = 0;
  for (const BugReport& report : io.reports) {
    witnesses += report.has_witness ? 1 : 0;
  }
  EXPECT_GT(witnesses, 0u);
  EXPECT_EQ(io.phase.name, "typestate:io");
  EXPECT_EQ(io.phase.metrics.CounterOr("witnesses_decoded_total"), witnesses);

  GrappleResult all = analyzer.Check({MakeIoCheckerSpec()});
  ASSERT_EQ(all.report.phases.size(), 2u);
  const obs::PhaseReport& phase = all.report.phases[1];
  EXPECT_EQ(phase.name, "typestate:io");
  EXPECT_EQ(phase.metrics.CounterOr("witnesses_decoded_total"), witnesses);
  EXPECT_EQ(phase.metrics.ToJson(), all.checkers[0].phase.metrics.ToJson());
}

TEST(GrappleFacadeTest, ValidateRejectsBadOptionsWithDescriptiveErrors) {
  GrappleOptions options;
  options.precision.loop_unroll = 0;
  options.engine.memory_budget_bytes = 0;
  options.engine.max_encoding_items = 0;
  std::vector<std::string> errors = options.Validate();
  ASSERT_EQ(errors.size(), 3u);
  bool saw_unroll = false;
  bool saw_budget = false;
  bool saw_items = false;
  for (const auto& error : errors) {
    saw_unroll |= error.find("loop_unroll") != std::string::npos;
    saw_budget |= error.find("memory_budget_bytes") != std::string::npos;
    saw_items |= error.find("max_encoding_items") != std::string::npos;
  }
  EXPECT_TRUE(saw_unroll);
  EXPECT_TRUE(saw_budget);
  EXPECT_TRUE(saw_items);
  EXPECT_TRUE(GrappleOptions().Validate().empty());
  GrappleOptions no_cache;
  no_cache.engine.enable_cache = false;
  EXPECT_TRUE(no_cache.Validate().empty());
}

TEST(GrappleFacadeTest, ConstructorDiesOnInvalidOptions) {
  GrappleOptions options;
  options.precision.loop_unroll = 0;
  EXPECT_DEATH(Grapple(MustParse(kSmall), options), "invalid GrappleOptions.*loop_unroll");
}

TEST(GrappleFacadeTest, SchedulingOptionsValidate) {
  // Both knobs at 0 would multiply to hardware-concurrency squared workers.
  GrappleOptions both_zero;
  both_zero.scheduling.checker_parallelism = 0;
  both_zero.scheduling.num_threads = 0;
  std::vector<std::string> errors = both_zero.Validate();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("checker_parallelism"), std::string::npos);

  // One of them at 0 (hardware concurrency) is the supported configuration.
  GrappleOptions one_zero;
  one_zero.scheduling.checker_parallelism = 2;
  one_zero.scheduling.num_threads = 0;
  EXPECT_TRUE(one_zero.Validate().empty());

  GrappleOptions oversubscribed;
  oversubscribed.scheduling.checker_parallelism = 64;
  oversubscribed.scheduling.num_threads = 64;
  errors = oversubscribed.Validate();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("1024"), std::string::npos);

  // A 0 factor resolves to the hardware count before the rule applies.
  // Validate() only: constructing a Grapple would start these workers.
  GrappleOptions zero_times_many;
  zero_times_many.scheduling.checker_parallelism = 0;
  zero_times_many.scheduling.num_threads = 5000;
  errors = zero_times_many.Validate();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("1024"), std::string::npos);

  // A product that wraps around 2^64 must not read as small.
  GrappleOptions wrapping;
  wrapping.scheduling.checker_parallelism = 4;
  wrapping.scheduling.num_threads = size_t{1} << 62;
  errors = wrapping.Validate();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("1024"), std::string::npos);
}

TEST(GrappleFacadeTest, ResultAggregatesAcrossPhases) {
  Grapple analyzer(MustParse(kSmall));
  GrappleResult result = analyzer.Check(AllBuiltinCheckers());
  ASSERT_EQ(result.checkers.size(), 4u);
  EXPECT_EQ(result.TotalReports(), 1u);
  EXPECT_EQ(result.report.total_reports, 1u);
  // One record per engine run: the alias phase, then each checker's.
  ASSERT_EQ(result.report.phases.size(), 5u);
  const obs::PhaseReport& alias = result.report.phases[0];
  EXPECT_EQ(alias.name, "alias");
  EXPECT_GT(alias.num_vertices, 0u);
  EXPECT_GT(alias.edges_before, 0u);
  EXPECT_GE(alias.edges_after, alias.edges_before);
  EXPECT_EQ(alias.edges_before, alias.metrics.CounterOr("engine_base_edges_total"));
  EXPECT_EQ(alias.edges_after, alias.metrics.CounterOr("engine_final_edges_total"));
  for (size_t i = 0; i < result.checkers.size(); ++i) {
    const obs::PhaseReport& phase = result.report.phases[i + 1];
    EXPECT_EQ(phase.name, "typestate:" + result.checkers[i].checker);
    EXPECT_EQ(phase.name, result.checkers[i].phase.name);
    if (result.checkers[i].tracked_objects > 0) {
      EXPECT_GT(phase.num_vertices, 0u);
    }
    EXPECT_EQ(phase.edges_before, phase.metrics.CounterOr("engine_base_edges_total"));
    EXPECT_EQ(phase.edges_after, phase.metrics.CounterOr("engine_final_edges_total"));
  }
  EXPECT_GT(result.report.frontend_seconds, 0.0);
  EXPECT_GE(result.report.total_seconds, alias.seconds + result.report.frontend_seconds);
}

TEST(GrappleFacadeTest, MultiThreadedMatchesSequential) {
  auto run = [&](size_t threads) {
    GrappleOptions options;
    options.scheduling.num_threads = threads;
    Grapple analyzer(MustParse(kSmall), options);
    GrappleResult result = analyzer.Check(AllBuiltinCheckers());
    std::vector<std::string> reports;
    for (const auto& checker : result.checkers) {
      for (const auto& report : checker.reports) {
        reports.push_back(report.ToString());
      }
    }
    std::sort(reports.begin(), reports.end());
    return reports;
  };
  EXPECT_EQ(run(1), run(4));
}

TEST(GrappleFacadeTest, TinyMemoryBudgetStillCorrect) {
  GrappleOptions options;
  options.engine.memory_budget_bytes = 4 << 10;  // pathological: forces max spilling
  Grapple analyzer(MustParse(kSmall), options);
  GrappleResult result = analyzer.Check({MakeIoCheckerSpec()});
  ASSERT_EQ(result.checkers[0].reports.size(), 1u);
  EXPECT_EQ(result.checkers[0].reports[0].state, "Open");
}

TEST(GrappleFacadeTest, EmptyCheckerListRunsAliasOnly) {
  Grapple analyzer(MustParse(kSmall));
  GrappleResult result = analyzer.Check({});
  EXPECT_TRUE(result.checkers.empty());
  EXPECT_GT(result.alias_pairs, 0u);
}

TEST(GrappleFacadeTest, ProgramWithNoTrackedObjects) {
  Grapple analyzer(MustParse(R"(
    method main() {
      obj b : Buffer
      b = new Buffer
      return
    }
  )"));
  GrappleResult result = analyzer.Check(AllBuiltinCheckers());
  EXPECT_EQ(result.TotalReports(), 0u);
  for (const auto& checker : result.checkers) {
    EXPECT_EQ(checker.tracked_objects, 0u);
  }
}

TEST(GrappleFacadeTest, WitnessFieldsPopulated) {
  Grapple analyzer(MustParse(kSmall));
  GrappleResult result = analyzer.Check({MakeIoCheckerSpec()});
  ASSERT_EQ(result.checkers[0].reports.size(), 1u);
  const BugReport& report = result.checkers[0].reports[0];
  EXPECT_FALSE(report.constraint.empty());
  EXPECT_FALSE(report.witness_path.empty());
  EXPECT_NE(report.witness_path.find("m0["), std::string::npos) << report.witness_path;
}

}  // namespace
}  // namespace grapple
