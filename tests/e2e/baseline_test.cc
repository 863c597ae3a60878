// Baseline comparisons: the explicit-constraint codec must agree with the
// interval codec on analysis results, and the traditional in-memory
// implementation must exhaust small memory budgets (§5.3).
#include <gtest/gtest.h>

#include <set>

#include "src/baseline/explicit_oracle.h"
#include "src/baseline/traditional.h"
#include "src/cfg/loop_unroll.h"
#include "src/core/grapple.h"
#include "src/ir/parser.h"
#include "src/workload/workload.h"

namespace grapple {
namespace {

Program MustParse(const std::string& text) {
  ParseResult result = ParseProgram(text);
  EXPECT_TRUE(result.ok) << result.error;
  return std::move(result.program);
}

constexpr char kBranchy[] = R"(
  method maybeClose(obj g : FileWriter, int c) {
    if (c > 0) {
      event g close
    }
    return
  }
  method main() {
    obj f : FileWriter
    int x
    x = ?
    if (x >= 0) {
      f = new FileWriter
      event f open
    }
    if (x >= 5) {
      call maybeClose(f, x)
    }
    return
  }
)";

// Runs phase 1 with a given oracle; returns the flowsTo pair set.
std::set<std::pair<VertexId, VertexId>> AliasPairsWith(const Program& input,
                                                       bool explicit_codec) {
  Program program = input;
  UnrollLoops(&program, 2);
  CallGraph call_graph(program);
  Icfet icfet = BuildIcfet(program, call_graph);
  Grammar grammar;
  PointsToLabels labels = BuildPointsToGrammar(&grammar, {});
  TempDir dir("baseline-test");
  EngineOptions options;
  options.work_dir = dir.path();
  std::unique_ptr<ConstraintOracle> oracle;
  if (explicit_codec) {
    oracle = std::make_unique<ExplicitOracle>(&icfet);
  } else {
    oracle = std::make_unique<IntervalOracle>(&icfet);
  }
  GraphEngine engine(&grammar, oracle.get(), options);
  AliasGraph alias_graph(program, call_graph, icfet, labels, &engine);
  engine.Finalize(alias_graph.num_vertices());
  engine.Run();
  std::set<std::pair<VertexId, VertexId>> pairs;
  engine.ForEachEdgeWithLabel(labels.flows_to, [&](const EdgeRecord& e) {
    pairs.insert({e.src, e.dst});
  });
  return pairs;
}

TEST(ExplicitOracleTest, AgreesWithIntervalCodecOnFlowsTo) {
  Program program = MustParse(kBranchy);
  auto interval_pairs = AliasPairsWith(program, /*explicit_codec=*/false);
  auto explicit_pairs = AliasPairsWith(program, /*explicit_codec=*/true);
  EXPECT_EQ(interval_pairs, explicit_pairs);
  EXPECT_FALSE(interval_pairs.empty());
}

TEST(ExplicitOracleTest, ConstraintSerializationRoundTrip) {
  VarPool pool;
  VarId x = pool.Fresh("x");
  VarId y = pool.Fresh("y");
  Constraint constraint;
  constraint.And(Atom::Compare(LinearExpr::Var(x), Cmp::kGe, LinearExpr::Constant(0)));
  constraint.And(Atom::Compare(LinearExpr::Term(y, 3).AddConstant(-7), Cmp::kLt,
                               LinearExpr::Var(x)));
  constraint.And(Atom::Opaque());
  std::vector<uint8_t> bytes;
  SerializeConstraint(constraint, &bytes);
  Constraint back = DeserializeConstraint(bytes.data(), bytes.size());
  ASSERT_EQ(back.size(), constraint.size());
  for (size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back.atoms()[i], constraint.atoms()[i]) << i;
  }
}

TEST(ExplicitOracleTest, PayloadsGrowWithPathLength) {
  Program program = MustParse(kBranchy);
  UnrollLoops(&program, 2);
  CallGraph call_graph(program);
  Icfet icfet = BuildIcfet(program, call_graph);
  ExplicitOracle oracle(&icfet);
  // Base payload for an interval with one branch condition.
  auto p1 = oracle.BasePayload(PathEncoding::Interval(*program.FindMethod("main"), 0, 2));
  uint32_t id = oracle.Intern(p1);
  uint32_t merged = oracle.MergeAndCheck(id, id);
  ASSERT_NE(merged, ConstraintOracle::kUnsat);
  // Explicit representation: concatenation grows (no interval fusion).
  EXPECT_GT(oracle.Bytes(merged).size, p1.size());
}

TEST(TraditionalBaselineTest, SucceedsOnTinyProgramWithBigBudget) {
  Program program = MustParse(kBranchy);
  TraditionalOptions options;
  options.memory_budget_bytes = uint64_t{512} << 20;
  options.max_seconds = 60;
  TraditionalResult result = RunTraditionalAliasAnalysis(program, options);
  EXPECT_FALSE(result.out_of_memory);
  EXPECT_FALSE(result.timed_out);
  EXPECT_GT(result.edges, 0u);
  EXPECT_GT(result.constraints_solved, 0u);
}

TEST(TraditionalBaselineTest, RunsOutOfMemoryOnGeneratedWorkload) {
  WorkloadConfig cfg;
  cfg.name = "oom-probe";
  cfg.seed = 11;
  cfg.filler_statements = 400;
  cfg.modules = 2;
  cfg.io = {1, 0, 2};
  cfg.except = {2, 0, 2};
  Workload workload = GenerateWorkload(cfg);
  TraditionalOptions options;
  options.memory_budget_bytes = 64 << 10;  // tiny simulated RAM
  options.max_seconds = 60;
  TraditionalResult result = RunTraditionalAliasAnalysis(workload.program, options);
  EXPECT_TRUE(result.out_of_memory);
  EXPECT_GE(result.peak_bytes, options.memory_budget_bytes);
}

TEST(TraditionalBaselineTest, GrappleHandlesWhatTraditionalCannot) {
  // The same workload that OOMs the traditional implementation under the
  // small budget completes on the disk-based engine with the same budget.
  WorkloadConfig cfg;
  cfg.name = "oom-vs-grapple";
  cfg.seed = 11;
  cfg.filler_statements = 400;
  cfg.modules = 2;
  cfg.io = {1, 0, 2};
  cfg.except = {2, 0, 2};
  Workload workload = GenerateWorkload(cfg);

  TraditionalOptions trad_options;
  trad_options.memory_budget_bytes = 64 << 10;
  trad_options.max_seconds = 60;
  TraditionalResult trad = RunTraditionalAliasAnalysis(workload.program, trad_options);
  EXPECT_TRUE(trad.out_of_memory);

  GrappleOptions options;
  options.engine.memory_budget_bytes = 64 << 10;
  Grapple grapple(std::move(workload.program), options);
  GrappleResult result = grapple.Check({MakeIoCheckerSpec()});
  Classification cls = ClassifyReports(workload, "io", result.checkers[0].reports);
  EXPECT_EQ(cls.false_negatives, 0u);
}

}  // namespace
}  // namespace grapple
