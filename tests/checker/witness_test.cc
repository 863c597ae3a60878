// Bug-witness tests: every report carries a decoded derivation witness that
// type-checks against the property FSM (transitions legal, violation at the
// end), witness mode off records nothing, and full mode replays steps.
#include <gtest/gtest.h>

#include <map>

#include "src/checker/builtin_checkers.h"
#include "src/checker/checker.h"
#include "src/checker/witness.h"
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

constexpr const char* kLockMisorder = R"(
  method main() {
    obj l : Lock
    l = new Lock
    event l unlock
    event l lock
    return
  }
)";

constexpr const char* kLeakyWriter = R"(
  method main() {
    obj f : FileWriter
    int x
    x = ?
    f = new FileWriter
    event f open
    if (x > 3) {
      event f close
    }
    return
  }
)";

TEST(WitnessTest, ErroneousEventCarriesCompleteWitness) {
  Grapple grapple(MustParse(kLockMisorder));
  GrappleResult result = grapple.Check({MakeLockCheckerSpec()});
  ASSERT_EQ(result.checkers[0].reports.size(), 1u);
  const BugReport& report = result.checkers[0].reports[0];
  ASSERT_TRUE(report.has_witness);
  const Witness& witness = report.witness;
  EXPECT_TRUE(witness.complete);
  EXPECT_FALSE(witness.truncated);
  ASSERT_GE(witness.steps.size(), 2u);
  // Allocation first, the erroneous event (into ERROR) last.
  EXPECT_EQ(witness.steps.front().kind, WitnessStep::Kind::kAlloc);
  EXPECT_EQ(witness.steps.back().kind, WitnessStep::Kind::kEvent);
  EXPECT_EQ(witness.steps.back().event, "unlock");
  EXPECT_EQ(witness.steps.back().to_state, "ERROR");
  // The feasibility replay must not contradict the engine.
  EXPECT_NE(witness.final_replay, "unsat");

  Fsm completed = CompleteFsm(MakeLockCheckerSpec().fsm);
  std::string why;
  EXPECT_TRUE(witness.TypeChecks(completed, &why)) << why;
}

TEST(WitnessTest, BadExitStateWitnessEndsNonAccepting) {
  Grapple grapple(MustParse(kLeakyWriter));
  GrappleResult result = grapple.Check({MakeIoCheckerSpec()});
  ASSERT_EQ(result.checkers[0].reports.size(), 1u);
  const BugReport& report = result.checkers[0].reports[0];
  ASSERT_EQ(report.kind, BugReport::Kind::kBadExitState);
  ASSERT_TRUE(report.has_witness);
  const Witness& witness = report.witness;
  EXPECT_TRUE(witness.complete);
  Fsm completed = CompleteFsm(MakeIoCheckerSpec().fsm);
  std::string why;
  EXPECT_TRUE(witness.TypeChecks(completed, &why)) << why;
  // The leak only exists on the x <= 3 path; the witness carries that
  // constraint decision.
  EXPECT_NE(witness.final_constraint, "");
  EXPECT_NE(witness.final_constraint, "true");
  // Last step reaches the program exit with the file still Open.
  EXPECT_EQ(witness.steps.back().to_state, "Open");
}

TEST(WitnessTest, OffModeRecordsNothing) {
  GrappleOptions options;
  options.observability.witness = obs::WitnessMode::kOff;
  Grapple grapple(MustParse(kLockMisorder), options);
  GrappleResult result = grapple.Check({MakeLockCheckerSpec()});
  ASSERT_EQ(result.checkers[0].reports.size(), 1u);
  EXPECT_FALSE(result.checkers[0].reports[0].has_witness);
  // No provenance counters in the phase report either.
  for (const auto& phase : result.report.phases) {
    EXPECT_EQ(phase.metrics.CounterOr("provenance_records_total"), 0u) << phase.name;
  }
}

TEST(WitnessTest, FullModeReplaysEveryStep) {
  GrappleOptions options;
  options.observability.witness = obs::WitnessMode::kFull;
  Grapple grapple(MustParse(kLeakyWriter), options);
  GrappleResult result = grapple.Check({MakeIoCheckerSpec()});
  ASSERT_EQ(result.checkers[0].reports.size(), 1u);
  const BugReport& report = result.checkers[0].reports[0];
  ASSERT_TRUE(report.has_witness);
  for (const auto& step : report.witness.steps) {
    EXPECT_FALSE(step.replay.empty());
    EXPECT_NE(step.replay, "unsat");
  }
  // Witnesses walk typestate derivations only, so even full mode records
  // no alias-phase provenance.
  ASSERT_EQ(result.report.phases[0].name, "alias");
  EXPECT_EQ(result.report.phases[0].metrics.CounterOr("provenance_records_total"), 0u);
}

TEST(WitnessTest, ProvenanceCountersReachThePhaseReport) {
  Grapple grapple(MustParse(kLockMisorder));
  GrappleResult result = grapple.Check({MakeLockCheckerSpec()});
  bool saw_typestate = false;
  for (const auto& phase : result.report.phases) {
    if (phase.name.rfind("typestate:", 0) != 0) {
      continue;
    }
    saw_typestate = true;
    EXPECT_GT(phase.metrics.CounterOr("provenance_records_total"), 0u) << phase.name;
    EXPECT_GT(phase.metrics.CounterOr("provenance_bytes"), 0u) << phase.name;
    EXPECT_GT(phase.metrics.CounterOr("witnesses_decoded_total"), 0u) << phase.name;
    auto it = phase.metrics.histograms.find("witness_decode_ns");
    ASSERT_NE(it, phase.metrics.histograms.end()) << phase.name;
    EXPECT_GT(it->second.count, 0u);
  }
  EXPECT_TRUE(saw_typestate);
}

TEST(WitnessTest, TypeChecksRejectsIllegalSequences) {
  Fsm completed = CompleteFsm(MakeIoCheckerSpec().fsm);
  std::string why;

  Witness empty;
  EXPECT_FALSE(empty.TypeChecks(completed, &why));

  // close before open: Closed --close--> is not a legal transition from the
  // initial state's step sequence when spelled with the wrong target state.
  Witness bad;
  WitnessStep alloc;
  alloc.kind = WitnessStep::Kind::kAlloc;
  alloc.to_state_id = completed.initial();
  alloc.to_state = completed.StateName(completed.initial());
  bad.steps.push_back(alloc);
  WitnessStep step;
  step.kind = WitnessStep::Kind::kEvent;
  step.event = "open";
  step.from_state_id = completed.initial();
  step.from_state = completed.StateName(completed.initial());
  step.to_state_id = completed.initial();  // open must leave the initial state
  step.to_state = completed.StateName(completed.initial());
  bad.steps.push_back(step);
  EXPECT_FALSE(bad.TypeChecks(completed, &why));
  EXPECT_NE(why.find("illegal transition"), std::string::npos) << why;
}

// The acceptance gate: every injected FSM bug found on the e2e workload
// carries a witness whose step sequence type-checks against the FSM.
TEST(WitnessTest, EveryWorkloadReportCarriesTypeCheckingWitness) {
  WorkloadConfig cfg;
  cfg.name = "witness-e2e";
  cfg.seed = 7;
  cfg.filler_statements = 200;
  cfg.modules = 2;
  cfg.branch_depth = 2;
  cfg.straightline_run = 4;
  cfg.io = {3, 1, 3};
  cfg.lock = {2, 0, 2};
  cfg.except = {3, 1, 2};
  cfg.socket = {2, 0, 2};
  Workload workload = GenerateWorkload(cfg);

  std::map<std::string, Fsm> completed;
  for (const auto& spec : AllBuiltinCheckers()) {
    completed.emplace(spec.fsm.name(), CompleteFsm(spec.fsm));
  }

  Grapple grapple(std::move(workload.program));
  GrappleResult result = grapple.Check(AllBuiltinCheckers());
  size_t total = 0;
  for (const auto& checker : result.checkers) {
    const Fsm& fsm = completed.at(checker.checker);
    for (const auto& report : checker.reports) {
      ++total;
      ASSERT_TRUE(report.has_witness) << checker.checker << ": " << report.ToString();
      std::string why;
      EXPECT_TRUE(report.witness.TypeChecks(fsm, &why))
          << checker.checker << ": " << report.ToString() << "\n"
          << why << "\n"
          << report.witness.ToString();
      EXPECT_TRUE(report.witness.complete) << report.witness.ToString();
    }
  }
  EXPECT_GT(total, 0u);
}

}  // namespace
}  // namespace grapple
