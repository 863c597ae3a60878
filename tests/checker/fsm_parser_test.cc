#include <gtest/gtest.h>

#include "src/checker/builtin_checkers.h"
#include "src/checker/fsm_parser.h"
#include "src/core/grapple.h"
#include "src/ir/parser.h"

namespace grapple {
namespace {

constexpr char kIoSpec[] = R"(
  # the built-in I/O property, in text form
  fsm io
  types FileWriter FileReader
  state Init accept initial
  state Open
  state Closed accept
  event Init open Open
  event Open write Open
  event Open close Closed
)";

TEST(FsmParserTest, ParsesStatesEventsTypes) {
  FsmParseResult result = ParseFsmSpec(kIoSpec);
  ASSERT_TRUE(result.ok) << result.error;
  const Fsm& fsm = result.spec.fsm;
  EXPECT_EQ(fsm.name(), "io");
  EXPECT_EQ(fsm.NumStates(), 3u);
  EXPECT_EQ(fsm.NumEvents(), 3u);
  EXPECT_EQ(result.spec.tracked_types,
            (std::vector<std::string>{"FileWriter", "FileReader"}));
  EXPECT_EQ(fsm.StateName(fsm.initial()), "Init");
  EXPECT_TRUE(fsm.IsAccepting(fsm.initial()));
  auto open_event = fsm.FindEvent("open");
  ASSERT_TRUE(open_event.has_value());
  auto opened = fsm.Next(fsm.initial(), *open_event);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(fsm.StateName(*opened), "Open");
  EXPECT_FALSE(fsm.IsAccepting(*opened));
}

TEST(FsmParserTest, FirstStateIsDefaultInitial) {
  FsmParseResult result = ParseFsmSpec(
      "fsm t\ntypes T\nstate A accept\nstate B\nevent A go B\n");
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.spec.fsm.StateName(result.spec.fsm.initial()), "A");
}

TEST(FsmParserTest, RoundTripsThroughToString) {
  FsmParseResult first = ParseFsmSpec(kIoSpec);
  ASSERT_TRUE(first.ok);
  std::string printed = FsmSpecToString(first.spec);
  FsmParseResult second = ParseFsmSpec(printed);
  ASSERT_TRUE(second.ok) << second.error << "\n" << printed;
  EXPECT_EQ(printed, FsmSpecToString(second.spec));
}

TEST(FsmParserTest, BuiltinsRoundTrip) {
  for (const auto& spec : AllBuiltinCheckers()) {
    std::string printed = FsmSpecToString(spec);
    FsmParseResult parsed = ParseFsmSpec(printed);
    ASSERT_TRUE(parsed.ok) << spec.fsm.name() << ": " << parsed.error;
    EXPECT_EQ(printed, FsmSpecToString(parsed.spec)) << spec.fsm.name();
  }
}

TEST(FsmParserTest, ErrorsAreLineAttributed) {
  FsmParseResult result = ParseFsmSpec("fsm t\ntypes T\nstate A\nevent A go Nowhere\n");
  ASSERT_FALSE(result.ok);
  EXPECT_NE(result.error.find("line 4"), std::string::npos) << result.error;
  EXPECT_NE(result.error.find("Nowhere"), std::string::npos);
}

TEST(FsmParserTest, RejectsDuplicates) {
  EXPECT_FALSE(ParseFsmSpec("fsm t\ntypes T\nstate A\nstate A\n").ok);
  EXPECT_FALSE(
      ParseFsmSpec("fsm t\ntypes T\nstate A\nstate B\nevent A go B\nevent A go A\n").ok);
  // A second `initial` used to win silently over the first.
  FsmParseResult two_initial =
      ParseFsmSpec("fsm t\ntypes T\nstate A accept initial\nstate B initial\n");
  ASSERT_FALSE(two_initial.ok);
  EXPECT_NE(two_initial.error.find("line 4"), std::string::npos) << two_initial.error;
  EXPECT_NE(two_initial.error.find("'B'"), std::string::npos) << two_initial.error;
}

TEST(FsmParserTest, RejectsEmptySpecs) {
  EXPECT_FALSE(ParseFsmSpec("").ok);
  EXPECT_FALSE(ParseFsmSpec("fsm t\nstate A\n").ok);  // no types
  EXPECT_FALSE(ParseFsmSpec("fsm t\ntypes T\n").ok);  // no states
  // No accept state: attributed to the first state declaration.
  FsmParseResult no_accept =
      ParseFsmSpec("fsm t\ntypes T\nstate A initial\nstate B\nevent A go B\n");
  ASSERT_FALSE(no_accept.ok);
  EXPECT_NE(no_accept.error.find("line 3"), std::string::npos) << no_accept.error;
  EXPECT_NE(no_accept.error.find("accept"), std::string::npos) << no_accept.error;
}

TEST(FsmParserTest, ParsedSpecDrivesThePipeline) {
  FsmParseResult spec = ParseFsmSpec(R"(
    fsm conn
    types Connection
    state Fresh accept initial
    state Live
    state Done accept
    event Fresh connect Live
    event Live send Live
    event Live disconnect Done
  )");
  ASSERT_TRUE(spec.ok) << spec.error;
  ParseResult program = ParseProgram(R"(
    method main() {
      obj c : Connection
      int x
      x = ?
      c = new Connection
      event c connect
      event c send
      if (x > 0) {
        event c disconnect
      }
      return
    }
  )");
  ASSERT_TRUE(program.ok) << program.error;
  Grapple analyzer(std::move(program.program));
  GrappleResult result = analyzer.Check({spec.spec});
  ASSERT_EQ(result.checkers.size(), 1u);
  ASSERT_EQ(result.checkers[0].reports.size(), 1u);
  EXPECT_EQ(result.checkers[0].reports[0].state, "Live");
  EXPECT_EQ(result.checkers[0].reports[0].checker, "conn");
}

}  // namespace
}  // namespace grapple
