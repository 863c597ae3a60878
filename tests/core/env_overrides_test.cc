// ApplyEnvOverrides, the one place GRAPPLE_* variables reach GrappleOptions:
// every knob-to-field mapping, malformed values, the checkpoint knobs'
// precedence, out-of-range values that Validate() must reject, and the
// contract that a Grapple built without it reads no environment at all.
// These are the only tests that set GRAPPLE_* option knobs; each one starts
// and ends with all of them unset.
#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/checker/builtin_checkers.h"
#include "src/core/grapple.h"
#include "src/ir/parser.h"
#include "src/obs/statusz.h"
#include "tests/obs/json_parse.h"

namespace grapple {
namespace {

constexpr const char* kKnobs[] = {
    "GRAPPLE_THREADS",          "GRAPPLE_IO_PIPELINE",
    "GRAPPLE_WITNESS",          "GRAPPLE_EVENTLOG_EVENTS",
    "GRAPPLE_STATUSZ",          "GRAPPLE_PROFILE",
    "GRAPPLE_PROFILE_HZ",       "GRAPPLE_IO_RETRIES",
    "GRAPPLE_IO_BACKOFF_US",    "GRAPPLE_CHECKPOINT",
    "GRAPPLE_CHECKPOINT_INTERVAL", "GRAPPLE_CHECKPOINT_SPACING",
};

using Env = std::vector<std::pair<const char*, const char*>>;

class ApplyEnvOverridesTest : public ::testing::Test {
 protected:
  void SetUp() override { ClearKnobs(); }
  void TearDown() override { ClearKnobs(); }

  static void ClearKnobs() {
    for (const char* knob : kKnobs) {
      ::unsetenv(knob);
    }
  }

  // `base` with ApplyEnvOverrides run under `env` (unset again afterwards).
  static GrappleOptions Apply(const Env& env, GrappleOptions base = GrappleOptions()) {
    for (const auto& [name, value] : env) {
      ::setenv(name, value, 1);
    }
    ApplyEnvOverrides(&base);
    ClearKnobs();
    return base;
  }
};

// Every field a knob maps onto, as one comparable string.
std::string Describe(const GrappleOptions& o) {
  return "threads=" + std::to_string(o.scheduling.num_threads) +
         " io_pipeline=" + std::to_string(o.engine.io_pipeline) +
         " witness=" + obs::WitnessModeName(o.observability.witness) +
         " events=" + std::to_string(o.observability.event_log_capacity) +
         " statusz=" + std::to_string(o.observability.statusz_port) +
         " profile=" + std::to_string(o.observability.profile) +
         " hz=" + std::to_string(o.observability.profile_hz) +
         " retries=" + std::to_string(o.robustness.max_io_retries) +
         " backoff=" + std::to_string(o.robustness.backoff_base_us) +
         " ckpt=" + std::to_string(o.robustness.checkpoint_interval) +
         " spacing=" + std::to_string(o.robustness.checkpoint_min_spacing_s);
}

TEST_F(ApplyEnvOverridesTest, EachKnobSetsItsFieldAndOnlyThat) {
  struct Case {
    const char* name;
    const char* value;
    // Turns the defaults into the expected options; a no-op means the value
    // is ignored.
    std::function<void(GrappleOptions*)> expect;
  };
  auto ignored = [](GrappleOptions*) {};
  const Case cases[] = {
      {"GRAPPLE_THREADS", "3", [](GrappleOptions* o) { o->scheduling.num_threads = 3; }},
      {"GRAPPLE_THREADS", "0", ignored},
      {"GRAPPLE_THREADS", "-2", ignored},
      {"GRAPPLE_THREADS", "2x", ignored},
      {"GRAPPLE_IO_PIPELINE", "off", [](GrappleOptions* o) { o->engine.io_pipeline = false; }},
      {"GRAPPLE_IO_PIPELINE", "0", [](GrappleOptions* o) { o->engine.io_pipeline = false; }},
      {"GRAPPLE_IO_PIPELINE", "maybe", ignored},
      {"GRAPPLE_WITNESS", "off",
       [](GrappleOptions* o) { o->observability.witness = obs::WitnessMode::kOff; }},
      {"GRAPPLE_WITNESS", "0",
       [](GrappleOptions* o) { o->observability.witness = obs::WitnessMode::kOff; }},
      {"GRAPPLE_WITNESS", "none",
       [](GrappleOptions* o) { o->observability.witness = obs::WitnessMode::kOff; }},
      {"GRAPPLE_WITNESS", "full",
       [](GrappleOptions* o) { o->observability.witness = obs::WitnessMode::kFull; }},
      {"GRAPPLE_WITNESS", "bugs", ignored},
      {"GRAPPLE_WITNESS", "sideways", ignored},
      {"GRAPPLE_EVENTLOG_EVENTS", "128",
       [](GrappleOptions* o) { o->observability.event_log_capacity = 128; }},
      {"GRAPPLE_EVENTLOG_EVENTS", "lots", ignored},
      {"GRAPPLE_STATUSZ", "0", [](GrappleOptions* o) { o->observability.statusz_port = 0; }},
      {"GRAPPLE_STATUSZ", "8931",
       [](GrappleOptions* o) { o->observability.statusz_port = 8931; }},
      {"GRAPPLE_STATUSZ", "port", ignored},
      {"GRAPPLE_PROFILE", "on", [](GrappleOptions* o) { o->observability.profile = true; }},
      {"GRAPPLE_PROFILE", "yes", [](GrappleOptions* o) { o->observability.profile = true; }},
      {"GRAPPLE_PROFILE_HZ", "500", [](GrappleOptions* o) { o->observability.profile_hz = 500; }},
      // No clamp: an out-of-range rate is left for Validate() to reject.
      {"GRAPPLE_PROFILE_HZ", "5000",
       [](GrappleOptions* o) { o->observability.profile_hz = 5000; }},
      {"GRAPPLE_IO_RETRIES", "0", [](GrappleOptions* o) { o->robustness.max_io_retries = 0; }},
      // A negative count does not fit the field: it becomes the maximum.
      {"GRAPPLE_IO_RETRIES", "-1",
       [](GrappleOptions* o) {
         o->robustness.max_io_retries = std::numeric_limits<uint32_t>::max();
       }},
      {"GRAPPLE_IO_BACKOFF_US", "0", [](GrappleOptions* o) { o->robustness.backoff_base_us = 0; }},
      {"GRAPPLE_IO_BACKOFF_US", "2.5", ignored},
      {"GRAPPLE_CHECKPOINT", "on",
       [](GrappleOptions* o) { o->robustness.checkpoint_interval = kDefaultCheckpointInterval; }},
      {"GRAPPLE_CHECKPOINT", "off", ignored},
      {"GRAPPLE_CHECKPOINT_INTERVAL", "3",
       [](GrappleOptions* o) { o->robustness.checkpoint_interval = 3; }},
      {"GRAPPLE_CHECKPOINT_INTERVAL", "0", ignored},
      {"GRAPPLE_CHECKPOINT_SPACING", "0.25",
       [](GrappleOptions* o) { o->robustness.checkpoint_min_spacing_s = 0.25; }},
      {"GRAPPLE_CHECKPOINT_SPACING", "0",
       [](GrappleOptions* o) { o->robustness.checkpoint_min_spacing_s = 0; }},
      {"GRAPPLE_CHECKPOINT_SPACING", "soon", ignored},
  };
  for (const Case& c : cases) {
    GrappleOptions expected;
    c.expect(&expected);
    EXPECT_EQ(Describe(Apply({{c.name, c.value}})), Describe(expected))
        << c.name << "=" << c.value;
  }
}

TEST_F(ApplyEnvOverridesTest, UnsetKnobsKeepTheCallersOptions) {
  GrappleOptions custom;
  custom.scheduling.num_threads = 4;
  custom.engine.io_pipeline = false;
  custom.observability.witness = obs::WitnessMode::kFull;
  custom.observability.profile = true;
  custom.robustness.checkpoint_interval = 5;
  EXPECT_EQ(Describe(Apply({}, custom)), Describe(custom));
}

TEST_F(ApplyEnvOverridesTest, CheckpointKnobPrecedence) {
  GrappleOptions five;
  five.robustness.checkpoint_interval = 5;
  // "on" keeps a configured cadence and selects the default only for 0.
  EXPECT_EQ(Apply({{"GRAPPLE_CHECKPOINT", "on"}}, five).robustness.checkpoint_interval, 5u);
  EXPECT_EQ(Apply({{"GRAPPLE_CHECKPOINT", "on"}}).robustness.checkpoint_interval,
            kDefaultCheckpointInterval);
  EXPECT_EQ(Apply({{"GRAPPLE_CHECKPOINT", "off"}}, five).robustness.checkpoint_interval, 0u);
  // A malformed switch leaves the option alone.
  EXPECT_EQ(Apply({{"GRAPPLE_CHECKPOINT", "maybe"}}, five).robustness.checkpoint_interval, 5u);
  // A positive interval wins over the switch, even over "off".
  EXPECT_EQ(Apply({{"GRAPPLE_CHECKPOINT", "off"}, {"GRAPPLE_CHECKPOINT_INTERVAL", "3"}}, five)
                .robustness.checkpoint_interval,
            3u);
  EXPECT_EQ(Apply({{"GRAPPLE_CHECKPOINT", "on"}, {"GRAPPLE_CHECKPOINT_INTERVAL", "2"}})
                .robustness.checkpoint_interval,
            2u);
  // A non-positive interval is ignored, so the switch decides.
  EXPECT_EQ(Apply({{"GRAPPLE_CHECKPOINT", "on"}, {"GRAPPLE_CHECKPOINT_INTERVAL", "0"}})
                .robustness.checkpoint_interval,
            kDefaultCheckpointInterval);
}

TEST_F(ApplyEnvOverridesTest, OutOfRangeValuesReachValidate) {
  struct Case {
    Env env;
    const char* field;  // named by the Validate() message
  };
  const Case cases[] = {
      {{{"GRAPPLE_EVENTLOG_EVENTS", "-1"}}, "observability.event_log_capacity"},
      {{{"GRAPPLE_EVENTLOG_EVENTS", "8"}}, "observability.event_log_capacity"},
      {{{"GRAPPLE_STATUSZ", "70000"}}, "observability.statusz_port"},
      {{{"GRAPPLE_PROFILE_HZ", "5000"}}, "observability.profile_hz"},
      {{{"GRAPPLE_PROFILE_HZ", "0"}}, "observability.profile_hz"},
      {{{"GRAPPLE_IO_RETRIES", "-1"}}, "robustness.max_io_retries"},
      {{{"GRAPPLE_IO_BACKOFF_US", "5000000"}}, "robustness.backoff_base_us"},
      {{{"GRAPPLE_CHECKPOINT_SPACING", "-1"}}, "robustness.checkpoint_min_spacing_s"},
      {{{"GRAPPLE_THREADS", "5000"}}, "num_threads must be <= 1024"},
      // Checkpoints need a persistent work dir; the defaults have none.
      {{{"GRAPPLE_CHECKPOINT", "on"}}, "robustness.checkpoint_interval"},
  };
  for (const Case& c : cases) {
    std::vector<std::string> errors = Apply(c.env).Validate();
    ASSERT_EQ(errors.size(), 1u) << c.env[0].first << "=" << c.env[0].second;
    EXPECT_NE(errors[0].find(c.field), std::string::npos) << errors[0];
  }
  // The same checkpoint knob is legal once a work dir is configured.
  GrappleOptions with_dir;
  with_dir.work_dir = "some-dir";
  EXPECT_TRUE(Apply({{"GRAPPLE_CHECKPOINT", "on"}}, with_dir).Validate().empty());
}

// Below the edge nothing reads the environment: a Grapple built from the
// defaults (with no ApplyEnvOverrides call) runs the default scheduler and
// witness mode whatever the knobs say.
TEST_F(ApplyEnvOverridesTest, GrappleBuiltWithoutItIgnoresTheEnvironment) {
  ParseResult parsed = ParseProgram(R"(
    method main() {
      obj f : FileWriter
      f = new FileWriter
      event f open
      return
    }
  )");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  ::setenv("GRAPPLE_THREADS", "3", 1);
  ::setenv("GRAPPLE_WITNESS", "off", 1);
  Grapple analyzer(std::move(parsed.program), GrappleOptions());

  std::string error;
  std::optional<obs::JsonValue> status = obs::ParseJson(obs::Introspection::StatusJson(), &error);
  ASSERT_TRUE(status.has_value()) << error;
  const obs::JsonValue* sources = status->Find("sources");
  ASSERT_NE(sources, nullptr);
  const obs::JsonValue* scheduler = sources->Find("scheduler");
  const obs::JsonValue* session = sources->Find("session");
  ASSERT_NE(scheduler, nullptr);
  ASSERT_NE(session, nullptr);
  // checker_parallelism 1 x num_threads 1, plus the background-I/O worker.
  EXPECT_EQ(scheduler->NumberOr("workers", 0), 2);
  EXPECT_EQ(session->StringOr("witness_mode", ""), "bugs");

  GrappleResult result = analyzer.Check({MakeIoCheckerSpec()});
  ASSERT_EQ(result.TotalReports(), 1u);
  EXPECT_TRUE(result.checkers[0].reports[0].has_witness);
}

}  // namespace
}  // namespace grapple
