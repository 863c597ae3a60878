// Flight-recorder crash dump acceptance (DESIGN.md §12): a child process
// runs the pipeline with a crash@<point> fault armed; when the simulated
// kill fires, the crash path must flush the event-log rings to
// <work_dir>/flightrec.bin before _exit. The parent decodes the dump and
// checks the tail tells the story: run started, the fault fired, and the
// final record names the crash point. Own test binary: forks and mutates
// process-global fault state.
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/checker/builtin_checkers.h"
#include "src/core/grapple.h"
#include "src/ir/parser.h"
#include "src/obs/event_log.h"
#include "src/support/byte_io.h"
#include "src/support/event_hook.h"
#include "src/support/fault_injection.h"

namespace grapple {
namespace {

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

// Forks; the child arms `faults`, runs the pipeline in `work_dir`, and
// exits. Returns the child's exit code (fault::kCrashExitCode when the
// crash point fired).
int RunInChild(const std::string& work_dir, const std::string& faults) {
  pid_t pid = fork();
  if (pid < 0) {
    return -1;
  }
  if (pid == 0) {
    std::string error;
    if (!faults.empty() && !fault::Configure(faults, &error)) {
      _exit(40);
    }
    ParseResult parsed = ParseProgram(kProgram);
    if (!parsed.ok) {
      _exit(41);
    }
    GrappleOptions options;
    options.work_dir = work_dir;
    options.robustness.checkpoint_interval = 1;
    options.robustness.checkpoint_min_spacing_s = 0;
    Grapple analyzer(std::move(parsed.program), options);
    analyzer.Check({MakeIoCheckerSpec(), MakeLockCheckerSpec()});
    _exit(0);
  }
  int status = 0;
  if (waitpid(pid, &status, 0) != pid) {
    return -2;
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -3;
}

// Resolves a string-carrying argument through the dump's interned table.
std::string StringArg(const obs::FlightRecording& recording, uint64_t index) {
  if (index >= recording.strings.size()) {
    return "";
  }
  return recording.strings[static_cast<size_t>(index)];
}

TEST(FlightrecTest, CrashDumpIsWrittenAndDecodes) {
  TempDir work("flightrec-crash");
  ASSERT_EQ(RunInChild(work.path(), "crash@ckpt_published#1"), fault::kCrashExitCode);

  std::string path = work.path() + "/flightrec.bin";
  obs::FlightRecording recording;
  std::string error;
  ASSERT_TRUE(obs::DecodeFlightRecording(path, &recording, &error)) << path << ": " << error;
  ASSERT_FALSE(recording.events.empty());

  // The tail carries the whole story: the run started, the armed fault
  // fired, and a crash-exit record names the point. (The crash-exit need
  // not be the very last record: pool threads may stamp one more event in
  // the instant before the flush snapshots the rings.)
  bool saw_run_start = false;
  bool saw_fault = false;
  const obs::FlightEvent* crash = nullptr;
  for (const obs::FlightEvent& event : recording.events) {
    if (event.type == evt::kRunStart) {
      saw_run_start = true;
    }
    if (event.type == evt::kFaultInjected &&
        StringArg(recording, event.arg2) == "ckpt_published") {
      saw_fault = true;
    }
    if (event.type == evt::kCrashExit) {
      EXPECT_EQ(crash, nullptr) << "one simulated kill, one crash record";
      crash = &event;
    }
  }
  EXPECT_TRUE(saw_run_start);
  EXPECT_TRUE(saw_fault);
  ASSERT_NE(crash, nullptr);
  EXPECT_EQ(StringArg(recording, crash->arg2), "ckpt_published");
  // Timestamps are monotone across the merged per-thread rings.
  for (size_t i = 1; i < recording.events.size(); ++i) {
    EXPECT_GE(recording.events[i].ts_ns, recording.events[i - 1].ts_ns);
  }
  // The decoded dump renders as JSON (what grapple-flightrec --json
  // prints).
  std::string json = obs::FlightRecordingToJson(recording);
  EXPECT_NE(json.find("fault_injected"), std::string::npos);
  EXPECT_NE(json.find("crash_exit"), std::string::npos);
}

TEST(FlightrecTest, EachCrashLeavesAFreshDump) {
  // A second crash in the same work dir overwrites the dump; the decoded
  // tail always describes the most recent death.
  TempDir work("flightrec-twice");
  ASSERT_EQ(RunInChild(work.path(), "crash@ckpt_published#1"), fault::kCrashExitCode);
  ASSERT_EQ(RunInChild(work.path(), "crash@run_pair_done#1"), fault::kCrashExitCode);

  obs::FlightRecording recording;
  std::string error;
  ASSERT_TRUE(
      obs::DecodeFlightRecording(work.path() + "/flightrec.bin", &recording, &error))
      << error;
  ASSERT_FALSE(recording.events.empty());
  bool second_crash = false;
  for (const obs::FlightEvent& event : recording.events) {
    if (event.type == evt::kCrashExit) {
      EXPECT_EQ(StringArg(recording, event.arg2), "run_pair_done")
          << "dump must describe the most recent death only";
      second_crash = true;
    }
  }
  EXPECT_TRUE(second_crash);
}

TEST(FlightrecTest, CleanRunWritesNoDump) {
  TempDir work("flightrec-clean");
  ASSERT_EQ(RunInChild(work.path(), ""), 0);
  std::vector<uint8_t> bytes;
  EXPECT_FALSE(ReadFileBytes(work.path() + "/flightrec.bin", &bytes))
      << "clean exit must not leave a crash dump";
}

}  // namespace
}  // namespace grapple
