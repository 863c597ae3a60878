// Crash/recovery acceptance sweep (DESIGN.md §11). A child process runs the
// full pipeline with a crash@<point> fault armed, dies mid-run with a
// simulated kill -9 at that point, and a second child resumes from the
// checkpoint manifest — the resumed run's bug reports and witnesses must be
// byte-identical to an uninterrupted run's, for EVERY registered crash
// point. Own test binary: these tests fork, kill children, and mutate
// process-global fault state.
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <filesystem>

#include "src/checker/builtin_checkers.h"
#include "src/checker/report_json.h"
#include "src/core/grapple.h"
#include "src/ir/parser.h"
#include "src/support/byte_io.h"
#include "src/support/fault_injection.h"

namespace grapple {
namespace {

// Figure 3b shape: a feasible FileWriter leak (bad exit state, with a
// derivation witness) plus an infeasible path the oracle must prune. Two
// checkers run so the sweep crosses multiple engine instances.
constexpr char kProgram[] = R"(
method main() {
  obj out : FileWriter
  obj o : FileWriter
  int x
  int y
  x = ?
  y = x
  if (x >= 0) {
    out = new FileWriter
    event out open
    o = out
    y = x - 1
  } else {
    y = x + 1
  }
  if (y > 0) {
    event out write
    event o close
  }
  return
}
)";

Program MustParse(const std::string& text) {
  ParseResult result = ParseProgram(text);
  EXPECT_TRUE(result.ok) << result.error;
  return std::move(result.program);
}

std::vector<FsmSpec> Specs() {
  std::vector<FsmSpec> specs;
  specs.push_back(MakeIoCheckerSpec());
  specs.push_back(MakeLockCheckerSpec());
  return specs;
}

// One deterministic artifact per run: checker name, degradation marker, and
// the full report JSON (witnesses included). Byte-compared across runs.
std::string RunPipeline(const std::string& work_dir) {
  ParseResult parsed = ParseProgram(kProgram);
  if (!parsed.ok) {
    return "parse error: " + parsed.error;
  }
  GrappleOptions options;
  options.work_dir = work_dir;
  options.robustness.checkpoint_interval = 1;     // checkpoint at every pair
  options.robustness.checkpoint_min_spacing_s = 0;  // no wall-clock throttle
  Grapple analyzer(std::move(parsed.program), options);
  GrappleResult result = analyzer.Check(Specs());
  std::string artifact;
  for (const auto& checker : result.checkers) {
    artifact += checker.checker;
    artifact += checker.degraded ? " DEGRADED: " + checker.degraded_reason + "\n" : "\n";
    artifact += ReportsToJson(checker.reports);
    artifact += "\n";
  }
  return artifact;
}

// Forks; the child arms `faults` (empty = none), runs the pipeline in
// `work_dir`, writes its artifact, and exits 0. Returns the child's exit
// code: 0 on a completed run, fault::kCrashExitCode when a crash point
// fired, 4x on harness errors.
int RunInChild(const std::string& work_dir, const std::string& faults,
               const std::string& artifact_path) {
  pid_t pid = fork();
  if (pid < 0) {
    return -1;
  }
  if (pid == 0) {
    std::string error;
    if (!faults.empty() && !fault::Configure(faults, &error)) {
      _exit(40);
    }
    std::string artifact = RunPipeline(work_dir);
    if (!WriteFileBytes(artifact_path,
                        std::vector<uint8_t>(artifact.begin(), artifact.end()))) {
      _exit(41);
    }
    _exit(0);
  }
  int status = 0;
  if (waitpid(pid, &status, 0) != pid) {
    return -2;
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -3;
}

// Entries of `work_dir` named after the io checker's run dirs.
std::vector<std::string> IoCheckerDirs(const std::string& work_dir) {
  std::vector<std::string> dirs;
  for (const auto& entry : std::filesystem::directory_iterator(work_dir)) {
    std::string name = entry.path().filename().string();
    if (name.rfind("typestate-io", 0) == 0) {
      dirs.push_back(name);
    }
  }
  return dirs;
}

std::string ReadArtifact(const std::string& path) {
  std::vector<uint8_t> bytes;
  if (!ReadFileBytes(path, &bytes)) {
    return "";
  }
  return std::string(bytes.begin(), bytes.end());
}

TEST(RecoveryTest, CrashSweepResumesToByteIdenticalReports) {
  TempDir scratch("recovery-artifacts");
  TempDir ref_dir("recovery-ref");
  std::string ref_path = scratch.File("ref.txt");
  ASSERT_EQ(RunInChild(ref_dir.path(), "", ref_path), 0);
  std::string reference = ReadArtifact(ref_path);
  ASSERT_FALSE(reference.empty());
  // The reference must carry a real decoded witness — otherwise the
  // byte-equality below would not be testing witness reconstruction.
  ASSERT_NE(reference.find("\"witness\""), std::string::npos) << reference;
  ASSERT_EQ(reference.find("DEGRADED"), std::string::npos) << reference;

  for (const std::string& point : fault::AllCrashPoints()) {
    for (int ordinal : {1, 3}) {
      std::string tag = point + "-" + std::to_string(ordinal);
      TempDir work("recovery-" + tag);
      std::string crash_path = scratch.File(tag + "-crash.txt");
      int code = RunInChild(work.path(),
                            "crash@" + point + "#" + std::to_string(ordinal), crash_path);
      if (ordinal == 1) {
        // Every registered point fires at least once in a checkpointing run.
        ASSERT_EQ(code, fault::kCrashExitCode) << tag;
      }
      if (code == fault::kCrashExitCode) {
        std::string resume_path = scratch.File(tag + "-resume.txt");
        ASSERT_EQ(RunInChild(work.path(), "", resume_path), 0) << tag;
        EXPECT_EQ(ReadArtifact(resume_path), reference) << tag;
      } else {
        // The point fired fewer than `ordinal` times; the run completed and
        // must have produced the reference output on its own.
        ASSERT_EQ(code, 0) << tag;
        EXPECT_EQ(ReadArtifact(crash_path), reference) << tag;
      }
    }
  }
}

TEST(RecoveryTest, CrashDuringResumeStillRecovers) {
  // Kill the *resuming* run too (double crash), then let a third attempt
  // finish: recovery must be re-entrant.
  TempDir scratch("recovery-double");
  TempDir ref_dir("recovery-double-ref");
  std::string ref_path = scratch.File("ref.txt");
  ASSERT_EQ(RunInChild(ref_dir.path(), "", ref_path), 0);
  std::string reference = ReadArtifact(ref_path);

  TempDir work("recovery-double-work");
  ASSERT_EQ(RunInChild(work.path(), "crash@ckpt_published#2", scratch.File("c1.txt")),
            fault::kCrashExitCode);
  ASSERT_EQ(RunInChild(work.path(), "crash@run_pair_done#1", scratch.File("c2.txt")),
            fault::kCrashExitCode);
  std::string final_path = scratch.File("final.txt");
  ASSERT_EQ(RunInChild(work.path(), "", final_path), 0);
  EXPECT_EQ(ReadArtifact(final_path), reference);
}

// --- in-process degradation tests (no forking; fault state reset around
// each) ---

class DegradationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::Reset();
    IoRetryPolicy policy;
    policy.backoff_base_us = 0;
    SetIoRetryPolicy(policy);
  }
  void TearDown() override {
    fault::Reset();
    SetIoRetryPolicy(IoRetryPolicy());
  }
};

TEST_F(DegradationTest, IoFailureDegradesOneCheckerNotTheRun) {
  TempDir dir("degrade-isolate");
  // Every write under the io checker's work dir fails hard; the lock
  // checker and the alias phase are untouched.
  ASSERT_TRUE(fault::Configure("fail@write#1+:path=typestate-io"));
  GrappleOptions options;
  options.work_dir = dir.path();
  Grapple analyzer(MustParse(kProgram), options);
  GrappleResult result = analyzer.Check(Specs());
  ASSERT_EQ(result.checkers.size(), 2u);
  const CheckerRunResult* io_run = nullptr;
  const CheckerRunResult* lock_run = nullptr;
  for (const auto& run : result.checkers) {
    (run.checker == "io" ? io_run : lock_run) = &run;
  }
  ASSERT_NE(io_run, nullptr);
  ASSERT_NE(lock_run, nullptr);
  EXPECT_TRUE(io_run->degraded);
  EXPECT_NE(io_run->degraded_reason.find("typestate-io"), std::string::npos)
      << io_run->degraded_reason;
  EXPECT_TRUE(io_run->reports.empty());
  EXPECT_FALSE(lock_run->degraded);
  // The failed run's dir is removed like any other run's.
  EXPECT_TRUE(IoCheckerDirs(dir.path()).empty());
}

TEST_F(DegradationTest, IsolationOffPropagatesTheFailure) {
  TempDir dir("degrade-throw");
  ASSERT_TRUE(fault::Configure("fail@write#1+:path=typestate-io"));
  GrappleOptions options;
  options.work_dir = dir.path();
  options.robustness.isolate_checker_failures = false;
  Grapple analyzer(MustParse(kProgram), options);
  EXPECT_THROW(analyzer.Check(Specs()), IoError);
  EXPECT_TRUE(IoCheckerDirs(dir.path()).empty());
}

TEST_F(DegradationTest, CorruptProvenanceYieldsWitnessUnavailable) {
  TempDir dir("degrade-witness");
  // Corrupt the first byte the provenance reader sees: witness decoding
  // must degrade to a witness_error marker, never drop the bug itself.
  ASSERT_TRUE(fault::Configure("flip@read#1:0:path=provenance.bin"));
  GrappleOptions options;
  options.work_dir = dir.path();
  Grapple analyzer(MustParse(kProgram), options);
  GrappleResult result = analyzer.Check({MakeIoCheckerSpec()});
  ASSERT_EQ(result.checkers.size(), 1u);
  ASSERT_EQ(result.checkers[0].reports.size(), 1u);
  const BugReport& report = result.checkers[0].reports[0];
  EXPECT_FALSE(report.has_witness);
  EXPECT_NE(report.witness_error.find("witness_unavailable"), std::string::npos)
      << report.witness_error;
  // The degradation is machine-visible in the JSON artifact.
  EXPECT_NE(ReportToJson(report).find("witness_error"), std::string::npos);
}

}  // namespace
}  // namespace grapple
