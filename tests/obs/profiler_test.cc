// Sampling-profiler acceptance (DESIGN.md §13): signal-storm concurrency,
// attribution completeness, the GPRF envelope (round-trip plus truncation
// and corruption decode errors), wait attribution through the evt observer
// tap, fig9 cross-validation against a stopwatch, and the fatal-signal
// crash spill. Own test binary: it installs SIGPROF/SIGSEGV handlers,
// mutates the process-wide profiler singleton, and forks crashing children.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/event_log.h"
#include "src/obs/profiler.h"
#include "src/support/byte_io.h"
#include "src/support/event_hook.h"
#include "src/support/timer.h"
#include "tests/obs/json_parse.h"

namespace grapple {
namespace obs {
namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define GRAPPLE_UNDER_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define GRAPPLE_UNDER_SANITIZER 1
#endif
#endif
#ifndef GRAPPLE_UNDER_SANITIZER
#define GRAPPLE_UNDER_SANITIZER 0
#endif

// Spins with a checker/phase/pair context installed until `stop` is set.
void SpinWithContext(uint32_t checker_id, const char* phase, uint32_t pair_i, uint32_t pair_j,
                     const std::atomic<bool>* stop) {
  // The checker marker opens last and closes first, so every sample that
  // carries the checker also carries its phase and pair.
  ProfPhase prof_phase(phase);
  ProfPair pair(pair_i, pair_j);
  ProfChecker checker(checker_id);
  volatile uint64_t sink = 0;
  while (!stop->load(std::memory_order_relaxed)) {
    sink = sink * 2654435761u + 1;
  }
}

uint64_t SumSamples(const ProfileData& data) {
  uint64_t sum = 0;
  for (const ProfileEntry& entry : data.entries) {
    sum += entry.samples;
  }
  return sum;
}

std::string NameOf(const ProfileData& data, uint32_t id) {
  if (id == 0 || id > data.strings.size()) {
    return "";
  }
  return data.strings[id - 1];
}

// Runs the profiler at `hz` over `fn`, returns the final snapshot.
ProfileData ProfiledRun(uint32_t hz, const std::function<void()>& fn) {
  ProfilerResetForTest();
  EXPECT_TRUE(ProfilerStart(hz));
  fn();
  ProfileData data = ProfilerSnapshot();
  ProfilerStop();
  return data;
}

TEST(ProfilerTest, StartStopLifecycle) {
  EXPECT_FALSE(ProfilerRunning());
  EXPECT_FALSE(ProfilerStart(0)) << "hz == 0 must refuse to start";
  ASSERT_TRUE(ProfilerStart(200));
  EXPECT_TRUE(ProfilerRunning());
  EXPECT_FALSE(ProfilerStart(200)) << "second start must refuse while running";
  ProfilerStop();
  EXPECT_FALSE(ProfilerRunning());
  ProfilerStop();  // idempotent
  EXPECT_FALSE(ProfilerRunning());
}

// Attribution completeness: every harvested sample lands in exactly one
// ledger bucket (sum of entries == total), and a thread with a known
// context is attributed to that context.
TEST(ProfilerTest, AttributionIsCompleteAndNamed) {
  uint32_t checker_id = EventLogInternString("prof-test-checker");
  std::atomic<bool> stop{false};
  ProfileData data = ProfiledRun(500, [&] {
    std::thread worker(&SpinWithContext, checker_id, "prof-test-phase", 3u, 9u, &stop);
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    stop.store(true, std::memory_order_relaxed);
    worker.join();
  });

  EXPECT_GT(data.total_samples, 0u);
  EXPECT_EQ(SumSamples(data), data.total_samples)
      << "every sample must land in exactly one bucket";
  EXPECT_GT(data.sample_period_ns, 0u);
  EXPECT_GT(data.wall_ns, 0u);

  uint64_t tagged = 0;
  for (const ProfileEntry& entry : data.entries) {
    if (NameOf(data, entry.checker) == "prof-test-checker") {
      EXPECT_EQ(NameOf(data, entry.phase), "prof-test-phase");
      EXPECT_EQ(entry.pair, (uint64_t{3} << 32) | 9u);
      tagged += entry.samples;
    }
  }
  EXPECT_GT(tagged, 0u) << "the spinning worker's context never got sampled";
}

// Signal storm: many threads, maximum rate, nested markers churning while
// SIGPROF lands. The invariants must hold under fire and nothing may crash
// or deadlock.
TEST(ProfilerTest, SignalStormKeepsLedgerConsistent) {
  uint32_t checker_id = EventLogInternString("storm-checker");
  std::atomic<bool> stop{false};
  ProfileData data = ProfiledRun(1000, [&] {
    std::vector<std::thread> workers;
    for (uint32_t t = 0; t < 8; ++t) {
      workers.emplace_back([&, t] {
        ProfChecker checker(checker_id);
        volatile uint64_t sink = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          // Churn nested phase/pair markers so signals land mid-swap.
          ProfPhase phase(t % 2 == 0 ? "storm-even" : "storm-odd");
          for (uint32_t p = 0; p < 64; ++p) {
            ProfPair pair(t, p);
            sink = sink * 2654435761u + p;
          }
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    stop.store(true, std::memory_order_relaxed);
    for (std::thread& worker : workers) {
      worker.join();
    }
  });

  EXPECT_GT(data.total_samples, 0u);
  EXPECT_EQ(SumSamples(data), data.total_samples);
  // Drops (ring overwrites, torn slots) are legal under a storm but must be
  // accounted, never silently lost.
  for (const ProfileEntry& entry : data.entries) {
    EXPECT_LE(entry.wait_kind, static_cast<uint32_t>(evt::kWaitTask));
  }
}

// Off-CPU attribution: a thread blocked inside a kWaitBegin/kWaitEnd
// bracket keeps accumulating samples, tagged with the wait kind.
TEST(ProfilerTest, WaitBracketsAttributeOffCpuTime) {
  uint32_t checker_id = EventLogInternString("wait-checker");
  ProfileData data = ProfiledRun(500, [&] {
    std::thread worker([&] {
      ProfChecker checker(checker_id);
      ProfPhase phase("wait-phase");
      evt::Emit(evt::kWaitBegin, evt::kWaitSolve);
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
      evt::Emit(evt::kWaitEnd, evt::kWaitSolve);
    });
    worker.join();
  });

  uint64_t solve_samples = 0;
  for (const ProfileEntry& entry : data.entries) {
    if (NameOf(data, entry.checker) == "wait-checker" &&
        entry.wait_kind == evt::kWaitSolve) {
      EXPECT_EQ(NameOf(data, entry.phase), "wait-phase");
      solve_samples += entry.samples;
    }
  }
  EXPECT_GT(solve_samples, 0u) << "blocked time must be booked against the wait kind";
  EXPECT_NE(ProfileToCollapsed(data).find(";offcpu:solve"), std::string::npos);
}

// fig9 cross-validation: the profiler's phase fractions must agree with a
// wall-clock stopwatch over the same run within 10 points (the acceptance
// bound for agreeing with the engine's "phase_<name>_ns" counters).
TEST(ProfilerTest, PhaseFractionsMatchStopwatch) {
  std::map<std::string, double> stopwatch;
  ProfileData data = ProfiledRun(500, [&] {
    std::thread worker([&] {
      auto burn = [](double seconds) {
        WallTimer timer;
        volatile uint64_t sink = 0;
        while (timer.ElapsedSeconds() < seconds) {
          sink = sink * 2654435761u + 1;
        }
      };
      double total = 0;
      {
        ProfPhase phase("fig9-join");
        WallTimer timer;
        burn(0.45);
        stopwatch["fig9-join"] = timer.ElapsedSeconds();
      }
      {
        ProfPhase phase("fig9-io");
        WallTimer timer;
        burn(0.15);
        stopwatch["fig9-io"] = timer.ElapsedSeconds();
      }
      total = stopwatch["fig9-join"] + stopwatch["fig9-io"];
      for (auto& kv : stopwatch) {
        kv.second /= total;
      }
    });
    worker.join();
  });

  std::map<std::string, double> fractions = ProfilePhaseFractions(data);
  // Only the two synthetic phases carry tags in this run.
  ASSERT_GT(fractions.count("fig9-join"), 0u);
  ASSERT_GT(fractions.count("fig9-io"), 0u);
  EXPECT_NEAR(fractions["fig9-join"], stopwatch["fig9-join"], 0.10);
  EXPECT_NEAR(fractions["fig9-io"], stopwatch["fig9-io"], 0.10);
}

// GPRF envelope: a written ledger round-trips bit-exact through the decoder
// and the JSON/collapsed renderers resolve names from the embedded table.
TEST(ProfilerTest, ProfileFileRoundTrips) {
  uint32_t checker_id = EventLogInternString("roundtrip-checker");
  TempDir dir("prof-roundtrip");
  std::string path = dir.path() + "/profile.bin";
  std::atomic<bool> stop{false};
  ProfilerResetForTest();
  ASSERT_TRUE(ProfilerStart(500));
  std::thread worker(&SpinWithContext, checker_id, "roundtrip-phase", 1u, 2u, &stop);
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  stop.store(true, std::memory_order_relaxed);
  worker.join();
  ASSERT_TRUE(ProfilerWriteFile(path));
  ProfileData live = ProfilerSnapshot();
  ProfilerStop();

  ProfileData decoded;
  std::string error;
  ASSERT_TRUE(DecodeProfile(path, &decoded, &error)) << error;
  EXPECT_EQ(decoded.sample_period_ns, live.sample_period_ns);
  EXPECT_GT(decoded.total_samples, 0u);
  EXPECT_EQ(decoded.entries.size(), live.entries.size());
  EXPECT_EQ(SumSamples(decoded), decoded.total_samples);

  std::string json = ProfileToJson(decoded);
  std::optional<JsonValue> doc = ParseJson(json, &error);
  ASSERT_TRUE(doc.has_value()) << error << "\n" << json;
  EXPECT_EQ(doc->StringOr("schema", ""), "grapple.profile.v1");
  EXPECT_NE(json.find("roundtrip-checker"), std::string::npos);

  std::string collapsed = ProfileToCollapsed(decoded);
  EXPECT_NE(collapsed.find("roundtrip-checker;roundtrip-phase;pair:1-2"), std::string::npos);
}

// Decode failures are named, not silent: each corruption maps to a distinct
// diagnostic.
TEST(ProfilerTest, DecodeRejectsTruncationAndCorruption) {
  TempDir dir("prof-corrupt");
  std::string path = dir.path() + "/profile.bin";
  ProfilerResetForTest();
  ASSERT_TRUE(ProfilerStart(500));
  {
    ProfPhase phase("corrupt-phase");
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
  }
  ASSERT_TRUE(ProfilerWriteFile(path));
  ProfilerStop();

  std::vector<uint8_t> good;
  ASSERT_TRUE(ReadFileBytes(path, &good));
  ASSERT_GT(good.size(), 44u);

  auto expect_error = [&](const std::vector<uint8_t>& bytes, const std::string& needle) {
    std::string bad = dir.path() + "/bad.bin";
    ASSERT_TRUE(WriteFileBytes(bad, bytes));
    ProfileData out;
    std::string error;
    EXPECT_FALSE(DecodeProfile(bad, &out, &error));
    EXPECT_NE(error.find(needle), std::string::npos) << error;
  };

  ProfileData out;
  std::string error;
  EXPECT_FALSE(DecodeProfile(dir.path() + "/missing.bin", &out, &error));

  std::vector<uint8_t> magic = good;
  magic[0] ^= 0xff;
  expect_error(magic, "bad magic");

  std::vector<uint8_t> version = good;
  version[4] = 0x7f;
  expect_error(version, "unsupported version");

  std::vector<uint8_t> truncated(good.begin(), good.begin() + 20);
  expect_error(truncated, "truncated payload");

  std::vector<uint8_t> flipped = good;
  flipped[20] ^= 0x01;  // inside the payload: checksum must catch it
  expect_error(flipped, "checksum mismatch");

  std::vector<uint8_t> tiny(good.begin(), good.begin() + 8);
  expect_error(tiny, "bad magic");

  // A payload length near 2^64 must not wrap the size check.
  std::vector<uint8_t> wrapping(good.begin(), good.begin() + 8);
  PutFixed64(&wrapping, 0xFFFFFFFFFFFFFFF0ULL);
  wrapping.resize(24, 0);
  expect_error(wrapping, "truncated payload");
}

// The BENCH_*.json stamp: valid JSON with sample totals and fractions.
TEST(ProfilerTest, SummaryJsonIsWellFormed) {
  std::string summary = ProfileSummaryJson();
  std::string error;
  std::optional<JsonValue> doc = ParseJson(summary, &error);
  ASSERT_TRUE(doc.has_value()) << error << "\n" << summary;
  EXPECT_GE(doc->NumberOr("samples", -1), 0.0);
  EXPECT_GE(doc->NumberOr("dropped", -1), 0.0);
  EXPECT_NE(doc->Find("phase_fractions"), nullptr);
}

// Fatal-signal spill: a child dies on a real SIGSEGV; the handler must
// flush the flight recorder AND the profiler ledger before the re-raise,
// and the re-raise must preserve death-by-signal for the parent.
TEST(ProfilerTest, FatalSignalSpillsProfileAndFlightrec) {
  if (GRAPPLE_UNDER_SANITIZER) {
    GTEST_SKIP() << "sanitizer runtimes own the fatal-signal handlers";
  }
  TempDir work("prof-fatal");
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    EventLogInstall();
    EventLogSetCrashDumpPath(work.path() + "/flightrec.bin");
    ProfilerSetDumpPath(work.path() + "/profile.bin");
    // The fork copied the parent's ledger; clear it so the spilled profile
    // describes only this child's samples.
    ProfilerResetForTest();
    if (!ProfilerStart(500)) {
      _exit(40);
    }
    evt::Emit(evt::kRunStart, 1);
    {
      ProfPhase phase("fatal-phase");
      // Spin until at least one sample exists so the spill has content.
      WallTimer timer;
      while (ProfilerSnapshot().total_samples == 0 && timer.ElapsedSeconds() < 5.0) {
      }
    }
    raise(SIGSEGV);
    _exit(41);  // unreachable if the re-raise preserved the signal
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status)) << "exit status " << status;
  EXPECT_EQ(WTERMSIG(status), SIGSEGV);

  FlightRecording recording;
  std::string error;
  EXPECT_TRUE(DecodeFlightRecording(work.path() + "/flightrec.bin", &recording, &error))
      << error;

  ProfileData profile;
  ASSERT_TRUE(DecodeProfile(work.path() + "/profile.bin", &profile, &error)) << error;
  EXPECT_GT(profile.total_samples, 0u);
  bool saw_fatal_phase = false;
  for (const ProfileEntry& entry : profile.entries) {
    if (NameOf(profile, entry.phase) == "fatal-phase") {
      saw_fatal_phase = true;
    }
  }
  EXPECT_TRUE(saw_fatal_phase);
}

}  // namespace
}  // namespace obs
}  // namespace grapple
