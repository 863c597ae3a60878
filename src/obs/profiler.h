// Always-on wall-clock sampling profiler with wait attribution and a
// per-partition-pair cost ledger (DESIGN.md §13).
//
// Each worker thread carries a small thread-local context — current phase
// tag, checker id, partition pair, and off-CPU wait kind — maintained by
// cheap RAII markers (ProfPhase/ProfChecker/ProfPair) threaded through the
// engine, the partition store, the oracle, and the checker layer. A ticker
// thread delivers SIGPROF to every registered thread at a fixed rate; the
// async-signal-safe handler snapshots the interrupted thread's context into
// a 32-byte sample in a per-thread seqlock ring (the event_log ring
// pattern), so every sample lands in exactly one
// (checker, phase, pair, on/off-CPU) bucket whether the thread was running
// or blocked. Off-CPU state comes from the evt::Emit observer tap: the
// kWaitBegin/kWaitEnd events emitted at I/O barriers, pending-I/O drains,
// simulated solve blocks, and task-runtime waits.
//
// The ticker harvests rings each tick into the cost ledger — a map from
// (checker, phase, pair, wait kind) to sample count — which persists as
// <work_dir>/profile.bin ("GPRF", versioned, length-prefixed, FNV-1a
// checksummed; the checkpoint envelope discipline) and is exported as
// collapsed-stack text for flamegraphs (tools/grapple-prof), as JSON on the
// /profilez statusz endpoint, and as phase fractions stamped into every
// BENCH_*.json.
//
// Context ids are event-log string-table ids offset by one: 0 means "no
// context", id-1 indexes the string table. Sampling is off by default;
// Observability::profile (GRAPPLE_PROFILE=on at the program's edges) turns
// it on at Observability::profile_hz (default 97 Hz). With the profiler
// stopped and a thread unregistered, a marker is one thread-local load and
// a branch.
#ifndef GRAPPLE_SRC_OBS_PROFILER_H_
#define GRAPPLE_SRC_OBS_PROFILER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/obs/metrics.h"

namespace grapple {
namespace obs {

// Sentinel for "no partition pair in scope".
inline constexpr uint64_t kProfileNoPair = ~0ull;

namespace profiler_internal {
struct ThreadProf;
// Returns the calling thread's profiler context, registering the thread on
// first use while the profiler is (or has been) running; nullptr when
// profiling never started and the thread is unregistered.
ThreadProf* CurrentThreadProf();
uint32_t SwapPhase(ThreadProf* tp, uint32_t value);
uint32_t SwapChecker(ThreadProf* tp, uint32_t value);
uint32_t ReadChecker(ThreadProf* tp);
uint64_t SwapPair(ThreadProf* tp, uint64_t value);
}  // namespace profiler_internal

// RAII phase marker; `name` is interned into the event-log string table.
// Nests: the previous phase is restored on destruction. When `metrics` is
// given, the scope's elapsed wall time is also added (in ns) to its
// `counter` — by convention "phase_<name>_ns" — whether or not the sampler
// runs; that counter is the phase's time of record.
class ProfPhase {
 public:
  explicit ProfPhase(const char* name, MetricsRegistry* metrics = nullptr,
                     MetricId counter = kInvalidMetric);
  ~ProfPhase();
  ProfPhase(const ProfPhase&) = delete;
  ProfPhase& operator=(const ProfPhase&) = delete;

 private:
  profiler_internal::ThreadProf* tp_ = nullptr;
  uint32_t prev_ = 0;
  MetricsRegistry* metrics_;
  MetricId counter_;
  uint64_t start_ns_ = 0;
};

// Sentinel for "no checker context". Accepted by ProfChecker (installs the
// empty context) and returned by ProfCurrentChecker when none is live.
inline constexpr uint32_t kProfNoChecker = ~0u;

// The innermost live ProfChecker's name id on the calling thread, or
// kProfNoChecker. Task-runtime submitters capture this and re-install it
// (via ProfChecker) inside task bodies, so work executed on a shared
// worker thread is still attributed to the checker that scheduled it.
uint32_t ProfCurrentChecker();

// RAII checker marker; takes an EventLogInternString id (the checker layer
// already interns checker names for kCheckerStart events) or kProfNoChecker
// to explicitly install "no checker".
class ProfChecker {
 public:
  explicit ProfChecker(uint32_t name_id);
  ~ProfChecker();
  ProfChecker(const ProfChecker&) = delete;
  ProfChecker& operator=(const ProfChecker&) = delete;

 private:
  profiler_internal::ThreadProf* tp_ = nullptr;
  uint32_t prev_ = 0;
};

// RAII partition-pair marker.
class ProfPair {
 public:
  ProfPair(uint32_t i, uint32_t j);
  ~ProfPair();
  ProfPair(const ProfPair&) = delete;
  ProfPair& operator=(const ProfPair&) = delete;

 private:
  profiler_internal::ThreadProf* tp_ = nullptr;
  uint64_t prev_ = kProfileNoPair;
};

// One cost-ledger bucket. `checker` and `phase` are 1-based string-table
// ids (0 = none); `wait_kind` is an evt::WaitKind (0 = on-CPU).
struct ProfileEntry {
  uint32_t checker = 0;
  uint32_t phase = 0;
  uint64_t pair = kProfileNoPair;
  uint32_t wait_kind = 0;
  uint64_t samples = 0;
};

// A decoded (or live-snapshotted) profile: the ledger plus the string-table
// snapshot that resolves checker/phase ids.
struct ProfileData {
  uint64_t sample_period_ns = 0;
  uint64_t total_samples = 0;
  uint64_t dropped_samples = 0;  // ring overwrites + torn slots
  uint64_t wall_ns = 0;          // profiled wall time across Start/Stop spans
  std::vector<ProfileEntry> entries;
  std::vector<std::string> strings;
};

// Installs the SIGPROF handler and registers the crash spiller that writes
// profile.bin next to flightrec.bin on fatal paths. Idempotent; implied by
// ProfilerStart.
void ProfilerInstall();

// Starts the ticker at `hz` samples/sec (clamped to 1..1000) and installs
// the evt observer for wait attribution. Returns false (and does nothing)
// when already running or hz == 0.
bool ProfilerStart(uint32_t hz);
// Stops the ticker, runs a final harvest, removes the observer. The ledger
// and thread registrations survive for later snapshots and restarts.
void ProfilerStop();
bool ProfilerRunning();

// Where crash paths (and the Grapple facade) persist the ledger. Empty
// disables the crash spill. `only_if_unset` mirrors
// EventLogSetCrashDumpPath: inner components propose, the facade decides.
void ProfilerSetDumpPath(const std::string& path, bool only_if_unset = false);
std::string ProfilerDumpPath();

// Harvests all rings now and returns the aggregated ledger.
ProfileData ProfilerSnapshot();

// Clears the ledger, sample counters, and profiled-wall clock, and skips
// any unharvested ring samples. Thread registrations stay. Tests only.
void ProfilerResetForTest();

// Persists a snapshot to `path` in GPRF format (tmp + fsync + rename).
// Returns false on I/O failure.
bool ProfilerWriteFile(const std::string& path);

// Strict decoder with named errors ("bad magic", "checksum mismatch",
// "truncated ...", each prefixed with the path).
bool DecodeProfile(const std::string& path, ProfileData* out, std::string* error);

// {"schema":"grapple.profile.v1",...,"entries":[...]} — entries sorted by
// descending sample count.
std::string ProfileToJson(const ProfileData& data);

// Collapsed-stack text for flamegraph tooling, one bucket per line:
//   <checker>;<phase>[;pair:<i>-<j>][;offcpu:<kind>] <count>
// with "(none)" for absent checker/phase frames. Lines sorted.
std::string ProfileToCollapsed(const ProfileData& data);

// Fraction of phase-tagged samples per phase name. The sampled counterpart
// of the "phase_<name>_ns" counters for fig9 cross-validation.
std::map<std::string, double> ProfilePhaseFractions(const ProfileData& data);

// Live-snapshot summary stamped into BENCH_*.json:
// {"samples":N,"dropped":N,"phase_fractions":{...}}. samples == 0 when the
// profiler never ran.
std::string ProfileSummaryJson();

// "none", "io_barrier", "io_queue", "solve", "task", or "unknown".
const char* ProfileWaitKindName(uint32_t kind);

}  // namespace obs
}  // namespace grapple

#endif  // GRAPPLE_SRC_OBS_PROFILER_H_
