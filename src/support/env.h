// Environment-variable configuration for the observability layer (and any
// other runtime toggle that must work without touching call sites).
//
// Grapple reads:
//   GRAPPLE_LOG_LEVEL        debug|info|warning|error|fatal (or 0..4)
//   GRAPPLE_METRICS          path ("-" = stdout): the Grapple facade writes
//                            the machine-readable run report there
//   GRAPPLE_REPORT_DIR       directory: every bench writes its
//                            BENCH_<name>.json report there (obs/report.h)
//   GRAPPLE_WITNESS          off|bugs|full: how much derivation provenance
//                            to record and decode into per-bug witnesses
//                            (obs/provenance.h; default bugs)
//   GRAPPLE_SCALE            bench workload scale (read by bench_util.h)
//   GRAPPLE_THREADS          positive integer: overrides every engine-level
//                            worker-thread option (EngineOptions.num_threads,
//                            GrappleOptions::Scheduling::num_threads) at the
//                            point workers are sized; see ResolveThreadCount.
//                            It does NOT touch checker_parallelism: the
//                            session's TaskRuntime is sized as
//                            resolve(checker_parallelism) x
//                            resolve(num_threads) + 1, so this knob scales
//                            the per-checker factor only (DESIGN.md §14)
//   GRAPPLE_STEAL            locality|always|pinned: overrides the task
//                            runtime's steal policy
//                            (GrappleOptions::Scheduling::steal_policy)
//                            outright. "pinned" disables stealing and
//                            reproduces the legacy two-pool execution for
//                            A/B timing; results are byte-identical under
//                            every policy; see ResolveStealPolicy in
//                            support/task_runtime.h
//   GRAPPLE_IO_PIPELINE      on|off: overrides the pipelined-partition-I/O
//                            option (EngineOptions.io_pipeline) outright at
//                            the point the store is built; results are
//                            byte-identical either way — the knob exists for
//                            A/B timing and for disabling the background I/O
//                            thread; see ResolveIoPipeline
//   GRAPPLE_CHECKPOINT       on|off: overrides whether crash-safe
//                            checkpointing is enabled (DESIGN.md §11). "on"
//                            with no interval configured selects the default
//                            cadence; see ResolveCheckpointInterval
//   GRAPPLE_CHECKPOINT_INTERVAL
//                            positive integer: checkpoint every N processed
//                            partition pairs, overriding the option outright
//   GRAPPLE_CHECKPOINT_SPACING
//                            non-negative seconds: minimum wall-clock gap
//                            between interval-triggered manifests (bounds
//                            checkpoint overhead when pairs are cheap);
//                            0 = publish on every interval hit
//   GRAPPLE_IO_RETRIES       non-negative integer: overrides the bounded
//                            retry count for transient I/O failures
//                            (support/byte_io.h IoRetryPolicy.max_retries)
//   GRAPPLE_IO_BACKOFF_US    non-negative integer: base microseconds of the
//                            exponential backoff between I/O retries
//                            (IoRetryPolicy.backoff_base_us; 0 = no sleep)
//   GRAPPLE_FAULTS           fault-injection spec (tests/CI only): see
//                            support/fault_injection.h for the grammar
//   GRAPPLE_STATUSZ          integer: start the live-introspection HTTP
//                            listener (obs/statusz.h) on 127.0.0.1:<port>
//                            (0 = ephemeral port), overriding
//                            GrappleOptions::Observability::statusz_port;
//                            -1 or unset leaves the option in charge
//   GRAPPLE_EVENTLOG_EVENTS  positive integer: flight-recorder ring size in
//                            events per thread (obs/event_log.h; default
//                            4096), overriding
//                            Observability::event_log_capacity
//   GRAPPLE_SAMPLE_INTERVAL_MS
//                            positive integer: background metrics-sampler
//                            cadence in milliseconds (obs/sampler.h),
//                            overriding Observability::sample_interval_ms
//   GRAPPLE_PROFILE          on|off: overrides whether the wall-clock
//                            sampling profiler (obs/profiler.h, DESIGN.md
//                            §13) runs; when on, the Grapple facade starts
//                            it and writes <work_dir>/profile.bin after
//                            each Check(); see ResolveProfile
//   GRAPPLE_PROFILE_HZ       integer 1..1000: sampling frequency in Hz
//                            (default 97 — prime, avoids lockstep with
//                            periodic work), overriding
//                            Observability::profile_hz; see ResolveProfileHz
//   GRAPPLE_SERVICE_PORT     integer: the grappled analysis daemon's
//                            loopback listen port (0 = ephemeral),
//                            overriding ServiceOptions::port
//                            (src/service/service.h, DESIGN.md §15)
//   GRAPPLE_MAX_RESIDENT_SESSIONS
//                            positive integer: cap on warm Grapple sessions
//                            the daemon keeps resident (LRU-evicted beyond
//                            this; in-flight sessions are never dropped),
//                            overriding ServiceOptions::max_resident_sessions
//                            (default 8)
//   GRAPPLE_ADMISSION_QUEUE  positive integer: bound on queued-but-unstarted
//                            check requests across all tenants; requests
//                            beyond it are rejected with HTTP 429,
//                            overriding ServiceOptions::admission_capacity
//                            (default 64)
//
// Thread-count convention: a thread-count option of 0 means "use the
// hardware concurrency" — uniformly, wherever a pool is sized. Call sites
// resolve option values through ResolveThreadCount() so the env override
// and the 0-means-hardware rule apply in exactly one place.
#ifndef GRAPPLE_SRC_SUPPORT_ENV_H_
#define GRAPPLE_SRC_SUPPORT_ENV_H_

#include <cstdint>
#include <string>

namespace grapple {

// Raw getenv; nullptr when unset. Empty values count as unset.
const char* EnvRaw(const char* name);

std::string EnvString(const char* name, const std::string& default_value = "");

// Parses a decimal integer; malformed or unset values yield the default.
int64_t EnvInt64(const char* name, int64_t default_value);

// Truthy: "1", "true", "yes", "on" (case-insensitive).
bool EnvBool(const char* name, bool default_value = false);

// std::thread::hardware_concurrency(), never less than 1.
size_t HardwareThreads();

// Resolves a worker-thread-count option: GRAPPLE_THREADS (positive integer)
// overrides `requested` outright; otherwise 0 selects HardwareThreads().
size_t ResolveThreadCount(size_t requested);

// Resolves the pipelined-I/O option: GRAPPLE_IO_PIPELINE (on/off) overrides
// `requested` outright when set.
bool ResolveIoPipeline(bool requested);

// Resolves the checkpoint cadence (0 = disabled):
// GRAPPLE_CHECKPOINT_INTERVAL (positive integer) overrides `requested`
// outright; else GRAPPLE_CHECKPOINT=on enables the default cadence
// (kDefaultCheckpointInterval) when `requested` is 0, and =off forces 0.
inline constexpr uint32_t kDefaultCheckpointInterval = 8;
uint32_t ResolveCheckpointInterval(uint32_t requested);

// Resolves the minimum wall-clock spacing (seconds) between
// interval-triggered checkpoint manifests: GRAPPLE_CHECKPOINT_SPACING
// (non-negative seconds, fractions allowed) overrides `requested` when set
// and parseable.
double ResolveCheckpointSpacing(double requested);

// Resolves the sampling-profiler toggle: GRAPPLE_PROFILE (on/off) overrides
// `requested` outright when set.
bool ResolveProfile(bool requested);

// Resolves the profiler sampling rate: GRAPPLE_PROFILE_HZ (integer,
// clamped to 1..1000) overrides `requested` when set and positive.
inline constexpr uint32_t kDefaultProfileHz = 97;
uint32_t ResolveProfileHz(uint32_t requested);

}  // namespace grapple

#endif  // GRAPPLE_SRC_SUPPORT_ENV_H_
