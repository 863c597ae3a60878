// The Grapple system facade: frontend -> phase 1 (path-sensitive alias
// analysis) -> phase 2 (path-sensitive typestate dataflow, per checker) ->
// phase 3 (FSM checking), as described in §2.2.
//
// A Grapple instance is a *session* over one program: the frontend runs at
// construction, phase 1 runs once on first use and is cached, and phases
// 2-3 run per property spec — repeatedly, and concurrently when
// Scheduling::checker_parallelism > 1.
//
// Typical use:
//
//   Program program = ...;                 // built or parsed
//   Grapple grapple(std::move(program));
//   GrappleResult result = grapple.Check(AllBuiltinCheckers());
//   for (const auto& checker : result.checkers) {
//     for (const auto& report : checker.reports) {
//       std::cout << report.ToString() << "\n";
//     }
//   }
//   // The session stays usable: add a custom checker later, reusing the
//   // cached alias analysis.
//   CheckerRunResult one = grapple.CheckOne(MyCheckerSpec());
#ifndef GRAPPLE_SRC_CORE_GRAPPLE_H_
#define GRAPPLE_SRC_CORE_GRAPPLE_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/analysis/alias_graph.h"
#include "src/analysis/alias_index.h"
#include "src/cfg/call_graph.h"
#include "src/checker/builtin_checkers.h"
#include "src/checker/checker.h"
#include "src/graph/engine.h"
#include "src/ir/ir.h"
#include "src/obs/provenance.h"
#include "src/obs/report.h"
#include "src/obs/statusz.h"
#include "src/smt/solver.h"
#include "src/support/byte_io.h"
#include "src/support/task_runtime.h"
#include "src/symexec/cfet_builder.h"

namespace grapple {

// Analysis options, grouped by concern. Construct, adjust the nested
// fields, and pass to Grapple; the constructor rejects invalid combinations
// with the messages from Validate() (no silent clamping).
struct GrappleOptions {
  // Knobs of the out-of-core engine and its constraint oracle.
  struct EngineTuning {
    // Analysis-wide cap on bytes of edge data resident in memory. With
    // concurrent checkers this is the *total* across all live engines: each
    // gets a fixed slice of total / parallelism. Sequentially each engine
    // gets all of it. Smaller values force more partitions and exercise the
    // out-of-core machinery.
    uint64_t memory_budget_bytes = uint64_t{64} << 20;
    // Per-(src,dst,label) cap on distinct payload variants; reaching it
    // widens the triple to the always-true payload (see EngineOptions).
    size_t max_variants_per_triple = 8;
    // Exact constraint memoization by payload pair (Table 4). Disable to
    // measure its benefit.
    bool enable_cache = true;
    size_t max_encoding_items = 64;
    SolverLimits solver_limits;
    // Per-solve wait (µs) modeling an external SMT solver's call cost;
    // 0 = the built-in solver's native speed. See IntervalOracle::Options.
    uint32_t simulated_solve_latency_us = 0;
    // Simulated latency sleeps (out-of-process solver endpoint) instead of
    // busy-waiting (in-process solver). See IntervalOracle::Options.
    bool simulated_solve_blocks = false;
    // Background partition I/O: write-behind and schedule-driven prefetch
    // (see EngineOptions.io_pipeline and DESIGN.md). Off runs partition I/O
    // inline; the files and the results are byte-identical either way.
    bool io_pipeline = true;
  };

  // Precision/soundness trade-offs of the program abstraction.
  struct Precision {
    // Bounded loop unrolling factor (§3.1); must be >= 1.
    size_t loop_unroll = 2;
    // Qualify each typestate event edge with the encoding of the
    // object-to-receiver flow that makes it apply (extra precision: events
    // whose aliasing is path-infeasible no longer fire). See
    // TypestateGraph's constructor.
    bool qualify_events_with_alias_paths = true;
    IcfetOptions icfet;
  };

  // What the run records about itself.
  struct Observability {
    // How much derivation provenance to record and decode:
    //   kOff  — no recording, reports carry no witnesses;
    //   kBugs — record during typestate phases, decode per reported bug;
    //   kFull — as kBugs, plus an SMT replay at every witness step.
    obs::WitnessMode witness = obs::WitnessMode::kBugs;
    // Flight-recorder ring size, in events per thread (DESIGN.md §12). The
    // ring overwrites oldest-first, so this bounds both memory (32 bytes per
    // slot per thread) and how far back a crash dump reaches. Range
    // [64, 1M].
    size_t event_log_capacity = 4096;
    // Live introspection HTTP listener (loopback only): -1 = off,
    // 0 = pick an ephemeral port (see obs::StatuszPort()), else the literal
    // port. Serves /healthz, /statusz, /metricsz, /tracez, /profilez.
    int statusz_port = -1;
    // Wall-clock sampling profiler (obs/profiler.h, DESIGN.md §13). When
    // on, the session starts the process-wide profiler and persists the
    // per-pair cost ledger as <work_dir>/profile.bin after every Check().
    bool profile = false;
    // Sampling frequency in Hz, range [1, 1000]. The default is prime so
    // samples do not run in lockstep with periodic work.
    uint32_t profile_hz = 97;
  };

  // How much hardware one Check() call may use. Every unit of work in the
  // session — whole checker runs, engine join shards, partition prefetch
  // reads, write-behind encodes — executes on one session-owned
  // work-stealing TaskRuntime (support/task_runtime.h, DESIGN.md §14),
  // sized by the formula
  //
  //     workers = resolve(checker_parallelism) * resolve(num_threads) + 1
  //
  // where resolve() applies the 0-means-hardware rule (ResolveThreadCount,
  // support/task_runtime.h). The +1 keeps a worker available for background
  // I/O lanes even when every sized-for worker is holding a checker task.
  // Results (reports, witnesses, report ordering) are independent of every
  // knob in this group.
  struct Scheduling {
    // Outer concurrency: how many checkers (phase 2+3 engine runs) execute
    // at once. Check() runs at most this many checker tasks concurrently
    // regardless of the worker count, and with more than one, each engine
    // gets a fixed 1/parallelism slice of engine.memory_budget_bytes
    // (parallelism capped by the spec count).
    size_t checker_parallelism = 1;
    // Inner concurrency: each engine splits its join loop into this many
    // shards (0 = hardware concurrency). The shard count — not the worker
    // count — is what the engine's deterministic integration order is keyed
    // on, so changing worker counts never changes results.
    size_t num_threads = 1;
  };

  // Crash safety and I/O fault tolerance (DESIGN.md §11).
  struct Robustness {
    // Checkpoint the out-of-core fixpoint every N processed partition pairs
    // (0 = off). With a persistent `work_dir`, an analysis killed mid-run
    // and rerun over the same program and options resumes each engine from
    // its last published manifest and produces byte-identical reports and
    // witnesses.
    uint32_t checkpoint_interval = 0;
    // Minimum wall-clock seconds between interval-triggered manifests.
    // Each manifest re-encodes the engine's full resume state, so on
    // workloads whose pairs drain faster than the interval this throttle is
    // what keeps checkpoint overhead bounded (roughly manifest-cost /
    // spacing) instead of proportional to pair throughput. Completion
    // manifests ignore it. 0 = checkpoint on every interval hit (tests use
    // this for dense crash-point coverage).
    double checkpoint_min_spacing_s = 1.0;
    // Bounded retries for transient I/O failures (EINTR, EAGAIN, short
    // reads/writes) in the byte-I/O layer. Range [0, 100].
    uint32_t max_io_retries = 4;
    // Base microseconds of the exponential backoff between those retries
    // (0 = retry immediately). Range [0, 1s].
    uint32_t backoff_base_us = 50;
    // When a checker's engine run dies with an I/O error, Check() records a
    // degraded CheckerRunResult (degraded/degraded_reason set, no reports)
    // and keeps running the remaining checkers instead of propagating the
    // exception. Disable to fail the whole Check() on the first error.
    bool isolate_checker_failures = true;
  };

  EngineTuning engine;
  Precision precision;
  Observability observability;
  Scheduling scheduling;
  Robustness robustness;
  // Root of the engines' work dirs; empty creates a private temp dir. Each
  // engine run spills into its own subdirectory, removed when the run ends
  // unless robustness.checkpoint_interval > 0 keeps it for resume.
  std::string work_dir;

  // Returns one descriptive message per invalid setting ({} when the
  // options are usable). Grapple's constructor fails on a non-empty result
  // instead of silently clamping values.
  std::vector<std::string> Validate() const;
};

// The checkpoint cadence GRAPPLE_CHECKPOINT=on selects when no interval is
// configured.
inline constexpr uint32_t kDefaultCheckpointInterval = 8;

// Applies the GRAPPLE_* environment variables that override option fields.
// This is the only code that maps the environment onto options: the
// program's edges (analyze_file, grappled via ServiceOptions::FromEnv, the
// benches via BenchOptions) call it, then Validate(); Grapple, GraphEngine,
// TaskRuntime and the obs sinks act on the options they are given and on
// nothing else. A set variable overrides the field outright; an unset, empty
// or malformed one leaves it alone. An integer that parses but is out of
// range is stored as is (or, if the field's type cannot hold it, as the
// type's maximum) so Validate() rejects it.
//
//   GRAPPLE_THREADS          positive integer -> scheduling.num_threads. It
//                            does NOT touch checker_parallelism: the
//                            session runtime is sized checker_parallelism x
//                            num_threads + 1, so this scales the
//                            per-checker factor only (DESIGN.md §14)
//   GRAPPLE_IO_PIPELINE      on|off -> engine.io_pipeline; results are
//                            byte-identical either way
//   GRAPPLE_WITNESS          off|bugs|full -> observability.witness; an
//                            unknown value warns and keeps the field
//   GRAPPLE_EVENTLOG_EVENTS  integer -> observability.event_log_capacity
//                            (flight-recorder ring size per thread)
//   GRAPPLE_STATUSZ          integer -> observability.statusz_port (0 =
//                            ephemeral port, -1 = off)
//   GRAPPLE_PROFILE          on|off -> observability.profile
//   GRAPPLE_PROFILE_HZ       integer -> observability.profile_hz
//   GRAPPLE_IO_RETRIES       integer -> robustness.max_io_retries
//   GRAPPLE_IO_BACKOFF_US    integer -> robustness.backoff_base_us
//   GRAPPLE_CHECKPOINT       on|off -> robustness.checkpoint_interval: off
//                            sets 0; on keeps a configured interval or
//                            selects kDefaultCheckpointInterval
//   GRAPPLE_CHECKPOINT_INTERVAL
//                            positive integer -> checkpoint_interval; wins
//                            over GRAPPLE_CHECKPOINT
//   GRAPPLE_CHECKPOINT_SPACING
//                            seconds (fractions allowed) ->
//                            robustness.checkpoint_min_spacing_s
//
// Environment knobs no option carries are read where they apply:
// GRAPPLE_METRICS (analyze_file's run-report path), GRAPPLE_LOG_LEVEL
// (support/logging.h), GRAPPLE_FAULTS (support/fault_injection.h),
// GRAPPLE_REPORT_DIR and GRAPPLE_SCALE (benches), and the grappled service
// knobs (ServiceOptions::FromEnv).
void ApplyEnvOverrides(GrappleOptions* options);

struct CheckerRunResult {
  std::string checker;
  size_t tracked_objects = 0;
  std::vector<BugReport> reports;
  // The checker's engine run ("typestate:<checker>"): graph sizes, wall
  // time, and the metrics snapshot taken after report extraction, so it
  // counts the witness decodes too.
  obs::PhaseReport phase;
  // Robustness degradation (GrappleOptions::Robustness
  // isolate_checker_failures): this checker's engine run failed with the
  // recorded reason; `reports` is empty and `phase` carries only its name;
  // the other checkers' results are unaffected.
  bool degraded = false;
  std::string degraded_reason;
};

struct GrappleResult {
  size_t alias_pairs = 0;  // flowsTo facts held for phase-2 queries
  std::vector<CheckerRunResult> checkers;
  // The one record of the run: frontend and total seconds, and one
  // obs::PhaseReport per engine run ("alias" first, then each checker's
  // `phase` in spec order). analyze_file writes it to the path in
  // GRAPPLE_METRICS.
  obs::RunReport report;

  size_t TotalReports() const;
};

class Grapple {
 public:
  // Takes ownership of the program; loops are unrolled in place, then the
  // call graph and ICFET are built (the "frontend"). Checks the options
  // (see GrappleOptions::Validate).
  explicit Grapple(Program program);
  Grapple(Program program, GrappleOptions options);
  ~Grapple();

  // Runs the pipeline for the given property specs and aggregates the
  // results. Phase 1 (alias analysis) runs on the first call and is cached
  // for the session; phases 2-3 run per spec — sequentially, or as
  // concurrent tasks on the session's TaskRuntime when
  // scheduling.checker_parallelism > 1, each concurrent engine then running
  // under an equal fixed slice of the memory budget.
  // Reports, witnesses, and phase ordering are identical either way.
  // result.report.phases is the alias phase's record followed by each
  // checker's CheckerRunResult::phase, in spec order.
  // May be called repeatedly. A checker whose engine run fails with an I/O
  // error yields a degraded result slot (see CheckerRunResult) unless
  // Robustness::isolate_checker_failures is off, in which case the IoError
  // propagates.
  GrappleResult Check(const std::vector<FsmSpec>& specs);

  // Runs phases 2-3 for a single spec against the cached alias analysis
  // (computing it first if this is the session's first use). This is the
  // same code path the concurrent scheduler runs per worker, and its
  // `phase` is the record Check() would put in report.phases; it is safe to
  // call from multiple threads.
  CheckerRunResult CheckOne(const FsmSpec& spec);

  const Program& program() const { return *program_; }
  // Root of the engines' work dirs (see GrappleOptions::work_dir), profiles
  // and crash dumps — the configured work_dir or the session's private temp
  // dir. Stable for the session's lifetime.
  const std::string& work_dir() const { return work_dir_; }
  const Icfet& icfet() const { return icfet_; }
  const CallGraph& call_graph() const { return *call_graph_; }

  // Snapshot of the session scheduler's counters (tasks/busy time per lane,
  // steals, affinity hits, inline helps). The source for the bench-gated
  // io_overlap and steal-efficiency gauges and the /statusz "scheduler"
  // source.
  TaskRuntimeStats RuntimeStats() const { return runtime_->Stats(); }

 private:
  // Phase-1 results the session keeps, built once by EnsureAliasPhase().
  struct AliasPhase;

  const AliasPhase& EnsureAliasPhase();
  // Phases 2-3 for one spec. `memory_budget_bytes` is the engine's budget
  // (its slice of the total when checkers run concurrently).
  CheckerRunResult CheckOne(const FsmSpec& spec, uint64_t memory_budget_bytes);

  std::string PhaseDir(const std::string& name);
  // Work subdirectory for one checker run: "typestate-<name>" on the
  // checker's first run in this session, "typestate-<name>-r<k>" on
  // repeats, so concurrent runs never share a dir and a resumed session
  // finds its first run's checkpoint. Thread-safe.
  std::string CheckerDir(const std::string& checker_name);

  GrappleOptions options_;
  std::unique_ptr<Program> program_;
  std::unique_ptr<TempDir> temp_dir_;
  std::string work_dir_;
  std::unique_ptr<CallGraph> call_graph_;
  Icfet icfet_;
  double frontend_seconds_ = 0;

  // The session's unified scheduler (DESIGN.md §14): checker tasks, engine
  // join shards, and partition-store I/O strands all execute here. Sized
  // per Scheduling (see that struct's worker formula). Every engine is a
  // local of the call that runs it, so each is torn down (draining its
  // queued strand work) while the runtime is alive.
  std::unique_ptr<TaskRuntime> runtime_;

  std::once_flag alias_once_;
  std::unique_ptr<AliasPhase> alias_phase_;
  std::mutex checker_dirs_mu_;
  std::map<std::string, size_t> checker_dir_runs_;

  // Live per-checker state for the /statusz "session" source. Guarded by
  // live_mu_; written by checker workers, read by the scrape thread.
  mutable std::mutex live_mu_;
  std::map<std::string, std::string> live_checkers_;
  // True when this session started the process-wide statusz listener (and
  // so stops it on destruction).
  bool owns_statusz_ = false;
  // Same contract for the process-wide sampling profiler.
  bool owns_profiler_ = false;
  // Declared last so they unregister (blocking out in-flight scrapes)
  // before any state their callbacks read is torn down.
  obs::Introspection::Handle introspect_session_;
  obs::Introspection::Handle introspect_scheduler_;
};

}  // namespace grapple

#endif  // GRAPPLE_SRC_CORE_GRAPPLE_H_
