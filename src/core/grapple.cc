#include "src/core/grapple.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <unordered_set>
#include <utility>

#include "src/cfg/loop_unroll.h"
#include "src/grammar/pointsto_grammar.h"
#include "src/grammar/typestate_grammar.h"
#include "src/obs/event_log.h"
#include "src/obs/json.h"
#include "src/obs/profiler.h"
#include "src/support/env.h"
#include "src/support/event_hook.h"
#include "src/support/logging.h"
#include "src/support/task_runtime.h"
#include "src/support/timer.h"

namespace grapple {

namespace {

// The field universe: every field name stored or loaded anywhere.
void CollectFields(const std::vector<Stmt>& block, std::unordered_set<std::string>* out) {
  for (const auto& stmt : block) {
    if (stmt.kind == StmtKind::kLoad || stmt.kind == StmtKind::kStore) {
      out->insert(stmt.field);
    }
    CollectFields(stmt.then_block, out);
    CollectFields(stmt.else_block, out);
  }
}

std::vector<std::string> FieldUniverse(const Program& program) {
  std::unordered_set<std::string> fields;
  for (const auto& method : program.methods()) {
    CollectFields(method.body, &fields);
  }
  std::vector<std::string> sorted(fields.begin(), fields.end());
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

IntervalOracle::Options OracleOptionsFrom(const GrappleOptions& options) {
  IntervalOracle::Options oracle_options;
  oracle_options.enable_cache = options.engine.enable_cache;
  oracle_options.max_encoding_items = options.engine.max_encoding_items;
  oracle_options.solver_limits = options.engine.solver_limits;
  oracle_options.simulated_solve_latency_us = options.engine.simulated_solve_latency_us;
  oracle_options.simulated_solve_blocks = options.engine.simulated_solve_blocks;
  return oracle_options;
}

EngineOptions EngineOptionsFrom(const GrappleOptions& options, TaskRuntime* runtime) {
  EngineOptions engine_options;
  engine_options.memory_budget_bytes = options.engine.memory_budget_bytes;
  engine_options.num_threads = options.scheduling.num_threads;
  engine_options.max_variants_per_triple = options.engine.max_variants_per_triple;
  engine_options.io_pipeline = options.engine.io_pipeline;
  engine_options.checkpoint_interval = options.robustness.checkpoint_interval;
  engine_options.checkpoint_min_spacing_seconds = options.robustness.checkpoint_min_spacing_s;
  engine_options.runtime = runtime;
  return engine_options;
}

// The record of one finished engine run; edge counts come from its
// snapshot.
obs::PhaseReport PhaseReportOf(std::string name, uint64_t num_vertices, const GraphEngine& engine,
                               double seconds) {
  obs::PhaseReport phase;
  phase.name = std::move(name);
  phase.num_vertices = num_vertices;
  phase.seconds = seconds;
  phase.metrics = engine.Metrics();
  phase.edges_before = phase.metrics.CounterOr("engine_base_edges_total");
  phase.edges_after = phase.metrics.CounterOr("engine_final_edges_total");
  return phase;
}

// The work dir of one engine run. Its spilled partitions and provenance log
// are scratch for that run alone, so the dir is removed when this goes out
// of scope, on every exit path. Declare it before the engine that writes
// it: removal then follows the engine's teardown, which drains the store's
// write-behind strands. A checkpointed run keeps its dir for a rerun to
// resume from.
struct RunDir {
  std::string path;
  bool keep;
  ~RunDir() {
    if (keep) {
      return;
    }
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
    if (ec) {
      GRAPPLE_LOG(WARNING) << "cannot remove work dir " << path << ": " << ec.message();
    }
  }
};

}  // namespace

std::vector<std::string> GrappleOptions::Validate() const {
  std::vector<std::string> errors;
  if (engine.memory_budget_bytes == 0) {
    errors.push_back("engine.memory_budget_bytes must be positive (it is the analysis-wide cap "
                     "on resident edge data, not a disable switch)");
  }
  if (engine.max_variants_per_triple == 0) {
    errors.push_back("engine.max_variants_per_triple must be >= 1; the variant cap is what "
                     "guarantees termination of the closure");
  }
  if (engine.max_encoding_items == 0) {
    errors.push_back("engine.max_encoding_items must be >= 1 so merged path encodings can hold "
                     "at least one interval");
  }
  if (precision.loop_unroll == 0) {
    errors.push_back("precision.loop_unroll must be >= 1 (§3.1: loops are unrolled a bounded "
                     "number of times; 0 iterations would drop loop bodies entirely)");
  }
  if (robustness.max_io_retries > 100) {
    errors.push_back("robustness.max_io_retries must be <= 100; retries bound transient-fault "
                     "absorption, they are not a hang-forever switch");
  }
  if (robustness.backoff_base_us > 1'000'000) {
    errors.push_back("robustness.backoff_base_us must be <= 1000000 (1s); the backoff doubles "
                     "per retry, so larger bases stall the analysis for minutes");
  }
  if (robustness.checkpoint_min_spacing_s < 0 ||
      !std::isfinite(robustness.checkpoint_min_spacing_s)) {
    errors.push_back("robustness.checkpoint_min_spacing_s must be a finite value >= 0 "
                     "(seconds between interval-triggered checkpoint manifests)");
  }
  if (robustness.checkpoint_interval > 0 && work_dir.empty()) {
    errors.push_back("robustness.checkpoint_interval needs a persistent work_dir: with the "
                     "default private temp dir, checkpoints are deleted with the session and "
                     "a rerun could never resume from them");
  }
  if (observability.event_log_capacity < 64 ||
      observability.event_log_capacity > (size_t{1} << 20)) {
    errors.push_back("observability.event_log_capacity must be in [64, 1048576] events per "
                     "thread; below that a crash dump is useless, above it the rings stop "
                     "being bounded-overhead");
  }
  if (observability.statusz_port < -1 || observability.statusz_port > 65535) {
    errors.push_back("observability.statusz_port must be -1 (off), 0 (ephemeral), or a valid "
                     "TCP port <= 65535");
  }
  if (observability.profile_hz < 1 || observability.profile_hz > 1000) {
    errors.push_back("observability.profile_hz must be in [1, 1000]; above 1 kHz the SIGPROF "
                     "storm perturbs the workload more than it measures");
  }
  if (scheduling.checker_parallelism == 0 && scheduling.num_threads == 0) {
    errors.push_back("scheduling: checker_parallelism and num_threads cannot both be 0; the "
                     "worker formula multiplies them, and hardware-concurrency squared is an "
                     "oversubscription no machine wants — pin at least one of them");
  } else if (ResolveThreadCount(scheduling.num_threads) >
             1024 / ResolveThreadCount(scheduling.checker_parallelism)) {
    // Resolved counts (0 = hardware concurrency), divided rather than
    // multiplied: neither a 0 nor a product that wraps slips past the rule.
    errors.push_back("scheduling: checker_parallelism * num_threads must be <= 1024 worker "
                     "threads; past that the scheduler is managing thread churn, not work");
  }
  return errors;
}

namespace {

// `value` as a T. One that T cannot hold (a negative count, say) becomes
// T's maximum, which is out of every range Validate() checks.
template <typename T>
T FitOrMax(int64_t value) {
  return std::in_range<T>(value) ? static_cast<T>(value) : std::numeric_limits<T>::max();
}

// An unset or malformed variable leaves *field as it is.
template <typename T>
void OverrideInteger(const char* name, T* field) {
  *field = FitOrMax<T>(EnvInt64(name, static_cast<int64_t>(*field)));
}

}  // namespace

void ApplyEnvOverrides(GrappleOptions* options) {
  if (int64_t threads = EnvInt64("GRAPPLE_THREADS", 0); threads > 0) {
    options->scheduling.num_threads = FitOrMax<size_t>(threads);
  }
  options->engine.io_pipeline = EnvBool("GRAPPLE_IO_PIPELINE", options->engine.io_pipeline);

  GrappleOptions::Observability& observability = options->observability;
  if (const char* witness = EnvRaw("GRAPPLE_WITNESS")) {
    if (!obs::ParseWitnessMode(witness, &observability.witness)) {
      GRAPPLE_LOG(WARNING) << "unrecognized GRAPPLE_WITNESS value '" << witness
                           << "' (want off|bugs|full); using "
                           << obs::WitnessModeName(observability.witness);
    }
  }
  OverrideInteger("GRAPPLE_EVENTLOG_EVENTS", &observability.event_log_capacity);
  OverrideInteger("GRAPPLE_STATUSZ", &observability.statusz_port);
  observability.profile = EnvBool("GRAPPLE_PROFILE", observability.profile);
  OverrideInteger("GRAPPLE_PROFILE_HZ", &observability.profile_hz);

  GrappleOptions::Robustness& robustness = options->robustness;
  OverrideInteger("GRAPPLE_IO_RETRIES", &robustness.max_io_retries);
  OverrideInteger("GRAPPLE_IO_BACKOFF_US", &robustness.backoff_base_us);
  if (int64_t interval = EnvInt64("GRAPPLE_CHECKPOINT_INTERVAL", 0); interval > 0) {
    robustness.checkpoint_interval = FitOrMax<uint32_t>(interval);
  } else if (!EnvBool("GRAPPLE_CHECKPOINT", robustness.checkpoint_interval > 0)) {
    robustness.checkpoint_interval = 0;
  } else if (robustness.checkpoint_interval == 0) {
    robustness.checkpoint_interval = kDefaultCheckpointInterval;
  }
  if (const char* spacing = EnvRaw("GRAPPLE_CHECKPOINT_SPACING")) {
    char* end = nullptr;
    double seconds = std::strtod(spacing, &end);
    if (end != spacing && *end == '\0') {
      robustness.checkpoint_min_spacing_s = seconds;
    }
  }
}

size_t GrappleResult::TotalReports() const {
  size_t total = 0;
  for (const auto& checker : checkers) {
    total += checker.reports.size();
  }
  return total;
}

// Everything phase 1 produces that later phases read. Owned by the session;
// after EnsureAliasPhase returns, all of it is immutable and safe for
// concurrent reads by checker workers. The alias engine and its oracle are
// not part of it: they are freed once the index is built.
struct Grapple::AliasPhase {
  Grammar grammar;
  PointsToLabels labels;
  std::unique_ptr<AliasGraph> graph;
  std::unique_ptr<AliasIndex> index;
  obs::PhaseReport report;
  size_t pairs = 0;
};

Grapple::Grapple(Program program) : Grapple(std::move(program), GrappleOptions()) {}

Grapple::Grapple(Program program, GrappleOptions options)
    : options_(std::move(options)), program_(std::make_unique<Program>(std::move(program))) {
  std::vector<std::string> errors = options_.Validate();
  if (!errors.empty()) {
    std::string joined;
    for (const auto& error : errors) {
      joined += (joined.empty() ? "" : "; ") + error;
    }
    GRAPPLE_CHECK(false) << "invalid GrappleOptions: " << joined;
  }
  // One scheduler for the whole session (see Scheduling's worker formula):
  // checker tasks, join shards, and I/O strands share these workers instead
  // of carving the machine into per-purpose pools.
  runtime_ = std::make_unique<TaskRuntime>(
      ResolveThreadCount(options_.scheduling.checker_parallelism) *
          ResolveThreadCount(options_.scheduling.num_threads) +
      1);
  IoRetryPolicy io_policy = GetIoRetryPolicy();
  io_policy.max_retries = options_.robustness.max_io_retries;
  io_policy.backoff_base_us = options_.robustness.backoff_base_us;
  SetIoRetryPolicy(io_policy);
  WallTimer timer;
  UnrollLoops(program_.get(), options_.precision.loop_unroll);
  call_graph_ = std::make_unique<CallGraph>(*program_);
  icfet_ = BuildIcfet(*program_, *call_graph_, options_.precision.icfet);
  frontend_seconds_ = timer.ElapsedSeconds();
  if (options_.work_dir.empty()) {
    temp_dir_ = std::make_unique<TempDir>("grapple-work");
    work_dir_ = temp_dir_->path();
  } else {
    work_dir_ = options_.work_dir;
  }

  // Flight recorder: always on (bounded overhead), dumped to the session's
  // work dir on crash paths. The facade claims the dump path outright;
  // engines only fill it in when nobody else has (only_if_unset).
  obs::EventLogInstall();
  obs::EventLogSetCapacity(options_.observability.event_log_capacity);
  obs::EventLogSetCrashDumpPath(work_dir_ + "/flightrec.bin");

  // Live introspection endpoint: off unless the option asks for a port. The
  // listener is process-wide; the first session to start it owns its
  // shutdown.
  if (options_.observability.statusz_port >= 0 && !obs::StatuszRunning()) {
    std::string statusz_error;
    if (obs::StartStatusz(options_.observability.statusz_port, &statusz_error)) {
      owns_statusz_ = true;
      GRAPPLE_LOG(INFO) << "statusz listening on 127.0.0.1:" << obs::StatuszPort();
    } else {
      GRAPPLE_LOG(WARNING) << "statusz disabled: " << statusz_error;
    }
  }

  // Sampling profiler: off unless the option asks for it. Like statusz, the
  // profiler is process-wide and the first session to start it owns its
  // shutdown; every profiled session points the dump at its own work dir
  // (first claim wins) so a crash spill lands next to flightrec.bin.
  if (options_.observability.profile) {
    obs::ProfilerSetDumpPath(work_dir_ + "/profile.bin", /*only_if_unset=*/true);
    if (!obs::ProfilerRunning()) {
      uint32_t hz = options_.observability.profile_hz;
      if (obs::ProfilerStart(hz)) {
        owns_profiler_ = true;
        GRAPPLE_LOG(INFO) << "sampling profiler on at " << hz << " Hz";
      }
    }
  }

  introspect_session_ = obs::Introspection::RegisterStatusSource("session", [this] {
    obs::JsonWriter w;
    w.BeginObject();
    w.Key("work_dir").String(work_dir_);
    w.Key("frontend_seconds").Double(frontend_seconds_);
    w.Key("witness_mode").String(obs::WitnessModeName(options_.observability.witness));
    w.Key("checkers").BeginObject();
    {
      std::lock_guard<std::mutex> lock(live_mu_);
      for (const auto& [name, state] : live_checkers_) {
        w.Key(name).String(state);
      }
    }
    w.EndObject();
    w.EndObject();
    return w.Take();
  });

  introspect_scheduler_ = obs::Introspection::RegisterStatusSource("scheduler", [this] {
    TaskRuntimeStats stats = runtime_->Stats();
    static constexpr const char* kLaneNames[kNumTaskLanes] = {"foreground", "prefetch",
                                                             "write_behind"};
    obs::JsonWriter w;
    w.BeginObject();
    w.Key("workers").UInt(runtime_->workers());
    w.Key("lanes").BeginObject();
    for (size_t lane = 0; lane < kNumTaskLanes; ++lane) {
      w.Key(kLaneNames[lane]).BeginObject();
      w.Key("tasks").UInt(stats.tasks[lane]);
      w.Key("busy_ns").UInt(stats.busy_ns[lane]);
      w.EndObject();
    }
    w.EndObject();
    w.Key("steals").UInt(stats.steals);
    w.Key("affine_tasks").UInt(stats.affine_tasks);
    w.Key("affine_hits").UInt(stats.affine_hits);
    w.Key("inline_tasks").UInt(stats.inline_tasks);
    w.Key("strand_tasks").UInt(stats.strand_tasks);
    w.Key("queue_peak").UInt(stats.queue_peak);
    w.EndObject();
    return w.Take();
  });
}

Grapple::~Grapple() {
  introspect_scheduler_.Release();
  introspect_session_.Release();
  if (owns_statusz_) {
    obs::StopStatusz();
  }
  if (owns_profiler_) {
    // Final harvest before teardown so samples taken since the last Check()
    // still reach disk.
    if (!obs::ProfilerDumpPath().empty()) {
      obs::ProfilerWriteFile(obs::ProfilerDumpPath());
    }
    obs::ProfilerStop();
  }
}

std::string Grapple::PhaseDir(const std::string& name) {
  std::string dir = work_dir_ + "/" + name;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  GRAPPLE_CHECK(!ec) << "cannot create phase dir " << dir;
  return dir;
}

std::string Grapple::CheckerDir(const std::string& checker_name) {
  size_t run;
  {
    std::lock_guard<std::mutex> lock(checker_dirs_mu_);
    run = checker_dir_runs_[checker_name]++;
  }
  std::string name = "typestate-" + checker_name;
  if (run > 0) {
    name += "-r" + std::to_string(run);
  }
  return PhaseDir(name);
}

const Grapple::AliasPhase& Grapple::EnsureAliasPhase() {
  std::call_once(alias_once_, [&] {
    auto alias = std::make_unique<AliasPhase>();
    WallTimer alias_timer;
    alias->labels = BuildPointsToGrammar(&alias->grammar, FieldUniverse(*program_));
    // The engine, its oracle and its dir live only in this scope: once the
    // index has harvested the receivers' flowsTo facts, nothing reads them.
    RunDir dir{PhaseDir("alias"), options_.robustness.checkpoint_interval > 0};
    IntervalOracle oracle(&icfet_, OracleOptionsFrom(options_));
    EngineOptions engine_options = EngineOptionsFrom(options_, runtime_.get());
    engine_options.work_dir = dir.path;
    // No alias-phase provenance in any witness mode: witnesses walk
    // typestate derivations only.
    GraphEngine engine(&alias->grammar, &oracle, engine_options);
    alias->graph =
        std::make_unique<AliasGraph>(*program_, *call_graph_, icfet_, alias->labels, &engine);
    engine.Finalize(alias->graph->num_vertices());
    engine.Run();
    alias->report = PhaseReportOf("alias", alias->graph->num_vertices(), engine,
                                  alias_timer.ElapsedSeconds());

    // Harvest aliasing facts for every event receiver once.
    std::unordered_set<VertexId> receivers;
    for (const auto& clone : alias->graph->clones()) {
      for (const auto& occ : clone.events) {
        receivers.insert(occ.receiver_vertex);
      }
    }
    alias->index = std::make_unique<AliasIndex>(&engine, alias->labels.flows_to, receivers);
    alias->pairs = alias->index->NumPairs();
    alias_phase_ = std::move(alias);
  });
  return *alias_phase_;
}

CheckerRunResult Grapple::CheckOne(const FsmSpec& spec) {
  EnsureAliasPhase();
  return CheckOne(spec, options_.engine.memory_budget_bytes);
}

CheckerRunResult Grapple::CheckOne(const FsmSpec& spec, uint64_t memory_budget_bytes) {
  const AliasPhase& alias = *alias_phase_;
  WallTimer checker_timer;
  CheckerRunResult checker_result;
  checker_result.checker = spec.fsm.name();
  uint32_t name_id = obs::EventLogInternString(spec.fsm.name());
  obs::ProfChecker prof_checker(name_id);
  evt::Emit(evt::kCheckerStart, name_id);
  {
    std::lock_guard<std::mutex> lock(live_mu_);
    live_checkers_[spec.fsm.name()] = "running";
  }

  std::unordered_set<std::string> types(spec.tracked_types.begin(), spec.tracked_types.end());
  std::vector<uint32_t> tracked;
  for (uint32_t i = 0; i < alias.graph->objects().size(); ++i) {
    if (types.find(alias.graph->objects()[i].type) != types.end()) {
      tracked.push_back(i);
    }
  }
  checker_result.tracked_objects = tracked.size();

  Fsm completed = CompleteFsm(spec.fsm);
  Grammar ts_grammar;
  TypestateLabels ts_labels = BuildTypestateGrammar(&ts_grammar, completed);
  // Witnesses are decoded below, so nothing reads the dir once this returns.
  RunDir dir{CheckerDir(spec.fsm.name()), options_.robustness.checkpoint_interval > 0};
  IntervalOracle ts_oracle(&icfet_, OracleOptionsFrom(options_));
  EngineOptions ts_engine_options = EngineOptionsFrom(options_, runtime_.get());
  ts_engine_options.work_dir = dir.path;
  ts_engine_options.record_provenance =
      options_.observability.witness != obs::WitnessMode::kOff;
  ts_engine_options.memory_budget_bytes = memory_budget_bytes;
  GraphEngine ts_engine(&ts_grammar, &ts_oracle, ts_engine_options);
  TypestateGraph ts_graph(*alias.graph, *alias.index, completed, ts_labels, tracked, &ts_engine,
                          options_.precision.qualify_events_with_alias_paths);
  ts_engine.Finalize(ts_graph.num_vertices());
  ts_engine.Run();

  checker_result.reports = ExtractReports(spec.fsm.name(), completed, ts_labels, ts_graph,
                                          *alias.graph, &ts_engine, &ts_oracle,
                                          options_.observability.witness);
  // Snapshot after report extraction so the witness decoding it did
  // (witnesses_decoded_total) is counted.
  checker_result.phase = PhaseReportOf("typestate:" + spec.fsm.name(), ts_graph.num_vertices(),
                                       ts_engine, checker_timer.ElapsedSeconds());
  evt::Emit(evt::kCheckerDone, name_id, checker_result.reports.size());
  {
    std::lock_guard<std::mutex> lock(live_mu_);
    live_checkers_[spec.fsm.name()] =
        "done (" + std::to_string(checker_result.reports.size()) + " reports)";
  }
  return checker_result;
}

GrappleResult Grapple::Check(const std::vector<FsmSpec>& specs) {
  WallTimer total_timer;
  const AliasPhase& alias = EnsureAliasPhase();
  GrappleResult result;
  result.alias_pairs = alias.pairs;
  result.report.phases.push_back(alias.report);

  // --- Phases 2 + 3 per checker ---
  // Workers write into per-spec slots; aggregation below walks the slots in
  // spec order, so the result (checker order, report phases) is identical
  // to the sequential run regardless of completion order.
  std::vector<CheckerRunResult> runs(specs.size());
  // Failure isolation: one checker's engine dying on an I/O error (disk
  // full, corrupt partition, failed checkpoint) becomes a degraded result
  // slot, not the end of the whole multi-checker run. Checker tasks must
  // never leak exceptions (a throw escaping a runtime task would
  // terminate), so the parallel path always isolates and the no-isolation
  // policy is applied after the barrier.
  auto run_isolated = [&](size_t i, uint64_t budget_bytes) {
    try {
      runs[i] = CheckOne(specs[i], budget_bytes);
    } catch (const std::exception& e) {
      runs[i] = CheckerRunResult();
      runs[i].checker = specs[i].fsm.name();
      runs[i].degraded = true;
      runs[i].degraded_reason = e.what();
      runs[i].phase.name = "typestate:" + specs[i].fsm.name();
      evt::Emit(evt::kCheckerDegraded, obs::EventLogInternString(runs[i].checker));
      {
        std::lock_guard<std::mutex> lock(live_mu_);
        live_checkers_[runs[i].checker] = "degraded: " + runs[i].degraded_reason;
      }
      GRAPPLE_LOG(ERROR) << "checker " << runs[i].checker
                         << " failed; continuing without it: " << e.what();
    }
  };
  size_t parallelism =
      std::min(ResolveThreadCount(options_.scheduling.checker_parallelism), specs.size());
  const uint64_t total_budget = options_.engine.memory_budget_bytes;
  if (parallelism <= 1) {
    for (size_t i = 0; i < specs.size(); ++i) {
      if (options_.robustness.isolate_checker_failures) {
        run_isolated(i, total_budget);
      } else {
        runs[i] = CheckOne(specs[i], total_budget);
      }
    }
  } else {
    // Each concurrent engine gets a fixed, equal slice of the analysis-wide
    // budget, so the live budgets never sum to more than the total.
    uint64_t slice = std::max<uint64_t>(1, total_budget / parallelism);
    // Checker trees run as top-level foreground tasks on the session
    // runtime: exactly `parallelism` slot tasks, each pulling the next spec
    // from a shared cursor, so at most `parallelism` checkers (and budget
    // slices) are live at once no matter how many workers exist. The slots'
    // engines submit their join shards and I/O strands to the same runtime,
    // so a solve-bound checker's idle workers pick up a neighbor's I/O.
    std::atomic<size_t> next_spec{0};
    TaskGroup slots(runtime_.get());
    for (size_t slot = 0; slot < parallelism; ++slot) {
      slots.Submit(TaskLane::kForeground, /*affinity=*/0,
                   [&run_isolated, &next_spec, &specs, slice] {
                     size_t i;
                     while ((i = next_spec.fetch_add(1)) < specs.size()) {
                       run_isolated(i, slice);
                     }
                   });
    }
    slots.Wait();
    if (!options_.robustness.isolate_checker_failures) {
      for (const auto& run : runs) {
        if (run.degraded) {
          throw IoError("checker " + run.checker + " failed: " + run.degraded_reason);
        }
      }
    }
  }
  for (CheckerRunResult& run : runs) {
    result.report.phases.push_back(run.phase);
    result.checkers.push_back(std::move(run));
  }

  result.report.frontend_seconds = frontend_seconds_;
  result.report.total_seconds = total_timer.ElapsedSeconds() + frontend_seconds_;
  result.report.total_reports = result.TotalReports();

  // Persist the cost ledger after every Check() so the profile is readable
  // even if the process never tears the session down cleanly.
  if (obs::ProfilerRunning() && !obs::ProfilerDumpPath().empty()) {
    if (!obs::ProfilerWriteFile(obs::ProfilerDumpPath())) {
      GRAPPLE_LOG(WARNING) << "failed to write profile to " << obs::ProfilerDumpPath();
    }
  }
  return result;
}

}  // namespace grapple
