// Reproduces Table 3: graph sizes and running times per subject.
//
// Columns mirror the paper: #V, #EB (edges before computation), #EA (edges
// after), PT (preprocessing), CT (computation), TT (total). Absolute values
// differ (synthetic subjects, scaled sizes, different hardware); the target
// shape is the ordering — hadoop fastest, hbase slowest by an order of
// magnitude or more — and #EA >> #EB growth from transitive closure.
//
// Paper: ZooKeeper 2.4M/12.9M/24.1M 47s+1h06m,  Hadoop 8.3M/17.4M/30.2M 53m,
//        HDFS 7.6M/18.0M/29.4M 1h54m,  HBase 26.1M/70.9M/125.9M 33h51m.
#include <algorithm>
#include <cinttypes>

#include "bench/bench_util.h"
#include "src/obs/event_log.h"
#include "src/obs/profiler.h"
#include "src/support/byte_io.h"

namespace grapple {
namespace {

// Sums one counter across every phase of a run (alias + all typestate).
uint64_t SumCounter(const GrappleResult& r, const std::string& name) {
  uint64_t total = 0;
  for (const auto& phase : r.report.phases) {
    total += phase.metrics.CounterOr(name);
  }
  return total;
}

// Non-negative env override; an unset/empty/negative value yields the
// default (explicit 0 is honored — e.g. GRAPPLE_SCHED_SOLVE_US=0).
size_t EnvSize(const char* name, size_t default_value) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') {
    return default_value;
  }
  long long value = std::atoll(env);
  return value >= 0 ? static_cast<size_t>(value) : default_value;
}

double MaxGaugeAllPhases(const GrappleResult& r, const std::string& name) {
  double max_value = 0;
  for (const auto& phase : r.report.phases) {
    max_value = std::max(max_value, phase.metrics.GaugeOr(name));
  }
  return max_value;
}

// Subject for the scheduler comparison. The paper presets are all
// exception-dominated (e.g. zookeeper: 59 of 65 real bugs in the except
// checker), so one checker owns ~2/3 of the typestate solves and Amdahl
// caps any 4-way schedule at ~1.5x no matter the scheduler. That skew is a
// workload property, not a scheduler property; this subject keeps the
// zookeeper shape (filler, branching, modules at the given scale) but gives
// the four checkers equal pattern load, so the measurement isolates
// scheduling overlap from per-checker imbalance.
WorkloadConfig SchedulerSubject(double scale) {
  WorkloadConfig cfg = ZooKeeperPreset(scale);
  cfg.name = "sched-balanced";
  cfg.io = cfg.lock = cfg.except = cfg.socket = {16, 1, 6};
  return cfg;
}

// Sequential-vs-parallel scheduler comparison on one subject. Phase 1
// (alias analysis) runs once per session and is identical in both modes, so
// the scheduler's own effect is measured on a warm session: Check({}) first
// caches the alias phase, then the timed Check runs all four checkers
// sequentially vs concurrently. The fresh-pipeline ratio (alias included) is
// recorded alongside for the Amdahl picture. Solver latency is simulated as
// *blocking* (an out-of-process solver endpoint): while one checker waits on
// a solve, the core runs another checker's work, so the speedup measures
// real scheduler overlap rather than requiring idle cores — meaningful even
// on single-core CI runners.
void RunSchedulerSpeedup(obs::BenchReport* bench, const WorkloadConfig& preset) {
  size_t parallelism = EnvSize("GRAPPLE_CHECKER_PARALLELISM", 4);
  GrappleOptions options = BenchOptions();
  options.engine.simulated_solve_latency_us =
      static_cast<uint32_t>(EnvSize("GRAPPLE_SCHED_SOLVE_US", 500));
  options.engine.simulated_solve_blocks = true;
  Workload workload = GenerateWorkload(preset);

  struct ModeRun {
    GrappleResult result;
    double check_seconds = 0;  // warm-session multi-checker Check only
    double total_seconds = 0;  // construction + alias + Check
  };
  auto run_mode = [&](size_t checker_parallelism) {
    GrappleOptions mode_options = options;
    mode_options.scheduling.checker_parallelism = checker_parallelism;
    Program program = workload.program;
    ModeRun run;
    WallTimer total_timer;
    Grapple grapple(std::move(program), mode_options);
    grapple.Check({});  // warm the session: phase 1 only, cached after
    WallTimer check_timer;
    run.result = grapple.Check(AllBuiltinCheckers());
    run.check_seconds = check_timer.ElapsedSeconds();
    run.total_seconds = total_timer.ElapsedSeconds();
    return run;
  };

  ModeRun sequential = run_mode(1);
  ModeRun parallel = run_mode(parallelism);
  bool identical = ReportFingerprint(sequential.result) == ReportFingerprint(parallel.result);
  double speedup =
      parallel.check_seconds > 0 ? sequential.check_seconds / parallel.check_seconds : 0;
  double pipeline_speedup =
      parallel.total_seconds > 0 ? sequential.total_seconds / parallel.total_seconds : 0;

  PrintHeaderLine("Scheduler: sequential vs concurrent checkers");
  std::printf("%-11s %12s %9s %9s %8s %9s %10s\n", "Subject", "parallelism", "seq", "par",
              "speedup", "pipeline", "identical");
  std::printf("%-11s %12zu %9s %9s %7.2fx %8.2fx %10s\n", preset.name.c_str(), parallelism,
              FormatDuration(sequential.check_seconds).c_str(),
              FormatDuration(parallel.check_seconds).c_str(), speedup, pipeline_speedup,
              identical ? "yes" : "NO");
  std::printf("seq/par time the 4-checker Check on a warm session (phase 1 cached; it is\n");
  std::printf("serial and identical either way — 'pipeline' includes it, fresh run).\n");
  std::printf("(solver modeled as blocking round trips of %u us; checkers overlap them)\n",
              options.engine.simulated_solve_latency_us);

  obs::RunReport sched;
  sched.subject = "scheduler_speedup";
  sched.total_seconds = sequential.total_seconds + parallel.total_seconds;
  obs::PhaseReport phase;
  phase.name = "scheduler";
  phase.seconds = parallel.check_seconds;
  phase.metrics.gauges["sched_checker_parallelism"] = static_cast<double>(parallelism);
  phase.metrics.gauges["sched_sequential_seconds"] = sequential.check_seconds;
  phase.metrics.gauges["sched_parallel_seconds"] = parallel.check_seconds;
  phase.metrics.gauges["sched_speedup"] = speedup;
  phase.metrics.gauges["sched_pipeline_sequential_seconds"] = sequential.total_seconds;
  phase.metrics.gauges["sched_pipeline_parallel_seconds"] = parallel.total_seconds;
  phase.metrics.gauges["sched_pipeline_speedup"] = pipeline_speedup;
  phase.metrics.gauges["sched_reports_identical"] = identical ? 1 : 0;
  phase.metrics.gauges["sched_budget_bytes"] =
      static_cast<double>(options.engine.memory_budget_bytes);
  phase.metrics.gauges["sched_peak_engine_resident_bytes"] =
      MaxGaugeAllPhases(parallel.result, "engine_peak_resident_bytes");
  sched.phases.push_back(std::move(phase));
  bench->Add(std::move(sched));
}

// A/B of background partition I/O (write-behind + prefetch) against inline
// partition I/O on one subject; both write the same block-format files. The
// engine memory budget is capped well below the subject's edge data so the
// run genuinely spills: partitions split, deltas append, and the fixpoint
// sweep re-loads partitions pair after pair — exactly the access pattern
// the pipeline targets. Reports must be byte-identical across modes.
void RunIoPipelineComparison(obs::BenchReport* bench, const WorkloadConfig& preset) {
  GrappleOptions options = BenchOptions();
  options.engine.memory_budget_bytes = EnvSize("GRAPPLE_IO_BUDGET_BYTES", size_t{1} << 14);
  Workload workload = GenerateWorkload(preset);

  struct ModeRun {
    GrappleResult result;
    double total_seconds = 0;
    double io_seconds = 0;
    double bytes_written = 0;
    double bytes_read = 0;
  };
  auto run_mode = [&](bool pipelined) {
    GrappleOptions mode_options = options;
    mode_options.engine.io_pipeline = pipelined;
    Program program = workload.program;
    ModeRun run;
    WallTimer timer;
    Grapple grapple(std::move(program), mode_options);
    run.result = grapple.Check(AllBuiltinCheckers());
    run.total_seconds = timer.ElapsedSeconds();
    run.io_seconds = SumCounter(run.result, "phase_io_ns") / 1e9;
    run.bytes_written = static_cast<double>(SumCounter(run.result, "io_bytes_written"));
    run.bytes_read = static_cast<double>(SumCounter(run.result, "io_bytes_read"));
    return run;
  };

  ModeRun off = run_mode(false);
  ModeRun on = run_mode(true);

  bool identical = ReportFingerprint(off.result) == ReportFingerprint(on.result);
  double io_speedup = on.io_seconds > 0 ? off.io_seconds / on.io_seconds : 0;
  double prefetch_hits = static_cast<double>(SumCounter(on.result, "io_prefetch_hits_total"));
  double prefetch_issued = static_cast<double>(SumCounter(on.result, "io_prefetch_issued_total"));
  double prefetch_wasted = static_cast<double>(SumCounter(on.result, "io_prefetch_wasted_total"));
  double write_cache_hits = static_cast<double>(SumCounter(on.result, "io_write_cache_hits_total"));

  PrintHeaderLine("Partition I/O: inline vs pipelined");
  std::printf("%-11s %9s %9s %8s %11s %11s %10s\n", "Subject", "io(off)", "io(on)", "speedup",
              "wrMB(off)", "wrMB(on)", "identical");
  std::printf("%-11s %9s %9s %7.2fx %11.2f %11.2f %10s\n", preset.name.c_str(),
              FormatDuration(off.io_seconds).c_str(), FormatDuration(on.io_seconds).c_str(),
              io_speedup, off.bytes_written / (1024.0 * 1024.0),
              on.bytes_written / (1024.0 * 1024.0), identical ? "yes" : "NO");
  std::printf("io(off/on) is foreground blocking time in the \"io\" phase bucket; the\n");
  std::printf("pipeline hides write+encode latency behind compute and serves Loads from\n");
  std::printf("the write-back/prefetch cache (%.0f write-cache hits; %.0f prefetch hits /\n",
              write_cache_hits, prefetch_hits);
  std::printf("%.0f issued / %.0f wasted). Both modes write the same files (budget %zu KB).\n",
              prefetch_issued, prefetch_wasted,
              static_cast<size_t>(options.engine.memory_budget_bytes >> 10));

  obs::RunReport pipeline;
  pipeline.subject = "io_pipeline";
  pipeline.total_seconds = off.total_seconds + on.total_seconds;
  obs::PhaseReport phase;
  phase.name = "io_pipeline";
  phase.seconds = on.io_seconds;
  phase.metrics.gauges["io_seconds_off"] = off.io_seconds;
  phase.metrics.gauges["io_seconds_on"] = on.io_seconds;
  phase.metrics.gauges["io_speedup"] = io_speedup;
  phase.metrics.gauges["io_bytes_written_off"] = off.bytes_written;
  phase.metrics.gauges["io_bytes_written_on"] = on.bytes_written;
  phase.metrics.gauges["io_bytes_read_off"] = off.bytes_read;
  phase.metrics.gauges["io_bytes_read_on"] = on.bytes_read;
  phase.metrics.gauges["io_prefetch_hits"] = prefetch_hits;
  phase.metrics.gauges["io_prefetch_issued"] = prefetch_issued;
  phase.metrics.gauges["io_prefetch_wasted"] = prefetch_wasted;
  phase.metrics.gauges["io_write_cache_hits"] = write_cache_hits;
  phase.metrics.gauges["io_reports_identical"] = identical ? 1 : 0;
  phase.metrics.gauges["io_budget_bytes"] =
      static_cast<double>(options.engine.memory_budget_bytes);
  phase.metrics.gauges["io_total_seconds_off"] = off.total_seconds;
  phase.metrics.gauges["io_total_seconds_on"] = on.total_seconds;
  pipeline.phases.push_back(std::move(phase));
  bench->Add(std::move(pipeline));
}

// The unified work-stealing task runtime (DESIGN.md §14) on the spilling
// subject and budget of the I/O comparison, so the store's strands carry
// real traffic, with num_threads=2 so join-shard tasks exist. Reports must
// be byte-identical to a 1-shard reference run; the gated gauges are the
// overlap ratio (store I/O executed on background lanes rather than
// blocking the foreground) and the steal efficiency (affine tasks that ran
// on their home worker despite idle workers stealing).
void RunTaskRuntime(obs::BenchReport* bench, const WorkloadConfig& preset) {
  GrappleOptions options = BenchOptions();
  options.engine.memory_budget_bytes = EnvSize("GRAPPLE_IO_BUDGET_BYTES", size_t{1} << 14);
  Workload workload = GenerateWorkload(preset);

  struct ShardRun {
    GrappleResult result;
    TaskRuntimeStats stats;
    double total_seconds = 0;
    double fg_io_seconds = 0;  // foreground blocking time in the io bucket
  };
  auto run_shards = [&](size_t num_threads) {
    GrappleOptions run_options = options;
    run_options.scheduling.num_threads = num_threads;
    Program program = workload.program;
    ShardRun run;
    WallTimer timer;
    Grapple grapple(std::move(program), run_options);
    run.result = grapple.Check(AllBuiltinCheckers());
    run.total_seconds = timer.ElapsedSeconds();
    run.stats = grapple.RuntimeStats();
    run.fg_io_seconds = SumCounter(run.result, "phase_io_ns") / 1e9;
    return run;
  };

  ShardRun reference = run_shards(1);
  ShardRun sharded = run_shards(2);

  bool identical = ReportFingerprint(reference.result) == ReportFingerprint(sharded.result);
  const TaskRuntimeStats& s = sharded.stats;
  double background_io_seconds =
      (s.busy_ns[static_cast<size_t>(TaskLane::kPrefetch)] +
       s.busy_ns[static_cast<size_t>(TaskLane::kWriteBehind)]) /
      1e9;
  double io_overlap = background_io_seconds + sharded.fg_io_seconds > 0
                          ? background_io_seconds /
                                (background_io_seconds + sharded.fg_io_seconds)
                          : 0;
  double steal_efficiency =
      s.affine_tasks > 0 ? static_cast<double>(s.affine_hits) / s.affine_tasks : 1.0;

  PrintHeaderLine("Task runtime: 2 join shards vs a 1-shard reference");
  std::printf("%-11s %9s %9s %9s %8s %8s %10s\n", "Subject", "tt(1sh)", "tt(2sh)", "overlap",
              "steal-ef", "steals", "identical");
  std::printf("%-11s %9s %9s %8.1f%% %7.1f%% %8" PRIu64 " %10s\n", preset.name.c_str(),
              FormatDuration(reference.total_seconds).c_str(),
              FormatDuration(sharded.total_seconds).c_str(), 100.0 * io_overlap,
              100.0 * steal_efficiency, s.steals, identical ? "yes" : "NO");
  std::printf("overlap is store I/O run on the prefetch/write-behind lanes as a share of\n");
  std::printf("all I/O time (background lanes + foreground blocking); steal-ef is the\n");
  std::printf("share of pair-affine tasks that still ran on their home worker in the\n");
  std::printf("2-shard run (%" PRIu64 " strand tasks, queue peak %" PRIu64 ").\n",
              s.strand_tasks, s.queue_peak);

  obs::RunReport report;
  report.subject = "task_runtime";
  report.total_seconds = reference.total_seconds + sharded.total_seconds;
  obs::PhaseReport phase;
  phase.name = "task_runtime";
  phase.seconds = sharded.total_seconds;
  phase.metrics.gauges["tr_total_seconds"] = sharded.total_seconds;
  phase.metrics.gauges["tr_io_overlap"] = io_overlap;
  phase.metrics.gauges["tr_steal_efficiency"] = steal_efficiency;
  phase.metrics.gauges["tr_steals"] = static_cast<double>(s.steals);
  phase.metrics.gauges["tr_affine_tasks"] = static_cast<double>(s.affine_tasks);
  phase.metrics.gauges["tr_strand_tasks"] = static_cast<double>(s.strand_tasks);
  phase.metrics.gauges["tr_inline_tasks"] = static_cast<double>(s.inline_tasks);
  phase.metrics.gauges["tr_queue_peak"] = static_cast<double>(s.queue_peak);
  phase.metrics.gauges["tr_foreground_io_seconds"] = sharded.fg_io_seconds;
  phase.metrics.gauges["tr_background_io_seconds"] = background_io_seconds;
  phase.metrics.gauges["tr_reports_identical"] = identical ? 1 : 0;
  phase.metrics.gauges["tr_budget_bytes"] =
      static_cast<double>(options.engine.memory_budget_bytes);
  report.phases.push_back(std::move(phase));
  bench->Add(std::move(report));
}

// A/B of crash-safe checkpointing (DESIGN.md §11) against a plain run on
// one spilling subject. The checkpointing run quiesces I/O and publishes a
// manifest every kDefaultCheckpointInterval partition pairs plus once at
// the fixpoint; the gate is the fraction of its wall time spent inside the
// "ckpt" phase (quiesce + encode + fsync + rename + GC), which must stay
// under 5% — the wall-clock A/B delta is recorded alongside but jitters too
// much at smoke scale to gate. Reports must be byte-identical across modes.
void RunCheckpointOverhead(obs::BenchReport* bench, const WorkloadConfig& preset) {
  GrappleOptions options = BenchOptions();
  options.engine.memory_budget_bytes = EnvSize("GRAPPLE_IO_BUDGET_BYTES", size_t{1} << 14);
  Workload workload = GenerateWorkload(preset);

  struct ModeRun {
    GrappleResult result;
    double total_seconds = 0;
    double ckpt_seconds = 0;
    double ckpt_written = 0;
    double ckpt_bytes = 0;
  };
  auto run_mode = [&](uint32_t interval) {
    TempDir work_dir("bench-ckpt");
    GrappleOptions mode_options = options;
    mode_options.work_dir = work_dir.path();
    mode_options.robustness.checkpoint_interval = interval;
    Program program = workload.program;
    ModeRun run;
    WallTimer timer;
    Grapple grapple(std::move(program), mode_options);
    run.result = grapple.Check(AllBuiltinCheckers());
    run.total_seconds = timer.ElapsedSeconds();
    run.ckpt_seconds = SumCounter(run.result, "phase_ckpt_ns") / 1e9;
    run.ckpt_written = static_cast<double>(SumCounter(run.result, "ckpt_written_total"));
    run.ckpt_bytes = static_cast<double>(SumCounter(run.result, "ckpt_bytes"));
    return run;
  };

  ModeRun off = run_mode(0);
  ModeRun on = run_mode(kDefaultCheckpointInterval);

  bool identical = ReportFingerprint(off.result) == ReportFingerprint(on.result);
  double phase_fraction = on.total_seconds > 0 ? on.ckpt_seconds / on.total_seconds : 0;
  double wall_overhead =
      off.total_seconds > 0 ? on.total_seconds / off.total_seconds - 1.0 : 0;

  PrintHeaderLine("Checkpointing: off vs every-8-pairs manifests");
  std::printf("%-11s %9s %9s %8s %9s %8s %9s %10s\n", "Subject", "tt(off)", "tt(on)",
              "ckpt", "manifests", "MB", "fraction", "identical");
  std::printf("%-11s %9s %9s %8s %9.0f %8.2f %8.2f%% %10s\n", preset.name.c_str(),
              FormatDuration(off.total_seconds).c_str(),
              FormatDuration(on.total_seconds).c_str(),
              FormatDuration(on.ckpt_seconds).c_str(), on.ckpt_written,
              on.ckpt_bytes / (1024.0 * 1024.0), 100.0 * phase_fraction,
              identical ? "yes" : "NO");
  std::printf("ckpt is time inside the checkpoint phase (quiesce, encode, fsync, rename,\n");
  std::printf("GC); fraction = ckpt / tt(on) is the gated overhead (< 5%%). The wall A/B\n");
  std::printf("delta was %+.1f%% this run (informational; jitters at smoke scale).\n",
              100.0 * wall_overhead);

  obs::RunReport report;
  report.subject = "checkpointing";
  report.total_seconds = off.total_seconds + on.total_seconds;
  obs::PhaseReport phase;
  phase.name = "checkpointing";
  phase.seconds = on.ckpt_seconds;
  phase.metrics.gauges["ckpt_total_seconds_off"] = off.total_seconds;
  phase.metrics.gauges["ckpt_total_seconds_on"] = on.total_seconds;
  phase.metrics.gauges["ckpt_seconds"] = on.ckpt_seconds;
  phase.metrics.gauges["ckpt_phase_fraction"] = phase_fraction;
  phase.metrics.gauges["ckpt_per_manifest_seconds"] =
      on.ckpt_written > 0 ? on.ckpt_seconds / on.ckpt_written : 0;
  phase.metrics.gauges["ckpt_wall_overhead"] = wall_overhead;
  phase.metrics.gauges["ckpt_manifests_written"] = on.ckpt_written;
  phase.metrics.gauges["ckpt_manifest_bytes"] = on.ckpt_bytes;
  phase.metrics.gauges["ckpt_interval"] = static_cast<double>(kDefaultCheckpointInterval);
  phase.metrics.gauges["ckpt_reports_identical"] = identical ? 1 : 0;
  report.phases.push_back(std::move(phase));
  bench->Add(std::move(report));
}

// A/B of the always-on flight-recorder event sink against a run with the
// recorder paused. The acceptance criterion is that the recorder costs at
// most 2% wall time at full scale — gated via the obs_overhead gauge by
// check_bench.py from scale 1.0 up (smoke runs are too short to separate
// the overhead from scheduler jitter, so the smoke-scale gate is only that
// reports stay byte-identical with the recorder on). obs_overhead is
// clamped at zero: a "negative overhead" is jitter, not a speedup.
void RunObsOverhead(obs::BenchReport* bench, const WorkloadConfig& preset) {
  Workload workload = GenerateWorkload(preset);
  GrappleOptions options = BenchOptions();

  struct ModeRun {
    GrappleResult result;
    double total_seconds = 0;
  };
  auto run_mode = [&](bool obs_on) {
    Program program = workload.program;
    ModeRun run;
    obs::EventLogSetEnabled(obs_on);
    WallTimer timer;
    Grapple grapple(std::move(program), options);
    run.result = grapple.Check(AllBuiltinCheckers());
    run.total_seconds = timer.ElapsedSeconds();
    obs::EventLogSetEnabled(true);  // the recorder is on by default
    return run;
  };

  ModeRun off = run_mode(false);
  ModeRun on = run_mode(true);
  double events_live = static_cast<double>(obs::EventLogTail(0).size());

  bool identical = ReportFingerprint(off.result) == ReportFingerprint(on.result);
  double wall_delta = off.total_seconds > 0 ? on.total_seconds / off.total_seconds - 1.0 : 0;
  double overhead = std::max(0.0, wall_delta);

  PrintHeaderLine("Observability: flight recorder on vs paused");
  std::printf("%-11s %9s %9s %9s %8s %10s\n", "Subject", "tt(off)", "tt(on)", "overhead",
              "events", "identical");
  std::printf("%-11s %9s %9s %8.2f%% %8.0f %10s\n", preset.name.c_str(),
              FormatDuration(off.total_seconds).c_str(),
              FormatDuration(on.total_seconds).c_str(), 100.0 * overhead, events_live,
              identical ? "yes" : "NO");
  std::printf("overhead is the wall-time cost of the flight-recorder sink (gated < 2%%\n");
  std::printf("from scale 1.0; raw A/B delta %+.1f%%).\n", 100.0 * wall_delta);

  obs::RunReport report;
  report.subject = "obs_overhead";
  report.total_seconds = off.total_seconds + on.total_seconds;
  obs::PhaseReport phase;
  phase.name = "observability";
  phase.seconds = on.total_seconds;
  phase.metrics.gauges["obs_total_seconds_off"] = off.total_seconds;
  phase.metrics.gauges["obs_total_seconds_on"] = on.total_seconds;
  phase.metrics.gauges["obs_overhead"] = overhead;
  phase.metrics.gauges["obs_wall_delta"] = wall_delta;
  phase.metrics.gauges["obs_reports_identical"] = identical ? 1 : 0;
  phase.metrics.gauges["obs_events_live"] = events_live;
  report.phases.push_back(std::move(phase));
  bench->Add(std::move(report));
}

// A/B of the sampling profiler (DESIGN.md §13) against an unprofiled run.
// The acceptance criteria are that SIGPROF sampling at the default 97 Hz
// costs at most 2% wall time at full scale — gated via the prof_overhead
// gauge by check_bench.py from scale 1.0 up — and that bug reports stay
// byte-identical with profiling on (gated at every scale). prof_overhead is
// clamped at zero like obs_overhead: negative deltas are jitter.
void RunProfOverhead(obs::BenchReport* bench, const WorkloadConfig& preset) {
  Workload workload = GenerateWorkload(preset);
  GrappleOptions options = BenchOptions();

  struct ModeRun {
    GrappleResult result;
    double total_seconds = 0;
  };
  auto run_mode = [&](bool profile_on) {
    GrappleOptions mode_options = options;
    mode_options.observability.profile = profile_on;
    Program program = workload.program;
    ModeRun run;
    WallTimer timer;
    Grapple grapple(std::move(program), mode_options);
    run.result = grapple.Check(AllBuiltinCheckers());
    run.total_seconds = timer.ElapsedSeconds();
    return run;
  };

  ModeRun off = run_mode(false);
  ModeRun on = run_mode(true);
  obs::ProfileData prof = obs::ProfilerSnapshot();
  // The profiled session dumps into its own (temporary, already deleted)
  // work dir; the ledger outlives the session, so export a copy next to
  // the bench reports for the nightly flamegraph artifact.
  const char* report_dir = std::getenv("GRAPPLE_REPORT_DIR");
  if (report_dir != nullptr && prof.total_samples > 0) {
    obs::ProfilerWriteFile(std::string(report_dir) + "/profile.bin");
  }

  bool identical = ReportFingerprint(off.result) == ReportFingerprint(on.result);
  double wall_delta = off.total_seconds > 0 ? on.total_seconds / off.total_seconds - 1.0 : 0;
  double overhead = std::max(0.0, wall_delta);

  PrintHeaderLine("Profiler: sampling on vs off");
  std::printf("%-11s %9s %9s %9s %8s %8s %10s\n", "Subject", "tt(off)", "tt(on)", "overhead",
              "samples", "dropped", "identical");
  std::printf("%-11s %9s %9s %8.2f%% %8" PRIu64 " %8" PRIu64 " %10s\n", preset.name.c_str(),
              FormatDuration(off.total_seconds).c_str(),
              FormatDuration(on.total_seconds).c_str(), 100.0 * overhead,
              prof.total_samples, prof.dropped_samples, identical ? "yes" : "NO");
  std::printf("overhead is the wall-time cost of SIGPROF sampling + ring harvesting at\n");
  std::printf("%u Hz (gated < 2%% from scale 1.0; raw A/B delta %+.1f%%).\n",
              options.observability.profile_hz, 100.0 * wall_delta);

  obs::RunReport report;
  report.subject = "prof_overhead";
  report.total_seconds = off.total_seconds + on.total_seconds;
  obs::PhaseReport phase;
  phase.name = "profiler";
  phase.seconds = on.total_seconds;
  phase.metrics.gauges["prof_total_seconds_off"] = off.total_seconds;
  phase.metrics.gauges["prof_total_seconds_on"] = on.total_seconds;
  phase.metrics.gauges["prof_overhead"] = overhead;
  phase.metrics.gauges["prof_wall_delta"] = wall_delta;
  phase.metrics.gauges["prof_reports_identical"] = identical ? 1 : 0;
  phase.metrics.gauges["prof_samples"] = static_cast<double>(prof.total_samples);
  phase.metrics.gauges["prof_dropped_samples"] = static_cast<double>(prof.dropped_samples);
  report.phases.push_back(std::move(phase));
  bench->Add(std::move(report));
}

int Main() {
  double scale = ScaleFromEnv(1.0);
  obs::BenchReport bench("table3_performance");
  PrintHeaderLine("Table 3: Grapple performance");
  std::printf("%-11s %9s %9s %10s %9s %11s %11s %6s %9s\n", "Subject", "#V(K)", "#EB(K)",
              "#EA(K)", "PT", "CT", "TT", "#part", "prov(MB)");
  for (const auto& preset : AllPresets(scale)) {
    WallTimer timer;
    SubjectRun run = RunSubject(preset);
    double total = timer.ElapsedSeconds();
    const GrappleResult& r = run.result;
    AddSubject(&bench, preset.name, r);
    uint64_t vertices = 0;
    uint64_t edges_before = 0;
    uint64_t edges_after = 0;
    size_t partitions = 0;
    double preprocess = r.report.frontend_seconds;
    double compute = 0;
    for (const auto& phase : r.report.phases) {
      vertices += phase.num_vertices;
      edges_before += phase.edges_before;
      edges_after += phase.edges_after;
      partitions += static_cast<size_t>(phase.metrics.GaugeOr("engine_num_partitions"));
      preprocess += phase.metrics.SecondsOf("engine_preprocess_ns");
      compute += phase.metrics.SecondsOf("engine_compute_ns");
    }
    std::printf("%-11s %9.1f %9.1f %10.1f %9s %11s %11s %6zu %9.2f\n", preset.name.c_str(),
                vertices / 1000.0, edges_before / 1000.0, edges_after / 1000.0,
                FormatDuration(preprocess).c_str(), FormatDuration(compute).c_str(),
                FormatDuration(total).c_str(), partitions,
                SumCounter(r, "provenance_bytes") / (1024.0 * 1024.0));
  }
  std::printf("\npaper shape check: hadoop < zookeeper < hdfs << hbase in total time;\n");
  std::printf("edge count grows substantially during computation (#EA >> #EB).\n");
  std::printf("prov(MB) is the witness-provenance log written out-of-core per subject\n");
  std::printf("(GRAPPLE_WITNESS=%s; set GRAPPLE_WITNESS=off to measure without it).\n",
              obs::WitnessModeName(BenchOptions().observability.witness));
  RunSchedulerSpeedup(&bench, SchedulerSubject(scale));
  RunIoPipelineComparison(&bench, ZooKeeperPreset(scale));
  RunTaskRuntime(&bench, ZooKeeperPreset(scale));
  RunCheckpointOverhead(&bench, ZooKeeperPreset(scale));
  RunObsOverhead(&bench, ZooKeeperPreset(scale));
  RunProfOverhead(&bench, ZooKeeperPreset(scale));
  bench.Write();
  return 0;
}

}  // namespace
}  // namespace grapple

int main() { return grapple::Main(); }
