// Reproduces Table 5: Grapple's interval encoding vs the naive baseline that
// embeds constraints directly in edges ("string-based" in the paper; here an
// explicit serialized-atom payload — same information, same growth).
//
// Both configurations run the identical alias-phase computation on the same
// engine with the same memory budget; only the constraint codec differs.
// Reported per configuration: peak #partitions, #computational iterations
// (partition-pair loads), #constraints solved (K), and wall time. The
// baseline for the largest subject is cut off by a wall-clock cap, mirroring
// the paper's ">200h" entry.
//
// Paper: naive needs ~10x partitions, many times the iterations and
// constraints, 3-12x the time; HBase did not finish in 200 hours.
//
// Also includes the §5.3 "traditional implementation" result: the fully
// in-memory worklist analysis with pointer-linked constraint objects runs
// out of (simulated) memory on every subject.
#include "bench/bench_util.h"
#include "src/baseline/explicit_oracle.h"
#include "src/baseline/traditional.h"
#include "src/cfg/loop_unroll.h"
#include "src/grammar/pointsto_grammar.h"

namespace grapple {
namespace {

struct PhaseRun {
  size_t partitions = 0;
  uint64_t iterations = 0;
  uint64_t constraints = 0;
  double seconds = 0;
  bool timed_out = false;
  obs::MetricsSnapshot metrics;
};

PhaseRun RunAliasPhase(const Program& input, bool explicit_codec, uint64_t budget,
                       double cap_seconds) {
  PhaseRun out;
  WallTimer timer;
  Program program = input;
  UnrollLoops(&program, 2);
  CallGraph call_graph(program);
  Icfet icfet = BuildIcfet(program, call_graph);
  Grammar grammar;
  std::vector<std::string> fields = {"data", "stream"};
  PointsToLabels labels = BuildPointsToGrammar(&grammar, fields);
  TempDir dir("table5");
  GrappleOptions bench_options = BenchOptions();
  EngineOptions options;
  options.work_dir = dir.path();
  options.memory_budget_bytes = budget;
  options.io_pipeline = bench_options.engine.io_pipeline;
  options.num_threads = bench_options.scheduling.num_threads;
  options.max_seconds = cap_seconds;
  std::unique_ptr<ConstraintOracle> oracle;
  if (explicit_codec) {
    oracle = std::make_unique<ExplicitOracle>(&icfet);
  } else {
    oracle = std::make_unique<IntervalOracle>(&icfet);
  }
  GraphEngine engine(&grammar, oracle.get(), options);
  AliasGraph alias_graph(program, call_graph, icfet, labels, &engine);
  engine.Finalize(alias_graph.num_vertices());
  engine.Run();
  out.seconds = timer.ElapsedSeconds();
  out.metrics = engine.Metrics();
  out.partitions = static_cast<size_t>(out.metrics.GaugeOr("engine_peak_partitions"));
  out.iterations = out.metrics.CounterOr("engine_pair_loads_total");
  out.constraints = out.metrics.CounterOr("oracle_constraints_checked_total");
  out.timed_out = out.metrics.GaugeOr("engine_timed_out") > 0;
  return out;
}

int Main() {
  double scale = ScaleFromEnv(0.5);
  const uint64_t kBudget = uint64_t{2} << 20;  // small budget: stress spilling
  const double kCap = 180.0;                   // baseline wall-clock cap (s)
  obs::BenchReport bench("table5_encoding");
  PrintHeaderLine("Table 5: interval encoding vs explicit (string-style) constraints");
  std::printf("%-11s | %-22s | %-22s\n", "", "#part  #iter  #cons(K)  time",
              "#part  #iter  #cons(K)  time");
  std::printf("%-11s | %-29s | %-29s\n", "Subject", "Grapple (interval)", "naive (explicit)");
  std::printf("%s\n", std::string(78, '-').c_str());
  for (const auto& preset : AllPresets(scale)) {
    Workload workload = GenerateWorkload(preset);
    PhaseRun grapple_run = RunAliasPhase(workload.program, false, kBudget, 0);
    PhaseRun naive_run = RunAliasPhase(workload.program, true, kBudget, kCap);
    bench.AddSnapshot(preset.name + ":interval", "alias", grapple_run.metrics);
    bench.AddSnapshot(preset.name + ":explicit", "alias", naive_run.metrics);
    char naive_time[32];
    if (naive_run.timed_out) {
      std::snprintf(naive_time, sizeof(naive_time), ">%s", FormatDuration(kCap).c_str());
    } else {
      std::snprintf(naive_time, sizeof(naive_time), "%s",
                    FormatDuration(naive_run.seconds).c_str());
    }
    std::printf("%-11s | %5zu %6lu %9.1f %7s | %5zu %6lu %9.1f %7s\n", preset.name.c_str(),
                grapple_run.partitions, static_cast<unsigned long>(grapple_run.iterations),
                grapple_run.constraints / 1000.0, FormatDuration(grapple_run.seconds).c_str(),
                naive_run.partitions, static_cast<unsigned long>(naive_run.iterations),
                naive_run.constraints / 1000.0, naive_time);
  }

  PrintHeaderLine("§5.3: traditional in-memory implementation (simulated RAM budget)");
  std::printf("%-11s %8s %12s %12s %10s\n", "Subject", "OOM?", "edges", "peakMB", "time(s)");
  for (const auto& preset : AllPresets(scale)) {
    Workload workload = GenerateWorkload(preset);
    TraditionalOptions options;
    options.memory_budget_bytes = uint64_t{1} << 20;  // 1 MB: the scaled "16 GB"
    options.max_seconds = 120;
    TraditionalResult result = RunTraditionalAliasAnalysis(workload.program, options);
    const char* verdict = result.out_of_memory ? "OOM" : (result.timed_out ? "timeout" : "ok");
    std::printf("%-11s %8s %12lu %12.1f %10.1f\n", preset.name.c_str(), verdict,
                static_cast<unsigned long>(result.edges), result.peak_bytes / 1048576.0,
                result.seconds);
  }
  std::printf("\npaper: the traditional implementation ran out of memory on all subjects.\n");
  bench.Write();
  return 0;
}

}  // namespace
}  // namespace grapple

int main() { return grapple::Main(); }
