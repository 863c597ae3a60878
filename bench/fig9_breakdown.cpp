// Reproduces Figure 9: per-subject cost breakdown into I/O, constraint
// lookup (encoding/decoding + cache probing), SMT solving, and edge-pair
// computation, as percentages of total engine time.
//
// Two configurations are reported:
//   (a) native — the built-in LIA solver at its actual (in-process) speed;
//   (b) Z3-like — the same run with a simulated per-solve latency modeling
//       the out-of-process SMT solver the paper used. The paper's profile
//       (SMT solving dominating ZooKeeper/HDFS/HBase at ~84-90%, Hadoop
//       instead dominated by edge computation because of its dense
//       same-block edge pairs) is the target shape for (b); (a) shows where
//       the time goes when solving is three orders of magnitude cheaper.
#include "bench/bench_util.h"

namespace grapple {
namespace {

void Report(const char* title, uint32_t solve_latency_us, double scale, const char* tag,
            obs::BenchReport* bench) {
  PrintHeaderLine(title);
  std::printf("%-11s %8s %10s %9s %12s\n", "Subject", "I/O", "lookup", "SMT", "edge-comp");
  for (const auto& preset : AllPresets(scale)) {
    GrappleOptions options = BenchOptions();
    options.engine.simulated_solve_latency_us = solve_latency_us;
    SubjectRun run = RunSubject(preset, options);
    CostBreakdown b = BreakdownOf(run.result);
    std::printf("%-11s %7.1f%% %9.1f%% %8.1f%% %11.1f%%\n", preset.name.c_str(), b.Pct(b.io),
                b.Pct(b.lookup), b.Pct(b.solve), b.Pct(b.edge));
    AddSubject(bench, preset.name + ":" + tag, run.result);
  }
}

int Main() {
  double scale = ScaleFromEnv(0.5);
  obs::BenchReport bench("fig9_breakdown");
  Report("Figure 9a: breakdown with the built-in solver (native speed)", 0, scale, "native",
         &bench);
  Report("Figure 9b: breakdown with simulated Z3-like per-solve latency (250us)", 250, scale,
         "z3like", &bench);
  bench.Write();
  std::printf("\npaper reference:  I/O     lookup   SMT     edge-comp\n");
  std::printf("  ZooKeeper       1.0%%    0.4%%     89.5%%   9.1%%\n");
  std::printf("  Hadoop          4.2%%    0.2%%     32.7%%   62.9%%\n");
  std::printf("  HDFS            1.1%%    0.8%%     87.5%%   10.6%%\n");
  std::printf("  HBase           2.2%%    0.4%%     83.7%%   14.0%%\n");
  return 0;
}

}  // namespace
}  // namespace grapple

int main() { return grapple::Main(); }
