// Reproduces Table 4: effectiveness of constraint memoization.
//
// Each subject is analyzed twice — with the exact merge memo disabled
// (TOC: time without caching) and enabled (TWC) — and we report the number
// of constraint lookups, memo hits, hit rate, both constraint-resolution
// times, and the saving 1 - TWC/TOC. The memo is keyed by the merge's input
// payload pair, so a hit skips merge, decode and solve alike. Its exactness
// is gated: the cached run's alias phase carries a cache_reports_identical
// gauge, 1 when both runs' reports are byte-identical.
//
// Paper: hit rates 59.9-78.0%, savings 63.7-86.7%.
#include "bench/bench_util.h"

namespace grapple {
namespace {

struct CacheRunStats {
  uint64_t lookups = 0;  // constraint checks requested (hits + solves)
  uint64_t hits = 0;
  double constraint_seconds = 0;  // decode + solve time
};

CacheRunStats StatsOf(const GrappleResult& result) {
  CacheRunStats stats;
  for (const auto& phase : result.report.phases) {
    const obs::MetricsSnapshot& m = phase.metrics;
    uint64_t hits = m.CounterOr("oracle_cache_hits_total");
    stats.lookups += hits + m.CounterOr("oracle_constraints_checked_total");
    stats.hits += hits;
    stats.constraint_seconds += m.SecondsOf("oracle_lookup_ns") + m.SecondsOf("oracle_solve_ns");
  }
  return stats;
}

int Main() {
  double scale = ScaleFromEnv(0.5);
  obs::BenchReport bench("table4_caching");
  PrintHeaderLine("Table 4: effectiveness of constraint caching");
  std::printf("%-11s %12s %12s %8s %10s %10s %8s %10s\n", "Subject", "#Const", "#Hits", "Rate",
              "TOC(s)", "TWC(s)", "Saving", "identical");
  for (const auto& preset : AllPresets(scale)) {
    GrappleOptions no_cache = BenchOptions();
    no_cache.engine.enable_cache = false;
    SubjectRun cold = RunSubject(preset, no_cache);
    CacheRunStats toc = StatsOf(cold.result);
    AddSubject(&bench, preset.name + ":no_cache", cold.result);

    GrappleOptions with_cache = BenchOptions();
    with_cache.engine.enable_cache = true;
    SubjectRun warm = RunSubject(preset, with_cache);
    CacheRunStats twc = StatsOf(warm.result);
    bool identical = ReportFingerprint(cold.result) == ReportFingerprint(warm.result);
    warm.result.report.phases.front().metrics.gauges["cache_reports_identical"] =
        identical ? 1 : 0;
    AddSubject(&bench, preset.name + ":cache", warm.result);

    double rate = twc.lookups > 0 ? 100.0 * twc.hits / static_cast<double>(twc.lookups) : 0;
    double saving = toc.constraint_seconds > 0
                        ? 100.0 * (1.0 - twc.constraint_seconds / toc.constraint_seconds)
                        : 0;
    std::printf("%-11s %12lu %12lu %7.1f%% %10.2f %10.2f %7.1f%% %10s\n", preset.name.c_str(),
                static_cast<unsigned long>(twc.lookups), static_cast<unsigned long>(twc.hits),
                rate, toc.constraint_seconds, twc.constraint_seconds, saving,
                identical ? "yes" : "NO");
  }
  std::printf("\npaper reference: hit rates 59.9-78.0%%, savings 63.7-86.7%%\n");
  bench.Write();
  return 0;
}

}  // namespace
}  // namespace grapple

int main() { return grapple::Main(); }
