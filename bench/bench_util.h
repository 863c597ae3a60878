// Shared helpers for the paper-reproduction benchmark binaries.
//
// Each bench regenerates one table or figure of the paper's §5 on the
// synthetic preset subjects. Scale can be overridden with GRAPPLE_SCALE
// (multiplies filler statement counts; bug counts stay fixed).
#ifndef GRAPPLE_BENCH_BENCH_UTIL_H_
#define GRAPPLE_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/checker/builtin_checkers.h"
#include "src/checker/report_json.h"
#include "src/core/grapple.h"
#include "src/obs/report.h"
#include "src/support/timer.h"
#include "src/workload/workload.h"

namespace grapple {

inline double ScaleFromEnv(double default_scale) {
  const char* env = std::getenv("GRAPPLE_SCALE");
  if (env == nullptr || *env == '\0') {
    return default_scale;
  }
  double scale = std::atof(env);
  return scale > 0 ? scale : default_scale;
}

// Where every GrappleOptions a bench builds starts: the defaults with the
// GRAPPLE_* option knobs applied (ApplyEnvOverrides). A/B sections then set
// their own field per arm, and that field wins.
inline GrappleOptions BenchOptions() {
  GrappleOptions options;
  ApplyEnvOverrides(&options);
  return options;
}

struct SubjectRun {
  Workload workload;
  GrappleResult result;
};

inline SubjectRun RunSubject(const WorkloadConfig& config,
                             const GrappleOptions& options = BenchOptions()) {
  SubjectRun run;
  run.workload = GenerateWorkload(config);
  Program program = run.workload.program;  // keep a copy with the workload
  Grapple grapple(std::move(program), options);
  run.result = grapple.Check(AllBuiltinCheckers());
  return run;
}

// Timing-free fingerprint of a run: every bug report and witness, in
// checker order. Two runs' reports are byte-identical exactly when their
// fingerprints are equal.
inline std::string ReportFingerprint(const GrappleResult& r) {
  std::string out;
  for (const auto& checker : r.checkers) {
    out += checker.checker + "\n" + ReportsToJson(checker.reports) + "\n";
  }
  return out;
}

// Figure-9 style cost breakdown; the single implementation lives in
// src/obs/report.h and renders from the run's metrics snapshots, so the
// bench tables and BENCH_*.json files agree by construction.
using CostBreakdown = obs::CostBreakdown;

inline CostBreakdown BreakdownOf(const GrappleResult& result) {
  return result.report.Breakdown();
}

// Attaches one subject's run report (with the subject name) to a bench
// report destined for BENCH_<name>.json.
inline void AddSubject(obs::BenchReport* bench, const std::string& subject,
                       const GrappleResult& result) {
  obs::RunReport report = result.report;
  report.subject = subject;
  bench->Add(std::move(report));
}

inline void PrintHeaderLine(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

}  // namespace grapple

#endif  // GRAPPLE_BENCH_BENCH_UTIL_H_
