// Machine-readable run reports.
//
// A RunReport is the serializable record of one Grapple analysis: per-phase
// engine/oracle metrics snapshots plus the Figure-9 cost breakdown, with one
// JSON form (regression tracking, dashboards) and one text form (stdout).
// Both render from the same MetricsSnapshot data, so the numbers in the
// human table and the JSON report cannot disagree.
//
// Benches wrap one RunReport per subject into a BenchReport and write
// BENCH_<name>.json next to their stdout table (target directory
// overridable with GRAPPLE_REPORT_DIR).
#ifndef GRAPPLE_SRC_OBS_REPORT_H_
#define GRAPPLE_SRC_OBS_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/metrics.h"

namespace grapple {
namespace obs {

// Counter names shared between the engine/oracle instrumentation and the
// report renderers. Phase time counters are named
// kPhaseNsPrefix + name + kPhaseNsSuffix (charged by obs::ProfPhase).
inline constexpr char kPhaseNsPrefix[] = "phase_";
inline constexpr char kPhaseNsSuffix[] = "_ns";

// Figure-9 style cost split: I/O, constraint lookup (encode/decode + cache
// probing), SMT solving, and edge computation (join time not attributed to
// the oracle).
struct CostBreakdown {
  double io = 0;
  double lookup = 0;
  double solve = 0;
  double edge = 0;

  double Total() const { return io + lookup + solve + edge; }
  double Pct(double part) const { return Total() > 0 ? 100.0 * part / Total() : 0.0; }

  // Adds one engine run's contribution, derived from its merged snapshot.
  void Accumulate(const MetricsSnapshot& snapshot);
};

// One engine run (graph generation + fixpoint) within an analysis.
struct PhaseReport {
  std::string name;  // "alias", "typestate:io", ...
  uint64_t num_vertices = 0;
  uint64_t edges_before = 0;
  uint64_t edges_after = 0;
  double seconds = 0;
  MetricsSnapshot metrics;
};

struct RunReport {
  std::string subject;  // optional label (bench subject, input file)
  double frontend_seconds = 0;
  double total_seconds = 0;
  uint64_t total_reports = 0;
  std::vector<PhaseReport> phases;

  CostBreakdown Breakdown() const;
  // Full report as a JSON object.
  std::string ToJson() const;
  // Unified multi-line human-readable summary.
  std::string ToText() const;
};

// Renders the engine/oracle counters of one snapshot as the classic
// multi-line stats block (analyze_file --stats, raw_closure).
std::string RenderEngineSummary(const MetricsSnapshot& snapshot);

// Writes `content` to `path` atomically enough for reports (single write).
bool WriteTextFile(const std::string& path, const std::string& content);

// Collects one RunReport per subject and serializes them as one bench
// report file.
class BenchReport {
 public:
  explicit BenchReport(std::string bench_name);

  void Add(RunReport report);
  // Convenience for engine-only benches: wraps a snapshot into a
  // single-phase RunReport.
  void AddSnapshot(const std::string& subject, const std::string& phase_name,
                   MetricsSnapshot snapshot);

  std::string ToJson() const;
  // Target path: <GRAPPLE_REPORT_DIR or .>/BENCH_<name>.json
  std::string Path() const;
  // Serializes and writes; logs a warning and returns false on I/O failure.
  bool Write() const;

 private:
  std::string name_;
  std::vector<RunReport> subjects_;
};

}  // namespace obs
}  // namespace grapple

#endif  // GRAPPLE_SRC_OBS_REPORT_H_
