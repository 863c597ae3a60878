#include "src/obs/report.h"

#include <cstdio>
#include <sstream>

#include "src/obs/json.h"
#include "src/obs/profiler.h"
#include "src/support/env.h"
#include "src/support/logging.h"

namespace grapple {
namespace obs {

void CostBreakdown::Accumulate(const MetricsSnapshot& snapshot) {
  double io_s = snapshot.SecondsOf("phase_io_ns");
  double join_s = snapshot.SecondsOf("phase_join_ns");
  double lookup_s = snapshot.SecondsOf("oracle_lookup_ns");
  double solve_s = snapshot.SecondsOf("oracle_solve_ns");
  io += io_s;
  lookup += lookup_s;
  solve += solve_s;
  double edge_s = join_s - lookup_s - solve_s;
  edge += edge_s > 0 ? edge_s : 0;
}

CostBreakdown RunReport::Breakdown() const {
  CostBreakdown breakdown;
  for (const PhaseReport& phase : phases) {
    breakdown.Accumulate(phase.metrics);
  }
  return breakdown;
}

std::string RunReport::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema").String("grapple.run_report.v1");
  if (!subject.empty()) {
    w.Key("subject").String(subject);
  }
  w.Key("frontend_seconds").Double(frontend_seconds);
  w.Key("total_seconds").Double(total_seconds);
  w.Key("total_reports").UInt(total_reports);
  CostBreakdown b = Breakdown();
  w.Key("breakdown").BeginObject();
  w.Key("io_seconds").Double(b.io);
  w.Key("lookup_seconds").Double(b.lookup);
  w.Key("solve_seconds").Double(b.solve);
  w.Key("edge_seconds").Double(b.edge);
  w.EndObject();
  w.Key("phases").BeginArray();
  for (const PhaseReport& phase : phases) {
    w.BeginObject();
    w.Key("name").String(phase.name);
    w.Key("num_vertices").UInt(phase.num_vertices);
    w.Key("edges_before").UInt(phase.edges_before);
    w.Key("edges_after").UInt(phase.edges_after);
    w.Key("seconds").Double(phase.seconds);
    w.Key("metrics").Raw(phase.metrics.ToJson());
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.Take();
}

std::string RenderEngineSummary(const MetricsSnapshot& s) {
  std::ostringstream out;
  uint64_t base = s.CounterOr("engine_base_edges_total");
  uint64_t final_edges = s.CounterOr("engine_final_edges_total");
  uint64_t added = s.CounterOr("engine_edges_added_total");
  uint64_t pruned = s.CounterOr("engine_unsat_pruned_total");
  out << "edges: " << base << " -> " << final_edges << " (+" << added << " induced, " << pruned
      << " pruned unsat)\n";
  out << "partitions: " << static_cast<uint64_t>(s.GaugeOr("engine_num_partitions")) << " (peak "
      << static_cast<uint64_t>(s.GaugeOr("engine_peak_partitions")) << ", "
      << s.CounterOr("engine_partition_splits_total") << " splits); pair loads: "
      << s.CounterOr("engine_pair_loads_total") << ", join rounds: "
      << s.CounterOr("engine_join_rounds_total") << ", joins: "
      << s.CounterOr("engine_joins_attempted_total") << "\n";
  uint64_t solved = s.CounterOr("oracle_constraints_checked_total");
  uint64_t hits = s.CounterOr("oracle_cache_hits_total");
  out << "constraints: " << s.CounterOr("oracle_merges_total") << " merges, " << solved << " solved, "
      << hits << " cache hits";
  uint64_t lookups = solved + hits;
  if (lookups > 0) {
    out << " (" << (100 * hits / lookups) << "% hit rate)";
  }
  out << "\n";
  char buffer[200];
  std::snprintf(buffer, sizeof(buffer),
                "time: preprocess %.3fs, compute %.3fs (io %.3fs, lookup %.3fs, solve %.3fs)",
                s.SecondsOf("engine_preprocess_ns"), s.SecondsOf("engine_compute_ns"),
                s.SecondsOf("phase_io_ns"), s.SecondsOf("oracle_lookup_ns"),
                s.SecondsOf("oracle_solve_ns"));
  out << buffer;
  if (s.GaugeOr("engine_timed_out") > 0) {
    out << " [TIMED OUT]";
  }
  out << "\n";
  std::snprintf(buffer, sizeof(buffer),
                "join stages: index build %.3fs, candidates %.3fs (summed over shards), "
                "integrate %.3fs\n",
                s.SecondsOf("engine_index_build_ns"), s.SecondsOf("engine_candidates_ns"),
                s.SecondsOf("engine_integrate_ns"));
  out << buffer;
  return out.str();
}

std::string RunReport::ToText() const {
  std::ostringstream out;
  if (!subject.empty()) {
    out << "subject: " << subject << "\n";
  }
  char line[160];
  std::snprintf(line, sizeof(line), "frontend %.3fs, total %.3fs, %llu reports\n",
                frontend_seconds, total_seconds,
                static_cast<unsigned long long>(total_reports));
  out << line;
  CostBreakdown b = Breakdown();
  std::snprintf(line, sizeof(line),
                "breakdown: io %.1f%%, lookup %.1f%%, solve %.1f%%, edge %.1f%%\n", b.Pct(b.io),
                b.Pct(b.lookup), b.Pct(b.solve), b.Pct(b.edge));
  out << line;
  for (const PhaseReport& phase : phases) {
    out << "-- " << phase.name << " --\n" << RenderEngineSummary(phase.metrics);
  }
  return out.str();
}

bool WriteTextFile(const std::string& path, const std::string& content) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return false;
  }
  size_t written = std::fwrite(content.data(), 1, content.size(), file);
  std::fclose(file);
  return written == content.size();
}

BenchReport::BenchReport(std::string bench_name) : name_(std::move(bench_name)) {}

void BenchReport::Add(RunReport report) { subjects_.push_back(std::move(report)); }

void BenchReport::AddSnapshot(const std::string& subject, const std::string& phase_name,
                              MetricsSnapshot snapshot) {
  RunReport report;
  report.subject = subject;
  PhaseReport phase;
  phase.name = phase_name;
  phase.metrics = std::move(snapshot);
  report.phases.push_back(std::move(phase));
  subjects_.push_back(std::move(report));
}

std::string BenchReport::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema").String("grapple.bench_report.v1");
  w.Key("bench").String(name_);
  w.Key("subjects").BeginArray();
  for (const RunReport& report : subjects_) {
    w.Raw(report.ToJson());
  }
  w.EndArray();
  // Stamp the sampling profiler's view of the run (sample counts + phase
  // fractions) into every bench report. Goes here, NOT into RunReport: run
  // reports must stay byte-identical with profiling on or off.
  w.Key("profile").Raw(ProfileSummaryJson());
  w.EndObject();
  return w.Take();
}

std::string BenchReport::Path() const {
  std::string dir = EnvString("GRAPPLE_REPORT_DIR", ".");
  return dir + "/BENCH_" + name_ + ".json";
}

bool BenchReport::Write() const {
  std::string path = Path();
  if (!WriteTextFile(path, ToJson())) {
    GRAPPLE_LOG(WARNING) << "failed to write bench report " << path;
    return false;
  }
  return true;
}

}  // namespace obs
}  // namespace grapple
