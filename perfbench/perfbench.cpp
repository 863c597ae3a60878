// End-to-end benchmark for Grapple (design: perfbench/DESIGN.md).
//
//   grapple_perfbench --workload spill|service-mix --seed N
//                     --seconds S --trace 0|1 --run-dir DIR
//
// Every workload does a fixed amount of work, sized from --seconds. A cold
// check builds a session (frontend + alias closure + checkers); a warm check
// re-runs the checkers on a resident session.
// Every check is verified against the generator's ground truth, so a faster
// wrong answer counts as a failure. The last line of stdout is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Untraced runs
// report the end-to-end metrics; traced runs (--trace 1) report per-layer
// metrics taken from spans the benchmark records around its calls into
// Grapple's public entry points, and from the counters Grapple publishes in
// GrappleResult.report.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/tracer.h"
#include "src/checker/builtin_checkers.h"
#include "src/checker/report_json.h"
#include "src/core/grapple.h"
#include "src/ir/parser.h"
#include "src/service/service.h"
#include "src/workload/workload.h"

namespace perfbench {
namespace {

using grapple::BugReport;
using grapple::FsmSpec;
using grapple::Grapple;
using grapple::GrappleOptions;
using grapple::GrappleResult;
using grapple::Workload;
using grapple::WorkloadConfig;
namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Small utilities.

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double MsSince(Clock::time_point start) { return SecondsSince(start) * 1e3; }

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

// Nearest-rank percentile (0 < p <= 100); 0 for an empty sample.
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[std::min(values.size(), std::max<size_t>(rank, 1)) - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Sum(const std::vector<double>& values) {
  double total = 0;
  for (double v : values) {
    total += v;
  }
  return total;
}

// Process peak resident set (VmHWM), MB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0;
}

struct DirUsage {
  uint64_t bytes = 0;
  uint64_t files = 0;
  uint64_t dirs = 0;
};

DirUsage UsageOf(const std::string& root) {
  DirUsage usage;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(root, ec), end; !ec && it != end; it.increment(ec)) {
    std::error_code entry_ec;
    if (it->is_directory(entry_ec)) {
      ++usage.dirs;
    } else if (it->is_regular_file(entry_ec)) {
      ++usage.files;
      usage.bytes += it->file_size(entry_ec);
    }
  }
  return usage;
}

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

template <typename T>
void SeededShuffle(std::vector<T>* items, uint64_t seed) {
  std::mt19937_64 rng(SplitMix(seed));
  for (size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[rng() % i]);
  }
}

const char* WitnessName(grapple::obs::WitnessMode mode) {
  switch (mode) {
    case grapple::obs::WitnessMode::kOff:
      return "off";
    case grapple::obs::WitnessMode::kBugs:
      return "bugs";
    case grapple::obs::WitnessMode::kFull:
      return "full";
  }
  return "?";
}

std::string AllReportsJson(const GrappleResult& result) {
  std::vector<BugReport> all;
  for (const auto& checker : result.checkers) {
    all.insert(all.end(), checker.reports.begin(), checker.reports.end());
  }
  return grapple::ReportsToJson(all);
}

// ---------------------------------------------------------------------------
// Arguments and environment.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string run_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--run-dir") {
      args->run_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && !args->run_dir.empty() &&
         args->seconds > 0;
}

// Overrides that change what Grapple computes or how: a run under any of
// them would measure something other than the benchmark's workload.
const char* const kRefusedEnv[] = {
    "GRAPPLE_THREADS", "GRAPPLE_IO_PIPELINE", "GRAPPLE_WITNESS",  "GRAPPLE_PROFILE",
    "GRAPPLE_STATUSZ", "GRAPPLE_TRACE",       "GRAPPLE_METRICS",  "GRAPPLE_FAULTS",
    "GRAPPLE_STEAL",   "GRAPPLE_MAX_RESIDENT_SESSIONS",
};
const char kRefusedEnvPrefix[] = "GRAPPLE_CHECKPOINT";

std::string RefusedEnvVariable() {
  for (const char* name : kRefusedEnv) {
    if (std::getenv(name) != nullptr) {
      return name;
    }
  }
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, kRefusedEnvPrefix, sizeof(kRefusedEnvPrefix) - 1) == 0) {
      return std::string(*env).substr(0, std::string(*env).find('='));
    }
  }
  return "";
}

// ---------------------------------------------------------------------------
// Result line.

class Results {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  // A counter Grapple no longer publishes under the expected name: reported
  // as -1 and listed on the "absent:" line, never as a failure.
  void Absent(const std::string& name, const std::string& unit) {
    metrics_.push_back({name, -1, unit});
    absent_.push_back(name);
  }

  void Fail(const std::string& what) {
    ++failed_;
    if (failures_.size() < 20) {
      failures_.push_back(what);
    }
  }
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  void Flag(const std::string& what) {  // a check that is not one operation
    flagged_ = true;
    failures_.push_back(what);
  }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const { return failed_ == 0 && !flagged_ && attempted_ > 0; }

  void Print() const {
    for (const auto& failure : failures_) {
      std::printf("FAILED: %s\n", failure.c_str());
    }
    if (!absent_.empty()) {
      std::printf("absent:");
      for (const auto& name : absent_) {
        std::printf(" %s", name.c_str());
      }
      std::printf("\n");
    }
    for (const auto& m : metrics_) {
      std::printf("  %-36s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                correct() ? "true" : "false", static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                  metrics_[i].name.c_str(), metrics_[i].value, metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> absent_;
  std::vector<std::string> failures_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool flagged_ = false;
};

// ---------------------------------------------------------------------------
// Counters, read by name from GrappleResult.report. A name no phase carries
// is absent (renamed or removed upstream), which the traced output marks
// instead of failing.

struct CounterSum {
  double value = 0;
  bool present = false;
};

CounterSum ReadCounter(const grapple::obs::RunReport& report, const std::string& name) {
  CounterSum sum;
  for (const auto& phase : report.phases) {
    auto it = phase.metrics.counters.find(name);
    if (it != phase.metrics.counters.end()) {
      sum.value += static_cast<double>(it->second);
      sum.present = true;
    }
  }
  return sum;
}

// Per-layer metrics copied from a report counter (summed over phases).
struct CounterSource {
  const char* metric;
  const char* counter;
  double scale;  // ns counters -> ms
  const char* unit;
};

const CounterSource kCounterSources[] = {
    {"graph.engine.pair_loads", "engine_pair_loads_total", 1, "count"},
    {"graph.engine.join_rounds", "engine_join_rounds_total", 1, "count"},
    {"graph.engine.joins_attempted", "engine_joins_attempted_total", 1, "count"},
    {"graph.engine.edges_added", "engine_edges_added_total", 1, "count"},
    {"graph.engine.final_edges", "engine_final_edges_total", 1, "count"},
    {"graph.engine.unsat_pruned", "engine_unsat_pruned_total", 1, "count"},
    {"graph.engine.widened_triples", "engine_widened_triples_total", 1, "count"},
    {"graph.engine.partition_splits", "engine_partition_splits_total", 1, "count"},
    {"graph.engine.join_ms", "phase_join_ns", 1e-6, "ms"},
    {"graph.oracle.merges", "oracle_merges_total", 1, "count"},
    {"graph.oracle.lookup_ms", "oracle_lookup_ns", 1e-6, "ms"},
    {"smt.solves", "oracle_constraints_checked_total", 1, "count"},
    {"smt.solve_ms", "oracle_solve_ns", 1e-6, "ms"},
    {"graph.store.io_ms", "phase_io_ns", 1e-6, "ms"},
    {"graph.store.loads", "io_partition_loads_total", 1, "count"},
    {"graph.store.bytes_read", "io_bytes_read", 1, "bytes"},
    {"graph.store.bytes_written", "io_bytes_written", 1, "bytes"},
};

// Further report counters the ratio metrics divide.
const char* const kRatioCounters[] = {"oracle_cache_hits_total", "oracle_unsat_total",
                                      "io_prefetch_hits_total"};

// Everything one cold analysis tells the per-layer metrics: outside-in
// span timings, the report counters, and the session's runtime stats.
struct LayerSample {
  double parse_ms = 0;
  double frontend_ms = 0;
  double alias_ms = 0;  // first CheckOne minus repeat CheckOne
  double typestate_ms = 0;  // warm CheckOne summed over the specs
  double check_cpu_s = 0;
  double check_wall_s = 0;
  std::map<std::string, CounterSum> counters;  // by report counter name
  CounterSum alias_merges;  // merges of the alias phase alone
  double steals = 0;
  double busy_ms[grapple::kNumTaskLanes] = {0, 0, 0};
  double reports = 0;
};

void ReadReportCounters(const GrappleResult& result, LayerSample* sample) {
  const auto& report = result.report;
  for (const auto& source : kCounterSources) {
    sample->counters[source.counter] = ReadCounter(report, source.counter);
  }
  for (const char* counter : kRatioCounters) {
    sample->counters[counter] = ReadCounter(report, counter);
  }
  for (const auto& phase : report.phases) {
    auto it = phase.metrics.counters.find("oracle_merges_total");
    if (phase.name == "alias" && it != phase.metrics.counters.end()) {
      sample->alias_merges.value += static_cast<double>(it->second);
      sample->alias_merges.present = true;
    }
  }
  sample->reports = static_cast<double>(result.TotalReports());
}

// Counts that must repeat exactly from pass to pass for one subject.
struct RepeatCounts {
  double merges = 0, solves = 0, pair_loads = 0, final_edges = 0, reports = 0;

  bool operator==(const RepeatCounts& o) const {
    return merges == o.merges && solves == o.solves && pair_loads == o.pair_loads &&
           final_edges == o.final_edges && reports == o.reports;
  }
  std::string ToString() const {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "merges=%.0f solves=%.0f pair_loads=%.0f final_edges=%.0f "
                  "reports=%.0f", merges, solves, pair_loads, final_edges, reports);
    return buf;
  }
};

RepeatCounts RepeatCountsOf(const GrappleResult& result) {
  RepeatCounts counts;
  counts.merges = ReadCounter(result.report, "oracle_merges_total").value;
  counts.solves = ReadCounter(result.report, "oracle_constraints_checked_total").value;
  counts.pair_loads = ReadCounter(result.report, "engine_pair_loads_total").value;
  counts.final_edges = ReadCounter(result.report, "engine_final_edges_total").value;
  counts.reports = static_cast<double>(result.TotalReports());
  return counts;
}

// Ground truth (Table 2): every real bug reported, no report off a designed
// pattern, and exactly the designed false-positive traps flagged.
std::string GroundTruthMismatch(const Workload& workload, const GrappleResult& result) {
  for (const auto& checker : result.checkers) {
    if (checker.degraded) {
      return checker.checker + ": degraded (" + checker.degraded_reason + ")";
    }
    grapple::Classification cls =
        grapple::ClassifyReports(workload, checker.checker, checker.reports);
    size_t traps = 0;
    for (const auto& pattern : workload.patterns) {
      if (pattern.checker == checker.checker && !pattern.is_real_bug && pattern.report_expected) {
        ++traps;
      }
    }
    if (cls.false_negatives != 0 || !cls.unmatched_reports.empty() ||
        cls.false_positives != traps) {
      char buf[200];
      std::snprintf(buf, sizeof(buf), "%s: fn=%zu unmatched=%zu fp=%zu (designed traps %zu)",
                    checker.checker.c_str(), cls.false_negatives, cls.unmatched_reports.size(),
                    cls.false_positives, traps);
      return buf;
    }
  }
  return "";
}

// Reports each checker should give on `workload`: designed bugs and traps.
std::map<std::string, size_t> ExpectedReportCounts(const Workload& workload) {
  std::map<std::string, size_t> counts;
  for (const auto& pattern : workload.patterns) {
    if (pattern.report_expected) {
      ++counts[pattern.checker];
    }
  }
  return counts;
}

// ---------------------------------------------------------------------------
// Layer probe: one traced cold analysis of a program, timed from outside by
// the spans around each call.
//
//   core.frontend     the Grapple constructor (cfg + symexec)
//   graph.alias       first CheckOne(spec) minus a repeat on the same session
//   facade.check      Check(specs), which reuses the cached alias phase
//   checker.typestate warm CheckOne(spec), summed over the specs

struct Analysis {
  std::unique_ptr<Grapple> session;
  GrappleResult result;
  LayerSample layers;
};

// `tracer` must be enabled: the layer timings are its span durations.
Analysis AnalyzeTraced(grapple::Program program, const GrappleOptions& options,
                       const std::vector<FsmSpec>& specs, Tracer* tracer) {
  Analysis out;
  Tracer::Scope frontend(tracer, "core.frontend");
  out.session = std::make_unique<Grapple>(std::move(program), options);
  out.layers.frontend_ms = frontend.End();

  Tracer::Scope first(tracer, "graph.alias_first_check_one");
  out.session->CheckOne(specs.front());
  double first_ms = first.End();
  Tracer::Scope repeat(tracer, "checker.repeat_check_one");
  out.session->CheckOne(specs.front());
  out.layers.alias_ms = first_ms - repeat.End();

  double cpu = CpuSeconds();
  Tracer::Scope check(tracer, "facade.check");
  out.result = out.session->Check(specs);
  out.layers.check_wall_s = check.End() / 1e3;
  out.layers.check_cpu_s = CpuSeconds() - cpu;

  for (const auto& spec : specs) {
    Tracer::Scope typestate(tracer, "checker.typestate");
    out.session->CheckOne(spec);
    out.layers.typestate_ms += typestate.End();
  }
  ReadReportCounters(out.result, &out.layers);
  Tracer::Scope runtime_stats(tracer, "support.runtime_stats");
  grapple::TaskRuntimeStats stats = out.session->RuntimeStats();
  runtime_stats.End();
  out.layers.steals = static_cast<double>(stats.steals);
  for (size_t lane = 0; lane < grapple::kNumTaskLanes; ++lane) {
    out.layers.busy_ms[lane] = static_cast<double>(stats.busy_ns[lane]) / 1e6;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Per-layer metric emission (traced runs). `layers` holds one workload
// unit's values: the median traced pass on spill, the median cold
// subject on service-mix.

struct ServiceLayers {
  double queue_ms = 0, check_ms = 0, overhead_ms = 0;
  double warm_hit_ratio = 0, evictions = 0, errors = 0, work_kb_per_check = 0;
};

void EmitLayerMetrics(const LayerSample& layers, const ServiceLayers& service,
                      double trace_overhead_frac, Results* out) {
  out->Add("ir.parse_ms", layers.parse_ms, "ms");
  out->Add("core.frontend_ms", layers.frontend_ms, "ms");
  out->Add("graph.alias_ms", layers.alias_ms, "ms");
  auto counter = [&](const char* name) {
    auto it = layers.counters.find(name);
    return it == layers.counters.end() ? CounterSum{} : it->second;
  };
  for (const auto& source : kCounterSources) {
    CounterSum sum = counter(source.counter);
    if (sum.present) {
      out->Add(source.metric, sum.value * source.scale, source.unit);
    } else {
      out->Absent(source.metric, source.unit);
    }
  }
  auto ratio = [&](const char* name, const CounterSum& num, const CounterSum& den,
                   const char* unit) {
    if (!num.present || !den.present) {
      out->Absent(name, unit);
    } else {
      out->Add(name, den.value > 0 ? num.value / den.value : 0, unit);
    }
  };
  CounterSum hits = counter("oracle_cache_hits_total");
  CounterSum solves = counter("oracle_constraints_checked_total");
  // Every memo probe either hits or goes to the solver.
  CounterSum probes{hits.value + solves.value, hits.present && solves.present};
  ratio("graph.oracle.hit_ratio", hits, probes, "ratio");
  ratio("graph.oracle.ns_per_merge", CounterSum{layers.alias_ms * 1e6, true},
        layers.alias_merges, "ns");
  ratio("smt.unsat_ratio", counter("oracle_unsat_total"), solves, "ratio");
  // Share of partition loads served by a completed prefetch.
  ratio("graph.store.prefetch_hit_ratio", counter("io_prefetch_hits_total"),
        counter("io_partition_loads_total"), "ratio");
  out->Add("support.runtime.cpu_util",
           layers.check_wall_s > 0 ? layers.check_cpu_s / layers.check_wall_s : 0, "ratio");
  out->Add("support.runtime.steals", layers.steals, "count");
  out->Add("support.runtime.busy_ms.foreground", layers.busy_ms[0], "ms");
  out->Add("support.runtime.busy_ms.prefetch", layers.busy_ms[1], "ms");
  out->Add("support.runtime.busy_ms.write_behind", layers.busy_ms[2], "ms");
  out->Add("checker.typestate_ms", layers.typestate_ms, "ms");
  out->Add("checker.reports", layers.reports, "count");
  out->Add("service.queue_ms", service.queue_ms, "ms");
  out->Add("service.check_ms", service.check_ms, "ms");
  out->Add("service.overhead_ms", service.overhead_ms, "ms");
  out->Add("service.warm_hit_ratio", service.warm_hit_ratio, "ratio");
  out->Add("service.evictions", service.evictions, "count");
  out->Add("service.errors", service.errors, "count");
  out->Add("service.work_kb_per_check", service.work_kb_per_check, "KB");
  out->Add("obs.trace_overhead_frac", trace_overhead_frac, "ratio");
}

// The end-to-end metrics of an untraced run (definitions: DESIGN.md).
void EmitEndToEnd(double analysis_s, double setup_s, double checks_per_s, double warm_p50_ms,
                  double cold_p50_ms, double work_disk_mb, Results* out) {
  out->Add("analysis_s", analysis_s, "s");
  out->Add("setup_s", setup_s, "s");
  out->Add("peak_rss_mb", PeakRssMb(), "MB");
  out->Add("ok_frac",
           static_cast<double>(out->attempted() - out->failed()) /
               static_cast<double>(std::max<uint64_t>(out->attempted(), 1)),
           "ratio");
  out->Add("checks_per_s", checks_per_s, "1/s");
  out->Add("warm_p50_ms", warm_p50_ms, "ms");
  out->Add("cold_p50_ms", cold_p50_ms, "ms");
  out->Add("work_disk_mb", work_disk_mb, "MB");
}

// Every run does a fixed amount of work, sized from --seconds by the
// nominal cost of its parts on a 4-core Release build, so a faster program
// finishes sooner and every count (samples, work-dir bytes) repeats.
size_t ScaledCount(double seconds, double per_30s) {
  return std::max<size_t>(1, static_cast<size_t>(std::lround(per_30s * seconds / 30.0)));
}

// Set-up is repeated this many times in every run; setup_s is the median.
constexpr int kSetupReps = 3;

// ---------------------------------------------------------------------------
// spill: the zookeeper preset at scale 1.0 under a 1 MiB engine budget and
// two join shards, so the alias closure runs over many partitions.
//
// Set-up generates and renders the spill subject and the warm subject, and
// builds a resident session of the warm subject: Grapple over a copy of its
// Program, then the first Check(specs). It is repeated kSetupReps times;
// the last resident session is kept. Then come the cold passes: a pass
// analyses the spill subject on a fresh session, Grapple over a copy of the
// Program, Check(specs) and teardown (session destroyed, work dir removed).
// analysis_s is the median over passes of that timed part. After each cold
// analysis the resident session is re-checked a fixed number of times
// (Check on a resident session reruns the checkers over the cached alias
// phase); warm_p50_ms is the median of those samples. The resident session
// is torn down at the end, untimed, with the work dirs its warm checks left
// behind.

constexpr double kColdPassesPer30s = 3;  // their median is analysis_s
constexpr double kWarmChecksPer30s = 300;

int RunSpill(const Args& args, Tracer& tracer, Results* out) {
  // The preset keeps its own generator seed: the closure cost varies
  // several-fold across generator seeds. The run's seed orders the checkers.
  const WorkloadConfig subject = grapple::ZooKeeperPreset(1.0);
  GrappleOptions options;
  options.engine.memory_budget_bytes = uint64_t{1} << 20;
  options.scheduling.num_threads = 2;
  // The warm subject: an hbase-shaped program whose warm check (20-30 ms)
  // is mostly user time and whose set-up is short enough to repeat. Its
  // session has the workload's options but one join shard: at two shards
  // its solver count varies from build to build (reports and edges do not),
  // which the exact-repeat check would flag on every run.
  const WorkloadConfig resident_config = grapple::HBasePreset(0.2);
  GrappleOptions resident_options = options;
  resident_options.scheduling.num_threads = 1;
  std::vector<FsmSpec> specs = grapple::AllBuiltinCheckers();
  SeededShuffle(&specs, args.seed);

  // A check must match the ground truth, and its counts must repeat those
  // of the subject's first check. Traced and untraced checks are compared
  // apart, because the traced probes re-run one checker.
  std::map<std::pair<std::string, bool>, RepeatCounts> first_counts;
  auto verify = [&](const std::string& where, const std::string& name, bool traced,
                    const Workload& workload, const GrappleResult& result) {
    out->Attempt();
    std::string mismatch = GroundTruthMismatch(workload, result);
    if (!mismatch.empty()) {
      out->Fail(where + " subject " + name + " " + mismatch);
    }
    RepeatCounts counts = RepeatCountsOf(result);
    auto [it, inserted] = first_counts.emplace(std::make_pair(name, traced), counts);
    if (!inserted && !(it->second == counts)) {
      out->Flag("exact-repeat: subject " + name + " " + where + " " + counts.ToString() +
                " vs " + it->second.ToString());
    }
  };

  const std::string warm_name = resident_config.name + " (warm subject)";
  std::vector<double> setup_s;
  Workload workload, resident_workload;
  std::unique_ptr<Grapple> resident;
  GrappleResult first;
  size_t ir_bytes = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    resident.reset();  // untimed: the previous repetition's session
    auto t = Clock::now();
    workload = grapple::GenerateWorkload(subject);
    resident_workload = grapple::GenerateWorkload(resident_config);
    ir_bytes = workload.program.ToString().size() + resident_workload.program.ToString().size();
    resident = std::make_unique<Grapple>(resident_workload.program, resident_options);
    first = resident->Check(specs);
    setup_s.push_back(SecondsSince(t));
    verify("set-up " + std::to_string(rep), warm_name, false, resident_workload, first);
  }
  std::string resident_reports = AllReportsJson(first);

  const size_t cold_passes = ScaledCount(args.seconds, kColdPassesPer30s);
  const size_t warm_checks = ScaledCount(args.seconds, kWarmChecksPer30s);
  std::printf("workload spill seed %llu: subject %s@%zu, warm subject %s@%zu, checkers [",
              static_cast<unsigned long long>(args.seed), subject.name.c_str(),
              workload.total_statements, resident_config.name.c_str(),
              resident_workload.total_statements);
  for (size_t i = 0; i < specs.size(); ++i) {
    std::printf("%s%s", i ? " " : "", specs[i].fsm.name().c_str());
  }
  std::printf("], ir %zu bytes\n", ir_bytes);
  std::printf("options: budget=%llu shards=%zu checker_parallelism=%zu witness=%s "
              "io_pipeline=%d warm_shards=%zu warm_checks=%zu passes=%zu setups=%d trace=%d\n",
              static_cast<unsigned long long>(options.engine.memory_budget_bytes),
              options.scheduling.num_threads, options.scheduling.checker_parallelism,
              WitnessName(options.observability.witness), options.engine.io_pipeline ? 1 : 0,
              resident_options.scheduling.num_threads, warm_checks, cold_passes, kSetupReps,
              args.trace ? 1 : 0);

  // Traced runs: parse the subject's rendered text once (the passes hand
  // Grapple the in-memory Program, so parsing is off their path).
  double parse_ms = 0;
  if (args.trace) {
    tracer.set_enabled(true);
    std::string text = workload.program.ToString();
    Tracer::Scope span(&tracer, "ir.parse");
    grapple::ParseResult parsed = grapple::ParseProgram(text);
    parse_ms = span.End();
    if (!parsed.ok) {
      out->Flag("rendered IR does not parse: " + parsed.error);
    }
  }

  ::sync();  // set-up's writes settle before timing

  // Cold passes, each followed by an equal block of warm re-checks, so that
  // both sample the whole run. Traced runs alternate traced and untraced
  // passes.
  std::vector<double> analysis_s[2];  // [traced]
  std::vector<double> warm_ms, cold_ms, work_mb;
  std::vector<LayerSample> pass_layers;
  auto loop_start = Clock::now();
  for (size_t pass = 0; pass < cold_passes; ++pass) {
    bool traced = args.trace && pass % 2 == 0;
    tracer.set_enabled(traced);
    Tracer::Scope pass_span(&tracer, "pass");
    auto t = Clock::now();
    Analysis run;
    if (traced) {
      run = AnalyzeTraced(workload.program, options, specs, &tracer);
      pass_layers.push_back(run.layers);
    } else {
      run.session = std::make_unique<Grapple>(workload.program, options);
      run.result = run.session->Check(specs);
    }
    double cold = SecondsSince(t);
    cold_ms.push_back(cold * 1e3);
    work_mb.push_back(static_cast<double>(UsageOf(run.session->work_dir()).bytes) / 1e6);
    t = Clock::now();
    {
      Tracer::Scope span(&tracer, "teardown");
      run.session.reset();  // also removes the session's temp work dir
    }
    double analysis = cold + SecondsSince(t);
    analysis_s[traced].push_back(analysis);
    pass_span.End();
    verify("pass " + std::to_string(pass), subject.name, traced, workload, run.result);

    // A block of warm re-checks of the resident session, each
    // byte-identical to its first Check.
    for (size_t k = warm_checks * pass / cold_passes; k < warm_checks * (pass + 1) / cold_passes;
         ++k) {
      Tracer::Scope span(&tracer, "facade.warm_check");
      auto w_start = Clock::now();
      GrappleResult warm = resident->Check(specs);
      warm_ms.push_back(MsSince(w_start));
      out->Attempt();
      if (AllReportsJson(warm) != resident_reports) {
        out->Fail("subject " + warm_name + " warm re-check " + std::to_string(k) +
                  ": reports differ from its first check");
      }
    }
    std::printf("pass %zu%s: analysis %.3f s, work %.2f MB\n", pass, traced ? " (traced)" : "",
                analysis, work_mb.back());
  }
  double loop_wall_s = SecondsSince(loop_start);
  tracer.set_enabled(false);
  resident.reset();  // untimed; also removes the warm checks' work dirs
  size_t half = warm_ms.size() / 2;
  std::printf("%zu warm checks of %s: warm_p50_ms first half %.3f, second half %.3f; "
              "p99 %.3f (not a metric: it follows the host's slowest seconds)\n",
              warm_ms.size(), warm_name.c_str(), Median({warm_ms.begin(), warm_ms.begin() + half}),
              Median({warm_ms.begin() + half, warm_ms.end()}), Percentile(warm_ms, 99));
  std::printf("set-ups:");
  for (double s : setup_s) {
    std::printf(" %.3f s", s);
  }
  std::printf("\n");
  for (const auto& [key, counts] : first_counts) {
    std::printf("repeat counts %s%s: %s\n", key.first.c_str(), key.second ? " (traced)" : "",
                counts.ToString().c_str());
  }

  if (!args.trace) {
    double checks = static_cast<double>(warm_ms.size() + cold_passes);
    EmitEndToEnd(Median(analysis_s[0]), Median(setup_s), checks / loop_wall_s, Median(warm_ms),
                 Median(cold_ms), Median(work_mb), out);
    return 0;
  }

  // Per-layer: the median traced pass (by its analysis time).
  std::vector<std::pair<double, size_t>> order;
  for (size_t i = 0; i < pass_layers.size(); ++i) {
    order.push_back({analysis_s[1][i], i});
  }
  std::sort(order.begin(), order.end());
  LayerSample layers = pass_layers[order[order.size() / 2].second];
  layers.parse_ms = parse_ms;
  double overhead = Median(analysis_s[1]) / Median(analysis_s[0]) - 1;
  EmitLayerMetrics(layers, ServiceLayers{}, overhead, out);
  return 0;
}

// ---------------------------------------------------------------------------
// Loopback HTTP client for the service workload.

struct HttpReply {
  int status = 0;
  std::string body;
};

HttpReply PostCheck(int port, const std::string& tenant, const std::string& subject) {
  HttpReply reply;
  std::string request = "POST /check?tenant=" + tenant +
                        " HTTP/1.0\r\nContent-Length: " + std::to_string(subject.size()) +
                        "\r\n\r\n" + subject;
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return reply;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return reply;
  }
  for (size_t sent = 0; sent < request.size();) {
    ssize_t n = ::write(fd, request.data() + sent, request.size() - sent);
    if (n <= 0) {
      ::close(fd);
      return reply;
    }
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buffer[16384];
  ssize_t n;
  while ((n = ::read(fd, buffer, sizeof(buffer))) > 0) {
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  size_t space = response.find(' ');
  size_t header_end = response.find("\r\n\r\n");
  if (space == std::string::npos || header_end == std::string::npos) {
    return reply;
  }
  reply.status = std::atoi(response.c_str() + space + 1);
  reply.body = response.substr(header_end + 4);
  return reply;
}

// Fields of the default /check response envelope.
struct Envelope {
  bool parsed = false;
  bool warm = false;
  double queue_ms = 0;
  double check_ms = 0;  // check_seconds less the session's constructor time
  std::string reports;  // the "reports" array, verbatim
};

Envelope ParseEnvelope(const std::string& body) {
  Envelope env;
  auto number_after = [&](const char* key, size_t from, double* value) {
    size_t pos = body.find(key, from);
    if (pos == std::string::npos) {
      return false;
    }
    *value = std::strtod(body.c_str() + pos + std::strlen(key), nullptr);
    return true;
  };
  size_t warm = body.find("\"warm\":");
  size_t begin = body.find(",\"reports\":");
  size_t end = body.find(",\"report\":");
  double check_seconds = 0;
  double frontend_seconds = 0;
  if (warm == std::string::npos || begin == std::string::npos || end == std::string::npos ||
      end < begin || !number_after("\"queue_ms\":", 0, &env.queue_ms) ||
      !number_after("\"check_seconds\":", 0, &check_seconds) ||
      !number_after("\"frontend_seconds\":", end, &frontend_seconds)) {
    return env;
  }
  env.warm = body.compare(warm + 7, 4, "true") == 0;
  // check_seconds is the result's total_seconds, which carries the
  // session's constructor time on every Check, warm ones included.
  env.check_ms = (check_seconds - frontend_seconds) * 1e3;
  begin += std::strlen(",\"reports\":");
  env.reports = body.substr(begin, end - begin);
  env.parsed = true;
  return env;
}

// ---------------------------------------------------------------------------
// service-mix: an in-process GrappleService driven over loopback by one
// closed-loop client that alternates between two tenants. One request is in
// flight at a time, so latency measures the service, not the host's
// scheduler.
//
// Each tenant has two hot subjects whose sessions are built during set-up.
// Each tenant's warm requests alternate between its hot subjects, and every
// tenth request (at a seed-chosen phase) carries a never-seen subject: a
// member of a seed-varied pool of hadoop-shaped programs, made new by a
// trailing comment naming the request. Capacity is four hot sessions plus
// four, so a cold request always evicts an idle cold session: the previous
// cold session is older than every hot session, each of which was touched
// within the last eight requests.

constexpr size_t kHotPerTenant = 2;
constexpr size_t kColdPool = 16;
constexpr size_t kRequestsPerPass = 100;
constexpr size_t kColdEvery = 10;
constexpr double kServicePassesPer30s = 7;
const char* const kTenants[] = {"alpha", "beta"};

struct ServiceSubject {
  std::string name;
  WorkloadConfig config;
  std::string text;
  std::string reference;  // ReportsToJson of the one-shot analysis
};

std::vector<ServiceSubject> ServiceSubjects(uint64_t seed) {
  std::vector<ServiceSubject> subjects;
  // Two hbase-shaped programs of the same size: a warm check of either is
  // 12-20 ms, so warm latency is one mode, not two.
  WorkloadConfig hot_a = grapple::HBasePreset(0.2);
  WorkloadConfig hot_b = grapple::HBasePreset(0.2);
  hot_b.seed = 406;
  subjects.push_back({"hbase@0.2#404", hot_a, "", ""});
  subjects.push_back({"hbase@0.2#406", hot_b, "", ""});
  for (size_t i = 0; i < kColdPool; ++i) {
    WorkloadConfig config = grapple::HadoopPreset(0.2);
    config.seed = SplitMix(seed * 1000003 + i) % 1000000007;
    subjects.push_back({"hadoop@0.2#" + std::to_string(config.seed), config, "", ""});
  }
  return subjects;
}

struct RequestRecord {
  size_t pass = 0;
  size_t subject = 0;
  bool designated_warm = false;
  double latency_ms = 0;
  double queue_ms = 0;
  double check_ms = 0;
};

int RunServiceMix(const Args& args, Tracer& tracer, Results* out) {
  std::vector<FsmSpec> specs = grapple::AllBuiltinCheckers();
  GrappleOptions session_options;
  session_options.scheduling.num_threads = 1;

  // References: one-shot analyses of the parsed subject texts, computed
  // once and checked against the generator's per-checker report counts
  // (re-parsed text renumbers lines, so counts are what can be matched).
  // Traced runs take the per-layer numbers of a cold analysis from here.
  std::vector<ServiceSubject> subjects = ServiceSubjects(args.seed);
  std::vector<LayerSample> cold_layers(subjects.size());
  {
    std::atomic<size_t> next{0};
    std::mutex mu;
    auto worker = [&] {
      for (size_t i = next++; i < subjects.size(); i = next++) {
        ServiceSubject& subject = subjects[i];
        Workload workload = grapple::GenerateWorkload(subject.config);
        subject.text = workload.program.ToString();
        Tracer::Scope parse(&tracer, "ir.parse");
        grapple::ParseResult parsed = grapple::ParseProgram(subject.text);
        double parse_ms = parse.End();
        if (!parsed.ok) {
          std::lock_guard<std::mutex> lock(mu);
          out->Flag("subject " + subject.name + " does not re-parse: " + parsed.error);
          continue;
        }
        Analysis run;
        if (args.trace) {
          run = AnalyzeTraced(std::move(parsed.program), session_options, specs, &tracer);
          run.layers.parse_ms = parse_ms;
        } else {
          run.session = std::make_unique<Grapple>(std::move(parsed.program), session_options);
          run.result = run.session->Check(specs);
        }
        run.session.reset();
        subject.reference = AllReportsJson(run.result);
        std::map<std::string, size_t> expected = ExpectedReportCounts(workload);
        std::lock_guard<std::mutex> lock(mu);
        cold_layers[i] = run.layers;
        for (const auto& checker : run.result.checkers) {
          std::set<int32_t> lines;
          for (const auto& report : checker.reports) {
            lines.insert(report.alloc_line);
          }
          if (lines.size() != expected[checker.checker]) {
            out->Flag("reference " + subject.name + " checker " + checker.checker + ": " +
                      std::to_string(lines.size()) + " reports, generator expects " +
                      std::to_string(expected[checker.checker]));
          }
        }
      }
    };
    // Traced runs analyse one subject at a time, so the process CPU time
    // behind support.runtime.cpu_util is that subject's alone.
    if (args.trace) {
      worker();
    } else {
      std::thread helper(worker);
      worker();
      helper.join();
    }
  }

  grapple::ServiceOptions service_options;
  service_options.port = 0;
  service_options.checker_slots = 2;
  service_options.worker_threads = 2;
  service_options.max_resident_sessions = 2 * kHotPerTenant + 4;
  service_options.session = session_options;

  // Set-up, repeated: generation + rendering, Start(), and building the hot
  // sessions (one cold request per tenant and hot subject, one at a time).
  // The last repetition's service is the one measured.
  std::vector<double> setup_s;
  std::unique_ptr<grapple::GrappleService> service;
  std::string error;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (service != nullptr) {
      service->Shutdown();
      service.reset();
    }
    Tracer::Scope setup_span(&tracer, "setup");
    auto t = Clock::now();
    std::vector<ServiceSubject> fresh = ServiceSubjects(args.seed);
    {
      Tracer::Scope span(&tracer, "setup.generate_render");
      for (size_t i = 0; i < fresh.size(); ++i) {
        fresh[i].text = grapple::GenerateWorkload(fresh[i].config).program.ToString();
        if (fresh[i].text != subjects[i].text) {
          out->Flag("generator is not deterministic for " + fresh[i].name);
        }
      }
    }
    service_options.work_root = args.run_dir + "/service-" + std::to_string(rep);
    service = std::make_unique<grapple::GrappleService>(service_options);
    {
      Tracer::Scope span(&tracer, "service.start");
      if (!service->Start(&error)) {
        std::fprintf(stderr, "service-mix: Start failed: %s\n", error.c_str());
        return 1;
      }
    }
    for (size_t c = 0; c < 2; ++c) {
      for (size_t h = 0; h < kHotPerTenant; ++h) {
        Tracer::Scope span(&tracer, "service.build_hot");
        HttpReply reply = PostCheck(service->port(), kTenants[c], subjects[h].text);
        Envelope env = ParseEnvelope(reply.body);
        if (reply.status != 200 || !env.parsed || env.warm ||
            env.reports != subjects[h].reference) {
          out->Flag("set-up: hot session " + subjects[h].name + " for " + kTenants[c] +
                    " status " + std::to_string(reply.status));
        }
      }
    }
    setup_s.push_back(SecondsSince(t));
  }
  grapple::ServiceStats before = service->Stats();
  ::sync();  // set-up's work dirs and their deletes settle before timing

  std::printf("workload service-mix seed %llu: hot [%s %s] x tenants [alpha beta], cold pool "
              "%zu x hadoop@0.2, %zu requests/pass, cold every %zu\n",
              static_cast<unsigned long long>(args.seed), subjects[0].name.c_str(),
              subjects[1].name.c_str(), kColdPool, kRequestsPerPass, kColdEvery);
  std::printf("options: budget=%llu shards=%zu witness=%s checker_slots=%zu "
              "worker_threads=%zu max_resident=%zu clients=1 (closed loop) trace=%d\n",
              static_cast<unsigned long long>(session_options.engine.memory_budget_bytes),
              session_options.scheduling.num_threads,
              WitnessName(session_options.observability.witness), service_options.checker_slots,
              service_options.worker_threads, service_options.max_resident_sessions,
              args.trace ? 1 : 0);

  // The fixed request script: the seed picks the cold phase and which hot
  // subject each tenant starts from. Requests alternate between the
  // tenants; cold requests alternate too, whatever their phase.
  std::mt19937_64 script_rng(SplitMix(args.seed ^ 0xc0ffee));
  const size_t cold_phase = script_rng() % kColdEvery;
  size_t hot_start[2];
  for (size_t c = 0; c < 2; ++c) {
    hot_start[c] = script_rng() % kHotPerTenant;
  }
  const size_t colds_per_pass = kRequestsPerPass / kColdEvery;

  std::vector<RequestRecord> records;
  std::vector<double> pass_wall_s, traced_warm_ms, untraced_warm_ms;
  uint64_t request_id = 1;
  size_t passes = std::max<size_t>(4, ScaledCount(args.seconds, kServicePassesPer30s));
  for (size_t pass = 0; pass < passes; ++pass) {
    bool traced = args.trace && pass % 2 == 0;
    tracer.set_enabled(traced);
    auto pass_start = Clock::now();
    size_t warm_index[2] = {hot_start[0], hot_start[1]};
    size_t cold_index = 0;
    for (size_t n = 0; n < kRequestsPerPass; ++n) {
      RequestRecord record;
      record.pass = pass;
      record.designated_warm = n % kColdEvery != cold_phase;
      size_t c = n % 2;
      const ServiceSubject* subject;
      std::string text;
      if (record.designated_warm) {
        record.subject = warm_index[c]++ % kHotPerTenant;
        subject = &subjects[record.subject];
        text = subject->text;
      } else {
        size_t slot = pass * colds_per_pass + cold_index++;
        c = slot % 2;
        record.subject = kHotPerTenant + slot % kColdPool;
        subject = &subjects[record.subject];
        text = subject->text + "// never-seen request: pass " + std::to_string(pass) +
               " cold " + std::to_string(slot) + "\n";
      }
      auto t = Clock::now();
      HttpReply reply;
      {
        Tracer::Scope span(&tracer, "service.request", request_id++);
        reply = PostCheck(service->port(), kTenants[c], text);
      }
      record.latency_ms = MsSince(t);
      Envelope env = ParseEnvelope(reply.body);
      record.queue_ms = env.queue_ms;
      record.check_ms = env.check_ms;
      bool ok = reply.status == 200 && env.parsed && env.reports == subject->reference &&
                env.warm == record.designated_warm;
      if (!ok) {
        out->Fail("pass " + std::to_string(pass) + " tenant " + kTenants[c] + " request " +
                  std::to_string(n) + " (" + subject->name +
                  (record.designated_warm ? ", warm" : ", cold") + "): status " +
                  std::to_string(reply.status) +
                  (env.parsed && env.warm != record.designated_warm
                       ? " served " + std::string(env.warm ? "warm" : "cold")
                       : "") +
                  (env.parsed && env.reports != subject->reference
                       ? " reports differ from the one-shot reference"
                       : ""));
      }
      records.push_back(record);
      if (record.designated_warm) {
        (traced ? traced_warm_ms : untraced_warm_ms).push_back(record.latency_ms);
      }
    }
    pass_wall_s.push_back(SecondsSince(pass_start));
    std::printf("pass %zu%s: wall %.3f s, %zu warm + %zu cold requests\n", pass,
                traced ? " (traced)" : "", pass_wall_s.back(), kRequestsPerPass - colds_per_pass,
                colds_per_pass);
  }
  tracer.set_enabled(args.trace);
  grapple::ServiceStats after = service->Stats();
  DirUsage usage = UsageOf(service->work_root());
  uint64_t session_checks = 2 * kHotPerTenant + records.size();
  out->Attempt(records.size());

  std::vector<double> warm_ms, cold_ms, queue_ms, check_ms, overhead_ms;
  std::vector<double> warm_first, warm_second;
  for (const auto& record : records) {
    if (record.designated_warm) {
      warm_ms.push_back(record.latency_ms);
      (record.pass < passes / 2 ? warm_first : warm_second).push_back(record.latency_ms);
    } else {
      cold_ms.push_back(record.latency_ms);
    }
    queue_ms.push_back(record.queue_ms);
    check_ms.push_back(record.check_ms);
    overhead_ms.push_back(record.latency_ms - record.queue_ms - record.check_ms);
  }
  uint64_t acquisitions = (after.warm_hits - before.warm_hits) +
                          (after.cold_misses - before.cold_misses) +
                          (after.bypasses - before.bypasses);
  std::printf("service: warm hits %llu, cold misses %llu, bypasses %llu, evictions %llu, "
              "errors %llu\n",
              static_cast<unsigned long long>(after.warm_hits - before.warm_hits),
              static_cast<unsigned long long>(after.cold_misses - before.cold_misses),
              static_cast<unsigned long long>(after.bypasses - before.bypasses),
              static_cast<unsigned long long>(after.evictions - before.evictions),
              static_cast<unsigned long long>(after.errors));
  std::printf("work root: %.2f MB in %llu files, %llu dirs after %llu session checks\n",
              static_cast<double>(usage.bytes) / 1e6,
              static_cast<unsigned long long>(usage.files),
              static_cast<unsigned long long>(usage.dirs),
              static_cast<unsigned long long>(session_checks));
  std::printf("warm_p50_ms first half %.3f, second half %.3f (%zu warm, %zu cold samples)\n",
              Median(warm_first), Median(warm_second), warm_ms.size(), cold_ms.size());
  for (size_t h = 0; h < kHotPerTenant; ++h) {
    std::vector<double> mine;
    for (const auto& record : records) {
      if (record.subject == h) {
        mine.push_back(record.latency_ms);
      }
    }
    std::printf("warm %s: p50 %.3f ms, p99 %.3f ms over %zu requests\n", subjects[h].name.c_str(),
                Percentile(mine, 50), Percentile(mine, 99), mine.size());
  }
  uint64_t expected_warm = passes * (kRequestsPerPass - colds_per_pass);
  if (after.warm_hits - before.warm_hits != expected_warm ||
      after.cold_misses - before.cold_misses != passes * colds_per_pass) {
    out->Flag("exact-repeat: service warm/cold counts differ from the fixed sequence");
  }

  if (!args.trace) {
    EmitEndToEnd(Median(pass_wall_s), Median(setup_s),
                 static_cast<double>(records.size()) / Sum(pass_wall_s), Median(warm_ms),
                 Median(cold_ms), static_cast<double>(usage.bytes) / 1e6, out);
  } else {
    // Layer numbers of the median cold-pool subject (by its frontend +
    // alias time), so they describe one cold request's work.
    std::vector<std::pair<double, size_t>> order;
    for (size_t i = kHotPerTenant; i < subjects.size(); ++i) {
      order.push_back({cold_layers[i].frontend_ms + cold_layers[i].alias_ms, i});
    }
    std::sort(order.begin(), order.end());
    LayerSample layers = cold_layers[order[order.size() / 2].second];
    ServiceLayers svc;
    svc.queue_ms = Percentile(queue_ms, 50);
    svc.check_ms = Percentile(check_ms, 50);
    svc.overhead_ms = Percentile(overhead_ms, 50);
    svc.warm_hit_ratio =
        acquisitions > 0
            ? static_cast<double>(after.warm_hits - before.warm_hits) / acquisitions
            : 0;
    svc.evictions = static_cast<double>(after.evictions - before.evictions);
    svc.errors = static_cast<double>(after.errors);
    svc.work_kb_per_check = static_cast<double>(usage.bytes) / 1024.0 / session_checks;
    double overhead = Median(traced_warm_ms) / Median(untraced_warm_ms) - 1;
    EmitLayerMetrics(layers, svc, overhead, out);
  }
  service->Shutdown();
  service.reset();
  return 0;
}

void PrintSelfTimes(const Tracer& tracer) {
  std::map<std::string, double> self = tracer.SelfTimeMs();
  std::printf("self time by span (ms):");
  for (const auto& [name, ms] : self) {
    std::printf(" %s=%.1f", name.c_str(), ms);
  }
  std::printf("\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args) ||
      (args.workload != "spill" && args.workload != "service-mix")) {
    std::fprintf(stderr,
                 "usage: grapple_perfbench --workload spill|service-mix --seed N "
                 "--seconds S --trace 0|1 --run-dir DIR\n");
    return 2;
  }
  std::string refused = RefusedEnvVariable();
  if (!refused.empty()) {
    std::fprintf(stderr, "grapple_perfbench: refusing to run with %s set; it changes the work "
                         "being measured\n", refused.c_str());
    return 2;
  }
  std::string trace_path = args.run_dir + "/trace-" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".json";
  args.run_dir += "/run-" + std::to_string(::getpid());
  fs::create_directories(args.run_dir);
  // Flush what earlier runs or the build left dirty, so their write-back
  // does not land inside this run's measurements.
  ::sync();
  // Sessions without a work_dir spill into a temp dir; keep those here too.
  ::setenv("TMPDIR", args.run_dir.c_str(), 1);
  Tracer tracer(args.trace);
  Results results;
  int rc = args.workload == "service-mix" ? RunServiceMix(args, tracer, &results)
                                          : RunSpill(args, tracer, &results);
  fs::remove_all(args.run_dir);
  ::sync();  // settle the deletes before the next run starts
  if (rc != 0) {
    return rc;
  }
  if (args.trace) {
    PrintSelfTimes(tracer);
    if (tracer.WriteChromeTrace(trace_path)) {
      std::printf("chrome trace: %s (%zu spans)\n", trace_path.c_str(), tracer.size());
    }
  }
  results.Print();
  return results.correct() ? 0 : 1;
}
