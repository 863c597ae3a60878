// Lock-cheap metrics registry (counters, gauges, log-scale histograms).
//
// Design: every registry keeps one fixed-capacity shard of atomic slots per
// reporting thread. Registration (name -> id) takes a mutex; the hot path —
// Add()/Observe() with a pre-registered id — touches only the calling
// thread's shard with relaxed atomics, so worker threads never contend on a
// lock or on each other's cache lines. Snapshot() aggregates all shards.
//
// Conventions:
//   * counter names ending in "_ns" hold nanoseconds; MetricsSnapshot
//     exposes them as seconds via SecondsOf().
//   * gauges are doubles with last-write or max semantics (cold path).
//   * histograms bucket by floor(log2(value)), 64 buckets, and track
//     count/sum/min/max exactly.
#ifndef GRAPPLE_SRC_OBS_METRICS_H_
#define GRAPPLE_SRC_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace grapple {
namespace obs {

using MetricId = uint32_t;
inline constexpr MetricId kInvalidMetric = UINT32_MAX;

// Fixed shard capacities. Registration past the cap fails a check — bump
// these if a subsystem ever needs more.
inline constexpr size_t kMaxCounters = 192;
inline constexpr size_t kMaxHistograms = 24;
inline constexpr size_t kHistogramBuckets = 64;

struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;
  uint64_t max = 0;
  std::array<uint64_t, kHistogramBuckets> buckets{};

  double Mean() const { return count > 0 ? static_cast<double>(sum) / static_cast<double>(count) : 0.0; }
  // Approximate percentile (0..100): upper bound of the bucket containing
  // the p-th observation.
  uint64_t ApproxPercentile(double p) const;
  void Merge(const HistogramSnapshot& other);
};

// A point-in-time aggregation of a registry (or a merge of several). This is
// the single structure every human-readable table and JSON report renders
// from.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  uint64_t CounterOr(const std::string& name, uint64_t default_value = 0) const;
  double GaugeOr(const std::string& name, double default_value = 0) const;
  // Counter `name` interpreted as nanoseconds, in seconds.
  double SecondsOf(const std::string& name) const;

  // Sums counters and histograms; gauges take the max (merged snapshots come
  // from disjoint or same-meaning sources, where max is the useful answer
  // for peaks and last-writes alike).
  void Merge(const MetricsSnapshot& other);

  // JSON object: {"counters":{...},"gauges":{...},"histograms":{...}}.
  std::string ToJson() const;
};

class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Registers (or looks up) a metric by name. Safe from any thread; takes
  // the registry mutex. Call once at setup and keep the id.
  MetricId Counter(const std::string& name);
  MetricId Histogram(const std::string& name);

  // Hot path: thread-sharded relaxed add / observe.
  void Add(MetricId id, uint64_t delta = 1);
  void AddNanos(MetricId id, uint64_t nanos) { Add(id, nanos); }
  void Observe(MetricId id, uint64_t value);

  // Gauges (cold path, mutex-guarded).
  void SetGauge(const std::string& name, double value);
  void MaxGauge(const std::string& name, double value);

  // Aggregates every thread shard. Concurrent Adds may or may not be
  // included (relaxed); totals are exact once writers have quiesced.
  MetricsSnapshot Snapshot() const;

 private:
  struct Shard;

  Shard* LocalShard() const;

  const uint64_t generation_;  // process-unique, for TLS cache validation
  mutable std::mutex mu_;
  std::vector<std::string> counter_names_;
  std::vector<std::string> histogram_names_;
  std::map<std::string, double> gauges_;
  mutable std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace obs
}  // namespace grapple

#endif  // GRAPPLE_SRC_OBS_METRICS_H_
