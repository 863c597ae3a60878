#include "src/obs/metrics.h"

#include <algorithm>
#include <bit>

#include "src/obs/json.h"
#include "src/support/logging.h"

namespace grapple {
namespace obs {

namespace {

// Monotonic id source making (address, generation) pairs unique for the
// lifetime of the process, so thread-local shard caches can never confuse a
// dead registry with a new one allocated at the same address.
std::atomic<uint64_t> g_registry_generation{1};

size_t BucketOf(uint64_t value) {
  // floor(log2(value)) with 0 -> bucket 0; clamped to the last bucket.
  if (value == 0) {
    return 0;
  }
  size_t bucket = static_cast<size_t>(std::bit_width(value)) - 1;
  return std::min(bucket, kHistogramBuckets - 1);
}

void AtomicMin(std::atomic<uint64_t>* slot, uint64_t value) {
  uint64_t cur = slot->load(std::memory_order_relaxed);
  while (value < cur && !slot->compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<uint64_t>* slot, uint64_t value) {
  uint64_t cur = slot->load(std::memory_order_relaxed);
  while (value > cur && !slot->compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

uint64_t HistogramSnapshot::ApproxPercentile(double p) const {
  if (count == 0) {
    return 0;
  }
  double rank = p / 100.0 * static_cast<double>(count);
  uint64_t seen = 0;
  for (size_t b = 0; b < kHistogramBuckets; ++b) {
    seen += buckets[b];
    if (static_cast<double>(seen) >= rank) {
      // Upper bound of bucket b is 2^(b+1) - 1.
      return b + 1 >= 64 ? UINT64_MAX : (uint64_t{1} << (b + 1)) - 1;
    }
  }
  return max;
}

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  if (other.count == 0) {
    return;
  }
  if (count == 0) {
    min = other.min;
    max = other.max;
  } else {
    min = std::min(min, other.min);
    max = std::max(max, other.max);
  }
  count += other.count;
  sum += other.sum;
  for (size_t b = 0; b < kHistogramBuckets; ++b) {
    buckets[b] += other.buckets[b];
  }
}

uint64_t MetricsSnapshot::CounterOr(const std::string& name, uint64_t default_value) const {
  auto it = counters.find(name);
  return it == counters.end() ? default_value : it->second;
}

double MetricsSnapshot::GaugeOr(const std::string& name, double default_value) const {
  auto it = gauges.find(name);
  return it == gauges.end() ? default_value : it->second;
}

double MetricsSnapshot::SecondsOf(const std::string& name) const {
  return static_cast<double>(CounterOr(name)) * 1e-9;
}

void MetricsSnapshot::Merge(const MetricsSnapshot& other) {
  for (const auto& [name, value] : other.counters) {
    counters[name] += value;
  }
  for (const auto& [name, value] : other.gauges) {
    auto it = gauges.find(name);
    if (it == gauges.end() || value > it->second) {
      gauges[name] = value;
    }
  }
  for (const auto& [name, hist] : other.histograms) {
    histograms[name].Merge(hist);
  }
}

std::string MetricsSnapshot::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("counters").BeginObject();
  for (const auto& [name, value] : counters) {
    w.Key(name).UInt(value);
  }
  w.EndObject();
  w.Key("gauges").BeginObject();
  for (const auto& [name, value] : gauges) {
    w.Key(name).Double(value);
  }
  w.EndObject();
  w.Key("histograms").BeginObject();
  for (const auto& [name, hist] : histograms) {
    w.Key(name).BeginObject();
    w.Key("count").UInt(hist.count);
    w.Key("sum").UInt(hist.sum);
    w.Key("min").UInt(hist.min);
    w.Key("max").UInt(hist.max);
    w.Key("mean").Double(hist.Mean());
    w.Key("p50").UInt(hist.ApproxPercentile(50));
    w.Key("p99").UInt(hist.ApproxPercentile(99));
    // Sparse bucket encoding: [log2_lower_bound, count] pairs.
    w.Key("buckets").BeginArray();
    for (size_t b = 0; b < kHistogramBuckets; ++b) {
      if (hist.buckets[b] != 0) {
        w.BeginArray().UInt(b).UInt(hist.buckets[b]).EndArray();
      }
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return w.Take();
}

struct MetricsRegistry::Shard {
  std::array<std::atomic<uint64_t>, kMaxCounters> counters{};

  struct Hist {
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> min{UINT64_MAX};
    std::atomic<uint64_t> max{0};
    std::array<std::atomic<uint64_t>, kHistogramBuckets> buckets{};
  };
  std::array<Hist, kMaxHistograms> hists{};
};

namespace {

// Thread-local shard cache. An entry is valid only while both the registry
// address and its generation match, so destroyed registries are never
// dereferenced. Bounded: stale entries are evicted round-robin.
struct TlsShardCache {
  struct Entry {
    const void* registry = nullptr;
    uint64_t generation = 0;
    void* shard = nullptr;
  };
  std::array<Entry, 8> entries{};
  size_t next_evict = 0;
};

thread_local TlsShardCache t_shard_cache;

}  // namespace

MetricsRegistry::MetricsRegistry()
    : generation_(g_registry_generation.fetch_add(1, std::memory_order_relaxed)) {}

MetricsRegistry::~MetricsRegistry() = default;

MetricId MetricsRegistry::Counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < counter_names_.size(); ++i) {
    if (counter_names_[i] == name) {
      return static_cast<MetricId>(i);
    }
  }
  GRAPPLE_CHECK(counter_names_.size() < kMaxCounters) << "counter capacity exceeded: " << name;
  counter_names_.push_back(name);
  return static_cast<MetricId>(counter_names_.size() - 1);
}

MetricId MetricsRegistry::Histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < histogram_names_.size(); ++i) {
    if (histogram_names_[i] == name) {
      return static_cast<MetricId>(i);
    }
  }
  GRAPPLE_CHECK(histogram_names_.size() < kMaxHistograms)
      << "histogram capacity exceeded: " << name;
  histogram_names_.push_back(name);
  return static_cast<MetricId>(histogram_names_.size() - 1);
}

MetricsRegistry::Shard* MetricsRegistry::LocalShard() const {
  TlsShardCache& cache = t_shard_cache;
  for (const auto& entry : cache.entries) {
    if (entry.registry == this && entry.generation == generation_) {
      return static_cast<Shard*>(entry.shard);
    }
  }
  // Slow path: register a shard for this thread.
  Shard* shard = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shards_.push_back(std::make_unique<Shard>());
    shard = shards_.back().get();
  }
  TlsShardCache::Entry& slot = cache.entries[cache.next_evict];
  cache.next_evict = (cache.next_evict + 1) % cache.entries.size();
  slot.registry = this;
  slot.generation = generation_;
  slot.shard = shard;
  return shard;
}

void MetricsRegistry::Add(MetricId id, uint64_t delta) {
  if (id >= kMaxCounters) {
    return;
  }
  LocalShard()->counters[id].fetch_add(delta, std::memory_order_relaxed);
}

void MetricsRegistry::Observe(MetricId id, uint64_t value) {
  if (id >= kMaxHistograms) {
    return;
  }
  Shard::Hist& hist = LocalShard()->hists[id];
  hist.count.fetch_add(1, std::memory_order_relaxed);
  hist.sum.fetch_add(value, std::memory_order_relaxed);
  AtomicMin(&hist.min, value);
  AtomicMax(&hist.max, value);
  hist.buckets[BucketOf(value)].fetch_add(1, std::memory_order_relaxed);
}

void MetricsRegistry::SetGauge(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  gauges_[name] = value;
}

void MetricsRegistry::MaxGauge(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end() || value > it->second) {
    gauges_[name] = value;
  }
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snapshot;
  for (size_t i = 0; i < counter_names_.size(); ++i) {
    uint64_t total = 0;
    for (const auto& shard : shards_) {
      total += shard->counters[i].load(std::memory_order_relaxed);
    }
    snapshot.counters[counter_names_[i]] = total;
  }
  for (size_t i = 0; i < histogram_names_.size(); ++i) {
    HistogramSnapshot hist;
    for (const auto& shard : shards_) {
      const Shard::Hist& h = shard->hists[i];
      uint64_t count = h.count.load(std::memory_order_relaxed);
      if (count == 0) {
        continue;
      }
      HistogramSnapshot part;
      part.count = count;
      part.sum = h.sum.load(std::memory_order_relaxed);
      part.min = h.min.load(std::memory_order_relaxed);
      part.max = h.max.load(std::memory_order_relaxed);
      for (size_t b = 0; b < kHistogramBuckets; ++b) {
        part.buckets[b] = h.buckets[b].load(std::memory_order_relaxed);
      }
      hist.Merge(part);
    }
    snapshot.histograms[histogram_names_[i]] = hist;
  }
  snapshot.gauges = gauges_;
  return snapshot;
}

}  // namespace obs
}  // namespace grapple
