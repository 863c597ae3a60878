// MetricsRegistry: concurrent counting, histogram semantics, gauge
// semantics, snapshot merging, and thread-local shard-cache safety across
// registry lifetimes.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "src/obs/metrics.h"
#include "src/support/task_runtime.h"

namespace grapple {
namespace obs {
namespace {

TEST(MetricsRegistryTest, CountersAccumulate) {
  MetricsRegistry registry;
  MetricId a = registry.Counter("a");
  MetricId b = registry.Counter("b");
  registry.Add(a);
  registry.Add(a, 4);
  registry.Add(b, 7);
  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.CounterOr("a"), 5u);
  EXPECT_EQ(snapshot.CounterOr("b"), 7u);
  EXPECT_EQ(snapshot.CounterOr("missing", 42), 42u);
}

TEST(MetricsRegistryTest, CounterIdIsStableAcrossReRegistration) {
  MetricsRegistry registry;
  MetricId first = registry.Counter("same");
  MetricId second = registry.Counter("same");
  EXPECT_EQ(first, second);
}

TEST(MetricsRegistryTest, ConcurrentAddsFromTaskRuntime) {
  MetricsRegistry registry;
  MetricId counter = registry.Counter("hits");
  MetricId hist = registry.Histogram("latency");
  constexpr size_t kPerItem = 16;
  constexpr size_t kItems = 2048;
  constexpr size_t kShards = 8;
  TaskRuntime runtime(kShards);
  TaskGroup group(&runtime);
  constexpr size_t kChunk = (kItems + kShards - 1) / kShards;
  for (size_t shard = 0; shard < kShards; ++shard) {
    size_t begin = shard * kChunk;
    size_t end = std::min(kItems, begin + kChunk);
    group.Submit(TaskLane::kForeground, /*affinity=*/0, [&, begin, end] {
      for (size_t i = begin; i < end; ++i) {
        for (size_t k = 0; k < kPerItem; ++k) {
          registry.Add(counter);
        }
        registry.Observe(hist, i + 1);
      }
    });
  }
  group.Wait();
  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.CounterOr("hits"), kItems * kPerItem);
  const HistogramSnapshot& h = snapshot.histograms.at("latency");
  EXPECT_EQ(h.count, kItems);
  EXPECT_EQ(h.min, 1u);
  EXPECT_EQ(h.max, kItems);
  EXPECT_EQ(h.sum, kItems * (kItems + 1) / 2);
}

TEST(MetricsRegistryTest, HistogramBucketsAndPercentiles) {
  MetricsRegistry registry;
  MetricId hist = registry.Histogram("h");
  // 10 observations of 1 (bucket 0) and one of 1024 (bucket 10).
  for (int i = 0; i < 10; ++i) {
    registry.Observe(hist, 1);
  }
  registry.Observe(hist, 1024);
  HistogramSnapshot h = registry.Snapshot().histograms.at("h");
  EXPECT_EQ(h.buckets[0], 10u);
  EXPECT_EQ(h.buckets[10], 1u);
  EXPECT_EQ(h.ApproxPercentile(50), 1u);       // median in bucket 0: upper bound 2^1-1
  EXPECT_EQ(h.ApproxPercentile(100), 2047u);   // last bucket's upper bound
  EXPECT_DOUBLE_EQ(h.Mean(), (10.0 + 1024.0) / 11.0);
}

TEST(MetricsRegistryTest, HistogramPercentileEdges) {
  // Empty histogram: every percentile is 0, including p0 and p100.
  HistogramSnapshot empty;
  EXPECT_EQ(empty.ApproxPercentile(0), 0u);
  EXPECT_EQ(empty.ApproxPercentile(50), 0u);
  EXPECT_EQ(empty.ApproxPercentile(100), 0u);

  MetricsRegistry registry;
  MetricId hist = registry.Histogram("h");

  // Single observation: every positive percentile collapses to its bucket's
  // upper bound. p0's rank of zero is satisfied by the (empty) first bucket,
  // so it degenerates to bucket 0's bound — not a useful query, but stable.
  registry.Observe(hist, 5);  // bucket 2 (values 4..7), upper bound 7
  HistogramSnapshot one = registry.Snapshot().histograms.at("h");
  EXPECT_EQ(one.ApproxPercentile(0), 1u);
  EXPECT_EQ(one.ApproxPercentile(50), 7u);
  EXPECT_EQ(one.ApproxPercentile(100), 7u);
  EXPECT_EQ(one.min, 5u);
  EXPECT_EQ(one.max, 5u);

  // Power-of-two boundaries land in the bucket they open: 2^k is the first
  // value of bucket k, and 2^k - 1 the last value of bucket k-1.
  MetricsRegistry reg2;
  MetricId h2 = reg2.Histogram("h2");
  reg2.Observe(h2, 0);     // bucket 0
  reg2.Observe(h2, 1);     // bucket 0
  reg2.Observe(h2, 2);     // bucket 1
  reg2.Observe(h2, 3);     // bucket 1
  reg2.Observe(h2, 4);     // bucket 2
  HistogramSnapshot two = reg2.Snapshot().histograms.at("h2");
  EXPECT_EQ(two.buckets[0], 2u);
  EXPECT_EQ(two.buckets[1], 2u);
  EXPECT_EQ(two.buckets[2], 1u);
  // Rank math at exact bucket edges: 40% of 5 = 2 observations, which bucket
  // 0 satisfies exactly; one observation more crosses into bucket 1.
  EXPECT_EQ(two.ApproxPercentile(40), 1u);  // bucket 0 upper bound 2^1-1
  EXPECT_EQ(two.ApproxPercentile(41), 3u);  // bucket 1 upper bound 2^2-1
  EXPECT_EQ(two.ApproxPercentile(80), 3u);
  EXPECT_EQ(two.ApproxPercentile(81), 7u);  // bucket 2 upper bound 2^3-1

  // The top bucket reports the saturating upper bound, not overflow.
  MetricsRegistry reg3;
  MetricId h3 = reg3.Histogram("h3");
  reg3.Observe(h3, UINT64_MAX);
  HistogramSnapshot top = reg3.Snapshot().histograms.at("h3");
  EXPECT_EQ(top.ApproxPercentile(100), UINT64_MAX);
  EXPECT_EQ(top.max, UINT64_MAX);
}

TEST(MetricsRegistryTest, GaugesSetAndMax) {
  MetricsRegistry registry;
  registry.SetGauge("level", 3);
  registry.SetGauge("level", 2);  // last write wins
  registry.MaxGauge("peak", 5);
  registry.MaxGauge("peak", 4);  // lower value ignored
  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_DOUBLE_EQ(snapshot.GaugeOr("level"), 2);
  EXPECT_DOUBLE_EQ(snapshot.GaugeOr("peak"), 5);
}

TEST(MetricsSnapshotTest, MergeSumsCountersAndMaxesGauges) {
  MetricsSnapshot a;
  a.counters["n"] = 3;
  a.gauges["peak"] = 4;
  MetricsSnapshot b;
  b.counters["n"] = 5;
  b.counters["only_b"] = 1;
  b.gauges["peak"] = 2;
  a.Merge(b);
  EXPECT_EQ(a.CounterOr("n"), 8u);
  EXPECT_EQ(a.CounterOr("only_b"), 1u);
  EXPECT_DOUBLE_EQ(a.GaugeOr("peak"), 4);
}

TEST(MetricsSnapshotTest, SecondsOfConvertsNanos) {
  MetricsSnapshot snapshot;
  snapshot.counters["t_ns"] = 1500000000;
  EXPECT_DOUBLE_EQ(snapshot.SecondsOf("t_ns"), 1.5);
}

// A thread's cached shard pointer must never be dereferenced after its
// registry died: destroy and recreate registries from the same thread (the
// allocator is likely to reuse the address) and keep counting.
TEST(MetricsRegistryTest, TlsCacheSurvivesRegistryChurn) {
  for (int round = 0; round < 64; ++round) {
    auto registry = std::make_unique<MetricsRegistry>();
    MetricId counter = registry->Counter("c");
    registry->Add(counter, 1 + static_cast<uint64_t>(round));
    EXPECT_EQ(registry->Snapshot().CounterOr("c"), 1u + static_cast<uint64_t>(round));
  }
}

TEST(MetricsRegistryTest, ManyRegistriesInterleaved) {
  // More live registries than TLS cache slots; each must still count
  // correctly (slow path re-registers evicted entries).
  constexpr size_t kRegistries = 12;
  std::vector<std::unique_ptr<MetricsRegistry>> registries;
  std::vector<MetricId> ids;
  for (size_t i = 0; i < kRegistries; ++i) {
    registries.push_back(std::make_unique<MetricsRegistry>());
    ids.push_back(registries.back()->Counter("c"));
  }
  for (int round = 0; round < 10; ++round) {
    for (size_t i = 0; i < kRegistries; ++i) {
      registries[i]->Add(ids[i]);
    }
  }
  for (size_t i = 0; i < kRegistries; ++i) {
    EXPECT_EQ(registries[i]->Snapshot().CounterOr("c"), 10u);
  }
}

TEST(MetricsSnapshotTest, ToJsonParses) {
  MetricsRegistry registry;
  registry.Add(registry.Counter("n"), 3);
  registry.Observe(registry.Histogram("h"), 7);
  registry.SetGauge("g", 1.5);
  std::string json = registry.Snapshot().ToJson();
  // Validated structurally in report_test; here just check it is non-empty
  // JSON-looking output with the three sections.
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

}  // namespace
}  // namespace obs
}  // namespace grapple
