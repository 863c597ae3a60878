// Repeatable counters: a run's engine and oracle counters depend only on its
// input. A spilling zookeeper-shaped subject (many partitions, pairs of
// different partitions, splits) is analysed at 1, 2 and 4 join shards,
// twice each, and every engine_*/oracle_* counter that is not a time (_ns)
// must be equal across all six runs, in the alias phase and in each
// typestate phase. Reports and edge counts were already exact; this pins
// the work counters (solves, memo hits, unsat prunes) as well, which the
// bounded constraint cache used to make depend on how concurrent shards
// interleaved. And at every shard count each distinct missed pair is
// solved once per round: the oracle_solve_ns histogram holds exactly
// oracle_constraints_checked_total samples.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "src/checker/builtin_checkers.h"
#include "src/core/grapple.h"
#include "src/workload/workload.h"

namespace grapple {
namespace {

using PhaseCounters = std::map<std::string, std::map<std::string, uint64_t>>;

bool HasPrefix(const std::string& s, const char* prefix) { return s.rfind(prefix, 0) == 0; }

bool IsWorkCounter(const std::string& name) {
  bool ends_ns = name.size() >= 3 && name.compare(name.size() - 3, 3, "_ns") == 0;
  return (HasPrefix(name, "engine_") || HasPrefix(name, "oracle_")) && !ends_ns;
}

PhaseCounters RunCounters(size_t num_threads) {
  Workload workload = GenerateWorkload(ZooKeeperPreset(1.0));
  GrappleOptions options;
  options.engine.memory_budget_bytes = uint64_t{1} << 20;
  options.scheduling.num_threads = num_threads;
  Grapple grapple(std::move(workload.program), options);
  GrappleResult result = grapple.Check(AllBuiltinCheckers());
  EXPECT_GT(result.TotalReports(), 0u);
  PhaseCounters out;
  for (const auto& phase : result.report.phases) {
    auto solves = phase.metrics.histograms.find("oracle_solve_ns");
    EXPECT_EQ(solves == phase.metrics.histograms.end() ? 0 : solves->second.count,
              phase.metrics.CounterOr("oracle_constraints_checked_total"))
        << phase.name << " at " << num_threads << " shards";
    auto& counters = out[phase.name];
    for (const auto& [name, value] : phase.metrics.counters) {
      if (IsWorkCounter(name)) {
        counters[name] = value;
      }
    }
  }
  return out;
}

TEST(CounterDeterminismTest, WorkCountersRepeatAcrossShardCountsAndRuns) {
  PhaseCounters reference = RunCounters(1);
  ASSERT_TRUE(reference.count("alias"));
  ASSERT_GT(reference.size(), 1u);  // alias plus the typestate phases
  const auto& alias = reference.at("alias");
  EXPECT_GT(alias.at("engine_partition_splits_total"), 0u);  // the subject spills
  EXPECT_GT(alias.at("engine_pair_loads_total"), 1u);        // across partition pairs
  EXPECT_GT(alias.at("engine_unsat_pruned_total"), 0u);
  EXPECT_GT(alias.at("oracle_cache_hits_total"), 0u);
  for (size_t threads : {1, 2, 4}) {
    for (int repeat = 0; repeat < 2; ++repeat) {
      if (threads == 1 && repeat == 0) {
        continue;  // the reference run
      }
      SCOPED_TRACE("threads=" + std::to_string(threads) + " repeat=" + std::to_string(repeat));
      PhaseCounters run = RunCounters(threads);
      ASSERT_EQ(run.size(), reference.size());
      for (const auto& [phase, counters] : reference) {
        ASSERT_TRUE(run.count(phase)) << phase;
        for (const auto& [name, value] : counters) {
          EXPECT_EQ(run.at(phase)[name], value) << phase << " " << name;
        }
        EXPECT_EQ(run.at(phase).size(), counters.size()) << phase;
      }
    }
  }
}

}  // namespace
}  // namespace grapple
