// Engine tests on a plain reachability grammar (path := edge | path edge)
// with hand-built ICFETs providing the constraints.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <thread>

#include "src/baseline/explicit_oracle.h"
#include "src/cfg/call_graph.h"
#include "src/cfg/loop_unroll.h"
#include "src/graph/engine.h"
#include "src/ir/parser.h"
#include "src/support/rng.h"
#include "src/symexec/cfet_builder.h"

namespace grapple {
namespace {

// A two-branch method whose CFET supplies feasible and infeasible intervals:
//   [0,6]: x >= 0 && x-1 > 0  (sat)
//   [0,4]: x < 0 && x+1 > 0   (unsat)
constexpr char kCondSource[] = R"(
  method m(int x) {
    int y
    y = x
    if (x >= 0) {
      y = x - 1
    } else {
      y = x + 1
    }
    if (y > 0) {
      y = 0
    }
    return
  }
)";

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() {
    ParseResult parsed = ParseProgram(kCondSource);
    EXPECT_TRUE(parsed.ok) << parsed.error;
    program_ = std::move(parsed.program);
    UnrollLoops(&program_, 2);
    call_graph_ = std::make_unique<CallGraph>(program_);
    icfet_ = BuildIcfet(program_, *call_graph_);
    edge_ = grammar_.Intern("edge");
    path_ = grammar_.Intern("path");
    grammar_.AddUnary(edge_, path_);
    grammar_.AddBinary(path_, edge_, path_);
  }

  std::set<std::pair<VertexId, VertexId>> RunAndCollectPaths(
      GraphEngine* engine, const std::vector<std::tuple<VertexId, VertexId, PathEncoding>>& edges,
      VertexId num_vertices) {
    for (const auto& [src, dst, enc] : edges) {
      engine->AddBaseEdge(src, dst, edge_, enc);
    }
    engine->Finalize(num_vertices);
    engine->Run();
    std::set<std::pair<VertexId, VertexId>> paths;
    engine->ForEachEdgeWithLabel(path_, [&](const EdgeRecord& e) {
      paths.insert({e.src, e.dst});
    });
    return paths;
  }

  Program program_;
  std::unique_ptr<CallGraph> call_graph_;
  Icfet icfet_;
  Grammar grammar_;
  Label edge_ = kNoLabel;
  Label path_ = kNoLabel;
};

TEST_F(EngineTest, TransitiveClosureChain) {
  TempDir dir("engine-chain");
  IntervalOracle oracle(&icfet_);
  EngineOptions options;
  options.work_dir = dir.path();
  GraphEngine engine(&grammar_, &oracle, options);
  PathEncoding trivial = PathEncoding::Empty();
  auto paths = RunAndCollectPaths(
      &engine, {{0, 1, trivial}, {1, 2, trivial}, {2, 3, trivial}}, 4);
  std::set<std::pair<VertexId, VertexId>> expected = {{0, 1}, {1, 2}, {2, 3},
                                                      {0, 2}, {1, 3}, {0, 3}};
  EXPECT_EQ(paths, expected);
  EXPECT_EQ(engine.Metrics().CounterOr("engine_base_edges_total"), 3u + 3u);  // edge + derived path labels
}

TEST_F(EngineTest, JoinStageCountersAreRecorded) {
  TempDir dir("engine-stages");
  IntervalOracle oracle(&icfet_);
  EngineOptions options;
  options.work_dir = dir.path();
  GraphEngine engine(&grammar_, &oracle, options);
  PathEncoding trivial = PathEncoding::Empty();
  RunAndCollectPaths(&engine, {{0, 1, trivial}, {1, 2, trivial}, {2, 3, trivial}}, 4);
  obs::MetricsSnapshot m = engine.Metrics();
  ASSERT_GT(m.CounterOr("engine_joins_attempted_total"), 0u);
  EXPECT_GT(m.CounterOr("engine_index_build_ns"), 0u);
  EXPECT_GT(m.CounterOr("engine_candidates_ns"), 0u);
  EXPECT_GT(m.CounterOr("engine_integrate_ns"), 0u);
}

// A pair whose loaded edges alone exceed the memory budget still reaches
// its local fixpoint: an empty frontier is complete whatever the resident
// size. (It used to be marked incomplete, so Run() re-picked the pair
// forever; max_seconds turns such a livelock into a timeout here.)
TEST_F(EngineTest, OverBudgetPairReachesItsFixpoint) {
  constexpr VertexId kChain = 24;
  std::vector<std::tuple<VertexId, VertexId, PathEncoding>> edges;
  for (VertexId v = 0; v + 1 < kChain; ++v) {
    edges.emplace_back(v, v + 1, PathEncoding::Empty());
  }
  std::set<std::pair<VertexId, VertexId>> expected;
  for (VertexId a = 0; a < kChain; ++a) {
    for (VertexId b = a + 1; b < kChain; ++b) {
      expected.insert({a, b});
    }
  }
  TempDir dir("engine-over-budget");
  IntervalOracle oracle(&icfet_);
  EngineOptions options;
  options.work_dir = dir.path();
  options.memory_budget_bytes = 16;  // vertex 0's paths alone outgrow it
  options.max_seconds = 10;
  GraphEngine engine(&grammar_, &oracle, options);
  EXPECT_EQ(RunAndCollectPaths(&engine, edges, kChain), expected);
  obs::MetricsSnapshot m = engine.Metrics();
  EXPECT_EQ(m.GaugeOr("engine_timed_out", -1), 0.0);
  EXPECT_GT(m.GaugeOr("engine_peak_resident_bytes"), 16.0);
}

// Pair progress survives a split and an early stop: a run whose only pair
// splits at write-back, and one whose only pair stops early over budget
// again and again, each run exactly the joins of the same graph in one
// in-memory partition and produce the same closure, payloads included.
// (Both used to redo their finished joins: a split cleared every pair's
// progress and an early stop erased its own.)
class PairProgressTest : public EngineTest {
 protected:
  using Closure = std::set<std::tuple<VertexId, VertexId, Label, std::vector<uint8_t>>>;

  Closure Run(const std::vector<std::tuple<VertexId, VertexId, PathEncoding>>& edges,
              VertexId num_vertices, uint64_t budget, obs::MetricsSnapshot* metrics) {
    TempDir dir("engine-progress");
    IntervalOracle oracle(&icfet_);
    EngineOptions options;
    options.work_dir = dir.path();
    options.memory_budget_bytes = budget;
    options.max_seconds = 10;
    GraphEngine engine(&grammar_, &oracle, options);
    RunAndCollectPaths(&engine, edges, num_vertices);
    Closure closure;
    engine.ForEachEdge([&](const EdgeRecord& e) {
      closure.insert({e.src, e.dst, e.label, e.payload});
    });
    *metrics = engine.Metrics();
    EXPECT_EQ(metrics->GaugeOr("engine_timed_out", -1), 0.0);
    return closure;
  }
};

TEST_F(PairProgressTest, SplitAtWriteBackRedoesNoJoin) {
  // A 24-vertex chain: its base edges fit one partition of budget/4, and
  // its closure outgrows twice that at write-back but never the budget
  // while resident.
  std::vector<std::tuple<VertexId, VertexId, PathEncoding>> edges;
  for (VertexId v = 0; v + 1 < 24; ++v) {
    edges.emplace_back(v, v + 1, PathEncoding::Empty());
  }
  obs::MetricsSnapshot in_memory;
  obs::MetricsSnapshot split;
  Closure reference = Run(edges, 24, uint64_t{64} << 20, &in_memory);
  Closure got = Run(edges, 24, 4096, &split);
  EXPECT_EQ(got, reference);
  EXPECT_GT(split.CounterOr("engine_partition_splits_total"), 0u);
  EXPECT_EQ(split.CounterOr("engine_pair_loads_total"), 1u);
  EXPECT_EQ(split.CounterOr("engine_joins_attempted_total"),
            in_memory.CounterOr("engine_joins_attempted_total"));
}

TEST_F(PairProgressTest, EarlyStopKeepsItsJoins) {
  // One vertex, so its partition cannot split: self-loops with distinct
  // satisfiable payloads whose compositions are new variants until the
  // (0, 0, path) triple widens. A 16-byte budget stops the pair after every
  // round that adds an edge.
  std::vector<std::tuple<VertexId, VertexId, PathEncoding>> edges;
  for (CfetNodeId k = 1; k <= 4; ++k) {
    edges.emplace_back(0, 0, PathEncoding::Interval(100 + k, 0, 0));
  }
  obs::MetricsSnapshot in_memory;
  obs::MetricsSnapshot stopped;
  Closure reference = Run(edges, 1, uint64_t{64} << 20, &in_memory);
  Closure got = Run(edges, 1, 16, &stopped);
  EXPECT_EQ(got, reference);
  EXPECT_EQ(in_memory.CounterOr("engine_pair_loads_total"), 1u);
  EXPECT_GT(stopped.CounterOr("engine_pair_loads_total"), 1u);
  EXPECT_EQ(stopped.CounterOr("engine_partition_splits_total"), 0u);
  EXPECT_EQ(stopped.CounterOr("engine_joins_attempted_total"),
            in_memory.CounterOr("engine_joins_attempted_total"));
}

TEST_F(EngineTest, UnsatisfiableCompositionIsPruned) {
  TempDir dir("engine-unsat");
  IntervalOracle oracle(&icfet_);
  EngineOptions options;
  options.work_dir = dir.path();
  GraphEngine engine(&grammar_, &oracle, options);
  // 0 -[x>=0 branch]-> 1 -[x<0 branch]-> 2: composing is infeasible.
  auto paths = RunAndCollectPaths(&engine,
                                  {{0, 1, PathEncoding::Interval(0, 0, 2)},
                                   {1, 2, PathEncoding::Interval(0, 0, 1)}},
                                  3);
  EXPECT_TRUE(paths.count({0, 1}));
  EXPECT_TRUE(paths.count({1, 2}));
  EXPECT_FALSE(paths.count({0, 2}));
  EXPECT_GT(engine.Metrics().CounterOr("engine_unsat_pruned_total"), 0u);
}

TEST_F(EngineTest, FeasibleCompositionSurvives) {
  TempDir dir("engine-sat");
  IntervalOracle oracle(&icfet_);
  EngineOptions options;
  options.work_dir = dir.path();
  GraphEngine engine(&grammar_, &oracle, options);
  // [0,2] (x>=0) then [2,6] (x-1>0): feasible, fuses to [0,6].
  auto paths = RunAndCollectPaths(&engine,
                                  {{0, 1, PathEncoding::Interval(0, 0, 2)},
                                   {1, 2, PathEncoding::Interval(0, 2, 6)}},
                                  3);
  EXPECT_TRUE(paths.count({0, 2}));
}

// Property: results are independent of the memory budget (number of
// partitions) and thread count.
struct EngineConfigCase {
  uint64_t budget;
  size_t threads;
};

class EngineConfigTest : public ::testing::TestWithParam<EngineConfigCase> {};

TEST_P(EngineConfigTest, ClosureIndependentOfBudgetAndThreads) {
  ParseResult parsed = ParseProgram(kCondSource);
  ASSERT_TRUE(parsed.ok);
  Program program = std::move(parsed.program);
  UnrollLoops(&program, 2);
  CallGraph call_graph(program);
  Icfet icfet = BuildIcfet(program, call_graph);
  Grammar grammar;
  Label edge = grammar.Intern("edge");
  Label path = grammar.Intern("path");
  grammar.AddUnary(edge, path);
  grammar.AddBinary(path, edge, path);

  // A ring + chords, all trivially-true constraints, 64 vertices.
  std::vector<std::tuple<VertexId, VertexId>> base;
  for (VertexId v = 0; v < 64; ++v) {
    base.emplace_back(v, (v + 1) % 64);
    if (v % 7 == 0) {
      base.emplace_back(v, (v + 13) % 64);
    }
  }

  auto run = [&](uint64_t budget, size_t threads) {
    TempDir dir("engine-config");
    IntervalOracle oracle(&icfet);
    EngineOptions options;
    options.work_dir = dir.path();
    options.memory_budget_bytes = budget;
    options.num_threads = threads;
    GraphEngine engine(&grammar, &oracle, options);
    for (const auto& [src, dst] : base) {
      engine.AddBaseEdge(src, dst, edge, PathEncoding::Empty());
    }
    engine.Finalize(64);
    engine.Run();
    std::set<std::tuple<VertexId, VertexId, Label>> result;
    engine.ForEachEdge([&](const EdgeRecord& e) {
      result.insert({e.src, e.dst, e.label});
    });
    return result;
  };

  auto reference = run(uint64_t{64} << 20, 1);
  auto got = run(GetParam().budget, GetParam().threads);
  EXPECT_EQ(got, reference);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, EngineConfigTest,
    ::testing::Values(EngineConfigCase{4 << 10, 1},   // many tiny partitions
                      EngineConfigCase{16 << 10, 1},  // several partitions
                      EngineConfigCase{64 << 20, 2},  // parallel join
                      EngineConfigCase{8 << 10, 4}    // spill + parallel
                      ));

TEST_F(EngineTest, SmallBudgetForcesMultiplePartitions) {
  TempDir dir("engine-split");
  IntervalOracle oracle(&icfet_);
  EngineOptions options;
  options.work_dir = dir.path();
  options.memory_budget_bytes = 2 << 10;
  GraphEngine engine(&grammar_, &oracle, options);
  std::vector<std::tuple<VertexId, VertexId, PathEncoding>> edges;
  for (VertexId v = 0; v < 100; ++v) {
    edges.emplace_back(v, v + 1, PathEncoding::Empty());
  }
  auto paths = RunAndCollectPaths(&engine, edges, 101);
  EXPECT_GT(engine.NumPartitions(), 1u);
  // Full chain reachability: 101*100/2 pairs.
  EXPECT_EQ(paths.size(), 101u * 100u / 2u);
}

TEST_F(EngineTest, VariantCapWidensTriples) {
  TempDir dir("engine-widen");
  IntervalOracle oracle(&icfet_);
  EngineOptions options;
  options.work_dir = dir.path();
  options.max_variants_per_triple = 2;
  GraphEngine engine(&grammar_, &oracle, options);
  // Many parallel 0 -> k -> 99 two-hop routes with distinct encodings: the
  // (0, 99, path) triple exceeds the cap and gets widened, but reachability
  // is preserved.
  std::vector<std::tuple<VertexId, VertexId, PathEncoding>> edges;
  for (VertexId k = 1; k <= 8; ++k) {
    // Distinct (nonexistent-method) intervals: each decodes to an opaque,
    // satisfiable constraint but yields a distinct payload variant.
    edges.emplace_back(0, k, PathEncoding::Interval(100 + k, 0, 0));
    edges.emplace_back(k, 99, PathEncoding::Interval(0, 0, 0));
  }
  auto paths = RunAndCollectPaths(&engine, edges, 100);
  EXPECT_TRUE(paths.count({0, 99}));
  EXPECT_GT(engine.Metrics().CounterOr("engine_widened_triples_total"), 0u);
}

TEST_F(EngineTest, CacheHitsOnRepeatedEncodings) {
  TempDir dir("engine-cache");
  IntervalOracle::Options oracle_options;
  oracle_options.enable_cache = true;
  IntervalOracle oracle(&icfet_, oracle_options);
  EngineOptions options;
  options.work_dir = dir.path();
  GraphEngine engine(&grammar_, &oracle, options);
  std::vector<std::tuple<VertexId, VertexId, PathEncoding>> edges;
  // Many chains sharing the same interval encodings.
  for (VertexId v = 0; v < 30; v += 3) {
    edges.emplace_back(v, v + 1, PathEncoding::Interval(0, 0, 2));
    edges.emplace_back(v + 1, v + 2, PathEncoding::Interval(0, 2, 6));
  }
  RunAndCollectPaths(&engine, edges, 31);
  EXPECT_GT(oracle.Metrics().CounterOr("oracle_cache_hits_total"), 0u);
}

// A randomized payload set over kCondSource's CFET: intervals (sat and
// unsat), calls/returns, opaque items, their concatenations, and exact
// byte duplicates, so the pair sweep below repeats pairs by content.
std::vector<std::vector<uint8_t>> RandomPayloads(ConstraintOracle* oracle, uint64_t seed) {
  Rng rng(seed);
  std::vector<PathEncoding> items;
  for (int i = 0; i < 6; ++i) {
    CfetNodeId start = static_cast<CfetNodeId>(rng.Below(4));
    items.push_back(PathEncoding::Interval(0, start, start + 1 + rng.Below(4)));
  }
  items.push_back(PathEncoding::CallEdge(0));
  items.push_back(PathEncoding::RetEdge(0));
  items.push_back(PathEncoding::Opaque());
  items.push_back(PathEncoding::Empty());
  std::vector<std::vector<uint8_t>> payloads;
  for (const auto& item : items) {
    payloads.push_back(oracle->BasePayload(item));
  }
  for (int i = 0; i < 8; ++i) {
    const auto& a = items[rng.Below(items.size())];
    const auto& b = items[rng.Below(items.size())];
    payloads.push_back(oracle->BasePayload(PathEncoding::Append(a, b, 64)));
  }
  for (int i = 0; i < 4; ++i) {
    payloads.push_back(payloads[rng.Below(payloads.size())]);
  }
  return payloads;
}

std::vector<uint8_t> BytesOf(const ConstraintOracle& oracle, uint32_t id) {
  PayloadBytes bytes = oracle.Bytes(id);
  return std::vector<uint8_t>(bytes.data, bytes.data + bytes.size);
}

// The memo is exact: with it on and off, every merge over every pair of a
// randomized payload set (each pair twice, in shuffled order) yields the
// same bytes and verdict, and the memoized oracle solves each distinct
// pair exactly once.
template <typename Oracle>
void ExpectMemoIsExact(const Icfet* icfet) {
  typename Oracle::Options memo_options;
  memo_options.enable_cache = true;
  typename Oracle::Options plain_options;
  plain_options.enable_cache = false;
  Oracle memo(icfet, memo_options);
  Oracle plain(icfet, plain_options);
  std::vector<std::vector<uint8_t>> payloads = RandomPayloads(&memo, 16);
  std::vector<uint32_t> memo_ids;
  std::vector<uint32_t> plain_ids;
  for (const auto& payload : payloads) {
    memo_ids.push_back(memo.Intern(payload));
    plain_ids.push_back(plain.Intern(payload));
  }
  std::vector<std::pair<size_t, size_t>> order;
  for (size_t i = 0; i < payloads.size(); ++i) {
    for (size_t j = 0; j < payloads.size(); ++j) {
      order.emplace_back(i, j);
      order.emplace_back(i, j);
    }
  }
  Rng rng(17);
  for (size_t k = order.size(); k > 1; --k) {
    std::swap(order[k - 1], order[rng.Below(k)]);
  }
  std::set<std::pair<std::vector<uint8_t>, std::vector<uint8_t>>> distinct;
  size_t unsat = 0;
  for (const auto& [i, j] : order) {
    uint32_t with_memo = memo.MergeAndCheck(memo_ids[i], memo_ids[j]);
    uint32_t without = plain.MergeAndCheck(plain_ids[i], plain_ids[j]);
    ASSERT_EQ(with_memo == ConstraintOracle::kUnsat, without == ConstraintOracle::kUnsat)
        << "pair " << i << "," << j;
    if (with_memo != ConstraintOracle::kUnsat) {
      ASSERT_EQ(BytesOf(memo, with_memo), BytesOf(plain, without)) << "pair " << i << "," << j;
    }
    distinct.insert({payloads[i], payloads[j]});
    unsat += with_memo == ConstraintOracle::kUnsat ? 1 : 0;
  }
  EXPECT_GT(unsat, 0u);
  EXPECT_LT(unsat, order.size());
  obs::MetricsSnapshot m = memo.Metrics();
  EXPECT_LT(distinct.size(), order.size() / 2);  // byte duplicates collapse
  EXPECT_EQ(m.CounterOr("oracle_merges_total"), order.size());
  EXPECT_EQ(m.CounterOr("oracle_constraints_checked_total"), distinct.size());
  EXPECT_EQ(m.CounterOr("oracle_cache_hits_total"), order.size() - distinct.size());
  EXPECT_EQ(plain.Metrics().CounterOr("oracle_constraints_checked_total"), order.size());
  EXPECT_EQ(plain.Metrics().CounterOr("oracle_cache_hits_total"), 0u);
}

TEST_F(EngineTest, IntervalOracleMemoIsExact) { ExpectMemoIsExact<IntervalOracle>(&icfet_); }

TEST_F(EngineTest, ExplicitOracleMemoIsExact) { ExpectMemoIsExact<ExplicitOracle>(&icfet_); }

// Join rounds: four shards probe concurrently, each sweeping every pair of
// the payload set (so every pair misses in every shard in the first round).
// The round's solve step, split over four threads, solves each distinct
// pair once: the oracle_solve_ns histogram holds one sample per checked
// pair. The shards' outcomes agree with a sequential oracle byte for byte,
// and the second round is all hits with nothing to solve.
TEST_F(EngineTest, ShardedRoundsSolveEachDistinctPairOnce) {
  IntervalOracle sharded(&icfet_);
  IntervalOracle sequential(&icfet_);
  std::vector<std::vector<uint8_t>> payloads = RandomPayloads(&sharded, 23);
  std::vector<uint32_t> ids;
  std::vector<uint32_t> seq_ids;
  for (const auto& payload : payloads) {
    ids.push_back(sharded.Intern(payload));
    seq_ids.push_back(sequential.Intern(payload));
  }
  const size_t n = payloads.size();
  constexpr size_t kShards = 4;
  std::set<std::pair<uint32_t, uint32_t>> distinct;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      distinct.insert({ids[i], ids[j]});
    }
  }
  auto in_parallel = [&](const std::function<void(size_t)>& fn) {
    std::vector<std::thread> threads;
    for (size_t shard = 0; shard < kShards; ++shard) {
      threads.emplace_back(fn, shard);
    }
    for (auto& thread : threads) {
      thread.join();
    }
  };
  for (int round = 0; round < 2; ++round) {
    sharded.BeginRound(kShards);
    std::vector<std::vector<uint32_t>> tokens(kShards);
    in_parallel([&](size_t shard) {
      for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < n; ++j) {
          tokens[shard].push_back(sharded.Merge(shard, ids[i], ids[j]));
        }
      }
    });
    size_t misses = sharded.CollectMisses();
    EXPECT_EQ(misses, round == 0 ? distinct.size() : 0u);
    size_t per_shard = (misses + kShards - 1) / kShards;
    in_parallel([&](size_t shard) {
      sharded.SolveMisses(shard, std::min(misses, shard * per_shard),
                          std::min(misses, (shard + 1) * per_shard));
    });
    uint64_t unsat_pending = sharded.CommitRound();
    uint64_t unsat_joins = 0;
    for (size_t shard = 0; shard < kShards; ++shard) {
      size_t k = 0;
      for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < n; ++j, ++k) {
          uint32_t token = tokens[shard][k];
          EXPECT_EQ(ConstraintOracle::IsPending(token), round == 0);
          uint32_t outcome = sharded.Resolve(shard, token);
          uint32_t expected = sequential.MergeAndCheck(seq_ids[i], seq_ids[j]);
          ASSERT_EQ(outcome == ConstraintOracle::kUnsat, expected == ConstraintOracle::kUnsat);
          if (outcome == ConstraintOracle::kUnsat) {
            ++unsat_joins;
          } else {
            ASSERT_EQ(BytesOf(sharded, outcome), BytesOf(sequential, expected));
          }
        }
      }
    }
    // Every unsat Merge of the first round was a pending miss.
    EXPECT_EQ(unsat_pending, round == 0 ? unsat_joins : 0u);
    EXPECT_GT(unsat_joins, 0u);
    obs::MetricsSnapshot m = sharded.Metrics();
    uint64_t merges = (round + 1) * kShards * n * n;
    EXPECT_EQ(m.CounterOr("oracle_merges_total"), merges);
    EXPECT_EQ(m.CounterOr("oracle_constraints_checked_total"), distinct.size());
    EXPECT_EQ(m.histograms.at("oracle_solve_ns").count, distinct.size());
    EXPECT_EQ(m.CounterOr("oracle_cache_hits_total"), merges - distinct.size());
    EXPECT_EQ(m.CounterOr("oracle_unsat_total"),
              sequential.Metrics().CounterOr("oracle_unsat_total"));
  }
}

TEST_F(EngineTest, MirrorEdgesMaterialized) {
  Grammar grammar;
  Label fwd = grammar.Intern("fwd");
  Label bwd = grammar.Intern("bwd");
  grammar.SetMirror(fwd, bwd);
  TempDir dir("engine-mirror");
  IntervalOracle oracle(&icfet_);
  EngineOptions options;
  options.work_dir = dir.path();
  GraphEngine engine(&grammar, &oracle, options);
  engine.AddBaseEdge(3, 8, fwd, PathEncoding::Empty());
  engine.Finalize(10);
  engine.Run();
  bool saw_mirror = false;
  engine.ForEachEdgeWithLabel(bwd, [&](const EdgeRecord& e) {
    saw_mirror = e.src == 8 && e.dst == 3;
  });
  EXPECT_TRUE(saw_mirror);
}

}  // namespace
}  // namespace grapple
