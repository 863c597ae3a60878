// Micro-benchmarks (google-benchmark) for the engine's hot primitives and
// the design-choice ablations called out in DESIGN.md:
//   * interval merge/compact vs decode+solve cost,
//   * Fourier-Motzkin solving,
//   * exact merge memoization (memo hit vs miss),
//   * edge (de)serialization and partition I/O round trips.
#include <benchmark/benchmark.h>

#include <memory>

#include "src/baseline/explicit_oracle.h"
#include "src/cfg/call_graph.h"
#include "src/cfg/loop_unroll.h"
#include "src/graph/constraint_oracle.h"
#include "src/graph/partition_store.h"
#include "src/ir/parser.h"
#include "src/pathenc/constraint_decoder.h"
#include "src/support/rng.h"
#include "src/symexec/cfet_builder.h"

namespace grapple {
namespace {

// Shared fixture: a branchy two-method program and its ICFET.
struct MicroFixture {
  Program program;
  std::unique_ptr<CallGraph> call_graph;
  Icfet icfet;

  MicroFixture() {
    ParseResult parsed = ParseProgram(R"(
      method callee(int a, int b) {
        int r
        r = a + b
        if (r > 0) {
          r = r - 1
        }
        if (a < b) {
          r = r + 2
        }
        return r
      }
      method main(int x) {
        int y
        int z
        y = x + 3
        if (x >= 0) {
          z = callee(x, y)
        }
        if (y > 10) {
          z = 0
        }
        return
      }
    )");
    program = std::move(parsed.program);
    UnrollLoops(&program, 2);
    call_graph = std::make_unique<CallGraph>(program);
    icfet = BuildIcfet(program, *call_graph);
  }
};

MicroFixture& Fixture() {
  static MicroFixture fixture;
  return fixture;
}

PathEncoding InterprocEncoding() {
  MicroFixture& f = Fixture();
  MethodId main = *f.program.FindMethod("main");
  MethodId callee = *f.program.FindMethod("callee");
  PathEncoding enc = PathEncoding::Interval(main, 0, 2);
  enc = PathEncoding::Append(enc, PathEncoding::CallEdge(0));
  enc = PathEncoding::Append(enc, PathEncoding::Interval(callee, 0, 6));
  enc = PathEncoding::Append(enc, PathEncoding::RetEdge(0));
  enc = PathEncoding::Append(enc, PathEncoding::Interval(main, 2, 5));
  return enc;
}

void BM_PathEncodingAppend(benchmark::State& state) {
  PathEncoding a = PathEncoding::Interval(0, 0, 2);
  PathEncoding b = InterprocEncoding();
  for (auto _ : state) {
    benchmark::DoNotOptimize(PathEncoding::Append(a, b));
  }
}
BENCHMARK(BM_PathEncodingAppend);

void BM_PathEncodingCompact(benchmark::State& state) {
  PathEncoding enc = InterprocEncoding();
  for (auto _ : state) {
    benchmark::DoNotOptimize(enc.Compact());
  }
}
BENCHMARK(BM_PathEncodingCompact);

void BM_PathEncodingSerialize(benchmark::State& state) {
  PathEncoding enc = InterprocEncoding();
  std::vector<uint8_t> bytes;
  for (auto _ : state) {
    bytes.clear();
    enc.Serialize(&bytes);
    benchmark::DoNotOptimize(bytes);
  }
}
BENCHMARK(BM_PathEncodingSerialize);

void BM_PathDecode(benchmark::State& state) {
  PathEncoding enc = InterprocEncoding();
  PathDecoder decoder(&Fixture().icfet);
  for (auto _ : state) {
    benchmark::DoNotOptimize(decoder.Decode(enc));
  }
}
BENCHMARK(BM_PathDecode);

void BM_DecodeAndSolve(benchmark::State& state) {
  PathEncoding enc = InterprocEncoding();
  PathDecoder decoder(&Fixture().icfet);
  Solver solver;
  for (auto _ : state) {
    Constraint constraint = decoder.Decode(enc);
    benchmark::DoNotOptimize(solver.Solve(constraint));
  }
}
BENCHMARK(BM_DecodeAndSolve);

// Ablation: the memoized path (cache hit) vs full decode+solve. A hit is
// what a join shard pays for a pair merged before the round: one probe of
// the memo keyed by the two payload ids.
void BM_OracleCacheHit(benchmark::State& state) {
  IntervalOracle oracle(&Fixture().icfet);
  uint32_t a = oracle.Intern(oracle.BasePayload(PathEncoding::Interval(0, 0, 2)));
  uint32_t b = oracle.Intern(oracle.BasePayload(InterprocEncoding()));
  oracle.MergeAndCheck(a, b);
  oracle.BeginRound(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.Merge(0, a, b));
  }
  oracle.CommitRound();
}
BENCHMARK(BM_OracleCacheHit);

void BM_OracleNoCache(benchmark::State& state) {
  IntervalOracle::Options options;
  options.enable_cache = false;
  IntervalOracle oracle(&Fixture().icfet, options);
  uint32_t a = oracle.Intern(oracle.BasePayload(PathEncoding::Interval(0, 0, 2)));
  uint32_t b = oracle.Intern(oracle.BasePayload(InterprocEncoding()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.MergeAndCheck(a, b));
  }
}
BENCHMARK(BM_OracleNoCache);

// Ablation: the explicit-constraint codec's merge (Table 5's baseline).
void BM_ExplicitOracleMerge(benchmark::State& state) {
  ExplicitOracle::Options options;
  options.enable_cache = false;
  ExplicitOracle oracle(&Fixture().icfet, options);
  uint32_t a = oracle.Intern(oracle.BasePayload(PathEncoding::Interval(0, 0, 2)));
  uint32_t b = oracle.Intern(oracle.BasePayload(InterprocEncoding()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.MergeAndCheck(a, b));
  }
}
BENCHMARK(BM_ExplicitOracleMerge);

void BM_FourierMotzkin(benchmark::State& state) {
  // A dense random-but-fixed system over `n` variables.
  int64_t n = state.range(0);
  Rng rng(42);
  VarPool pool;
  std::vector<VarId> vars;
  for (int64_t i = 0; i < n; ++i) {
    vars.push_back(pool.Fresh());
  }
  Constraint constraint;
  for (int64_t i = 0; i < n * 2; ++i) {
    LinearExpr e;
    for (int64_t v = 0; v < n; ++v) {
      e = e.Add(LinearExpr::Term(vars[v], rng.Range(-2, 2)));
    }
    constraint.And(Atom::Compare(e, Cmp::kLe, LinearExpr::Constant(rng.Range(0, 10))));
  }
  Solver solver;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.Solve(constraint));
  }
}
BENCHMARK(BM_FourierMotzkin)->Arg(2)->Arg(4)->Arg(8);

void BM_PartitionRoundTrip(benchmark::State& state) {
  TempDir dir("micro-partition");
  PartitionStore store(dir.path());
  std::vector<EdgeRecord> edges;
  PathEncoding enc = InterprocEncoding();
  for (VertexId v = 0; v < 1000; ++v) {
    EdgeRecord edge;
    edge.src = v;
    edge.dst = v + 1;
    edge.label = 1;
    enc.Serialize(&edge.payload);
    edges.push_back(std::move(edge));
  }
  store.Initialize(edges, 1001, uint64_t{1} << 30);
  for (auto _ : state) {
    auto loaded = store.Load(0);
    benchmark::DoNotOptimize(loaded);
    store.Rewrite(0, loaded);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(store.Info(0).bytes) * 2);
}
BENCHMARK(BM_PartitionRoundTrip);

}  // namespace
}  // namespace grapple

BENCHMARK_MAIN();
