// Partition I/O: block codec round trips, prefetch/write-behind semantics,
// and — the load-bearing guarantee — byte-identical files and results with
// background I/O on and off.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <set>

#include "src/cfg/call_graph.h"
#include "src/cfg/loop_unroll.h"
#include "src/checker/builtin_checkers.h"
#include "src/checker/report_json.h"
#include "src/core/grapple.h"
#include "src/graph/engine.h"
#include "src/graph/partition_codec.h"
#include "src/graph/partition_store.h"
#include "src/ir/parser.h"
#include "src/support/byte_io.h"
#include "src/symexec/cfet_builder.h"

namespace grapple {
namespace {

EdgeRecord MakeEdge(VertexId src, VertexId dst, Label label, size_t payload_size = 4) {
  EdgeRecord edge;
  edge.src = src;
  edge.dst = dst;
  edge.label = label;
  edge.payload.assign(payload_size, static_cast<uint8_t>(src * 7 + dst));
  return edge;
}

bool SameEdges(const std::vector<EdgeRecord>& a, const std::vector<EdgeRecord>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].src != b[i].src || a[i].dst != b[i].dst || a[i].label != b[i].label ||
        a[i].payload != b[i].payload) {
      return false;
    }
  }
  return true;
}

TEST(IoPipelineTest, BlockCodecRoundTrip) {
  std::vector<EdgeRecord> edges;
  for (VertexId v = 0; v < 200; ++v) {
    // Heavy payload sharing (every widened triple carries the same payload
    // in production) plus a few unique ones.
    edges.push_back(MakeEdge(v, v + 3, 1 + v % 4, v % 5 == 0 ? 24 : 4));
  }
  std::vector<uint8_t> file;
  AppendBlockFileHeader(&file);
  AppendEdgeBlock(edges, &file);
  // Dedup + deltas must actually shrink the block below the layout charge.
  EXPECT_LT(file.size(), LayoutChargeBytes(edges));

  std::vector<EdgeRecord> decoded;
  PartitionDecodeStatus status = DecodePartitionBytes("test.edges", file, &decoded);
  ASSERT_TRUE(status.ok) << status.error;
  EXPECT_TRUE(SameEdges(edges, decoded));
}

TEST(IoPipelineTest, BlockCodecPreservesUnsortedOrderAndMultipleBlocks) {
  // Appends arrive unsorted (externals grouped by owner, any src order) and
  // each append is its own block; decode must preserve exact order.
  std::vector<EdgeRecord> first = {MakeEdge(9, 2, 1), MakeEdge(3, 7, 2, 0), MakeEdge(9, 1, 1)};
  std::vector<EdgeRecord> second = {MakeEdge(1, 9, 3, 12), MakeEdge(0, 0, 1)};
  std::vector<uint8_t> file;
  AppendBlockFileHeader(&file);
  AppendEdgeBlock(first, &file);
  AppendEdgeBlock(second, &file);

  std::vector<EdgeRecord> expected = first;
  expected.insert(expected.end(), second.begin(), second.end());
  std::vector<EdgeRecord> decoded;
  PartitionDecodeStatus status = DecodePartitionBytes("test.edges", file, &decoded);
  ASSERT_TRUE(status.ok) << status.error;
  EXPECT_TRUE(SameEdges(expected, decoded));
}

TEST(IoPipelineTest, HeaderlessRecordStreamIsRejected) {
  // A bare varint record stream (src, dst, label, payload length, payload)
  // has no GRPB header; it is not a partition file.
  std::vector<uint8_t> raw;
  for (uint64_t field : {0, 1, 1, 4}) {
    PutVarint64(&raw, field);
  }
  raw.insert(raw.end(), 4, 0x07);
  std::vector<EdgeRecord> decoded;
  PartitionDecodeStatus status = DecodePartitionBytes("bare.edges", raw, &decoded);
  ASSERT_FALSE(status.ok);
  EXPECT_NE(status.error.find("missing block-file header"), std::string::npos) << status.error;
  EXPECT_NE(status.error.find("bare.edges at offset 0"), std::string::npos) << status.error;
  EXPECT_TRUE(decoded.empty());
}

TEST(IoPipelineTest, EmptyWriteIsHeaderOnly) {
  std::vector<uint8_t> file;
  AppendBlockFileHeader(&file);
  AppendEdgeBlock({}, &file);
  EXPECT_EQ(file.size(), kBlockFileHeaderSize);
  std::vector<EdgeRecord> decoded;
  EXPECT_TRUE(DecodePartitionBytes("empty.edges", file, &decoded).ok);
  EXPECT_TRUE(decoded.empty());
}

// Every part-*.edges file under `dir`, by name, with its bytes.
std::map<std::string, std::vector<uint8_t>> PartitionFiles(const std::string& dir) {
  std::map<std::string, std::vector<uint8_t>> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::string name = entry.path().filename().string();
    if (name.rfind("part-", 0) == 0) {
      EXPECT_TRUE(ReadFileBytes(entry.path().string(), &files[name]));
    }
  }
  return files;
}

// Runs the same mutation sequence against an inline store and a pipelined
// one; every observable (loads, metadata, history, file bytes) must agree.
TEST(IoPipelineTest, PipelinedStoreMatchesSynchronousStore) {
  TempDir sync_dir("iopipe-sync");
  TempDir pipe_dir("iopipe-pipe");
  TaskRuntime runtime(1);
  PartitionStore sync_store(sync_dir.path());
  PartitionStore pipe_store(pipe_dir.path(), nullptr, &runtime);
  ASSERT_FALSE(sync_store.pipeline_enabled());
  ASSERT_TRUE(pipe_store.pipeline_enabled());

  auto drive = [](PartitionStore* store) {
    std::vector<EdgeRecord> base;
    for (VertexId v = 0; v < 80; ++v) {
      EdgeRecord edge = MakeEdge(v, v + 1, 1, 32);
      // Production payloads repeat heavily (widened triples, shared path
      // encodings); mirror that so the block format's dedup applies.
      edge.payload.assign(32, static_cast<uint8_t>(v % 3));
      base.push_back(std::move(edge));
    }
    store->Initialize(base, 81, 1024);
    store->Append(0, {MakeEdge(0, 50, 2), MakeEdge(1, 60, 2)});
    store->Rewrite(1, {MakeEdge(store->Info(1).lo, 0, 5, 16)});
    auto all = store->Load(0);
    store->SplitAndRewrite(0, all, 256);
  };
  drive(&sync_store);
  drive(&pipe_store);

  ASSERT_EQ(sync_store.NumPartitions(), pipe_store.NumPartitions());
  EXPECT_EQ(sync_store.TotalEdges(), pipe_store.TotalEdges());
  // Metadata charges LayoutChargeBytes in both modes, so layout decisions
  // (and the bookkeeping itself) are mode-independent.
  EXPECT_EQ(sync_store.TotalBytes(), pipe_store.TotalBytes());
  for (size_t p = 0; p < sync_store.NumPartitions(); ++p) {
    EXPECT_EQ(sync_store.Info(p).lo, pipe_store.Info(p).lo);
    EXPECT_EQ(sync_store.Info(p).hi, pipe_store.Info(p).hi);
    EXPECT_EQ(sync_store.Info(p).bytes, pipe_store.Info(p).bytes);
    EXPECT_EQ(sync_store.Info(p).version, pipe_store.Info(p).version);
    EXPECT_EQ(sync_store.Info(p).edges, pipe_store.Info(p).edges);
    EXPECT_TRUE(SameEdges(sync_store.Load(p), pipe_store.Load(p)))
        << "partition " << p << " diverged";
  }
  // One format, one write routine: the files themselves are identical.
  pipe_store.Sync();
  auto sync_files = PartitionFiles(sync_dir.path());
  EXPECT_FALSE(sync_files.empty());
  EXPECT_EQ(sync_files, PartitionFiles(pipe_dir.path()));
}

TEST(IoPipelineTest, HintPrefetchesAndCountsHitsAndWaste) {
  TempDir dir("iopipe-hint");
  obs::MetricsRegistry metrics;
  TaskRuntime runtime(1);
  PartitionStore store(dir.path(), &metrics, &runtime);
  std::vector<EdgeRecord> base;
  for (VertexId v = 0; v < 64; ++v) {
    base.push_back(MakeEdge(v, v, 1, 64));
  }
  store.Initialize(base, 64, 1024);
  ASSERT_GT(store.NumPartitions(), 2u);

  // Freshly written partitions are served straight from the write-back
  // cache; there is nothing for a hint to read ahead.
  EXPECT_FALSE(store.Load(0).empty());
  obs::MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_EQ(snap.CounterOr("io_write_cache_hits_total"), 1u);
  store.Hint({0});
  EXPECT_EQ(metrics.Snapshot().CounterOr("io_prefetch_issued_total"), 0u);

  // Appends invalidate the cached images; Hint re-reads them (behind the
  // queued append, so the read sees the appended file).
  store.Append(0, {MakeEdge(store.Info(0).lo, 7, 2)});
  store.Append(1, {MakeEdge(store.Info(1).lo, 8, 2)});
  store.Hint({0, 1});
  store.Sync();
  auto p0 = store.Load(0);
  auto p1 = store.Load(1);
  EXPECT_FALSE(p0.empty());
  EXPECT_FALSE(p1.empty());
  snap = metrics.Snapshot();
  EXPECT_EQ(snap.CounterOr("io_prefetch_issued_total"), 2u);
  EXPECT_EQ(snap.CounterOr("io_prefetch_hits_total"), 2u);
  EXPECT_EQ(snap.CounterOr("io_prefetch_wasted_total"), 0u);

  // A mutation invalidates an unconsumed prefetch: wasted.
  uint64_t p2_edges = store.Info(2).edges;
  store.Append(2, {MakeEdge(store.Info(2).lo, 0, 9)});  // drop the write-back image
  store.Hint({2});
  store.Sync();
  store.Append(2, {MakeEdge(store.Info(2).lo, 1, 9)});
  snap = metrics.Snapshot();
  EXPECT_EQ(snap.CounterOr("io_prefetch_wasted_total"), 1u);
  // And the post-append load still sees every edge (write-behind + barrier).
  EXPECT_EQ(store.Load(2).size(), p2_edges + 2);
}

// A chain + extra edges under a tiny budget forces appends, rewrites, and
// splits; the two modes must derive the same edges and leave the same
// partition files, name for name and byte for byte.
TEST(IoPipelineTest, EngineResultsAreByteIdenticalAcrossModes) {
  constexpr char kSource[] = R"(
    method m(int x) {
      int y
      y = x
      if (x >= 0) {
        y = x - 1
      }
      return
    }
  )";
  ParseResult parsed = ParseProgram(kSource);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  Program program = std::move(parsed.program);
  UnrollLoops(&program, 2);
  CallGraph call_graph(program);
  Icfet icfet = BuildIcfet(program, call_graph);

  Grammar grammar;
  Label edge = grammar.Intern("edge");
  Label path = grammar.Intern("path");
  grammar.AddUnary(edge, path);
  grammar.AddBinary(path, edge, path);

  auto run = [&](bool pipelined) {
    TempDir dir(pipelined ? "iopipe-eng-on" : "iopipe-eng-off");
    IntervalOracle oracle(&icfet);
    EngineOptions options;
    options.work_dir = dir.path();
    options.io_pipeline = pipelined;
    options.memory_budget_bytes = 1 << 14;  // tiny: force splits + appends
    GraphEngine engine(&grammar, &oracle, options);
    PathEncoding trivial = PathEncoding::Empty();
    const VertexId n = 40;
    for (VertexId v = 0; v + 1 < n; ++v) {
      engine.AddBaseEdge(v, v + 1, edge, trivial);
    }
    for (VertexId v = 0; v < n; v += 5) {
      engine.AddBaseEdge(n - 1 - v, v, edge, trivial);
    }
    engine.Finalize(n);
    engine.Run();
    std::vector<EdgeRecord> edges;
    engine.ForEachEdge([&](const EdgeRecord& e) { edges.push_back(e); });
    EXPECT_GT(engine.Metrics().CounterOr("io_partition_splits_total"), 0u);
    return std::make_pair(edges, PartitionFiles(dir.path()));
  };

  auto [off_edges, off_files] = run(false);
  auto [on_edges, on_files] = run(true);
  EXPECT_FALSE(off_edges.empty());
  EXPECT_TRUE(SameEdges(off_edges, on_edges));
  EXPECT_FALSE(off_files.empty());
  EXPECT_EQ(off_files, on_files);
}

TEST(IoPipelineTest, FacadeReportsAreByteIdenticalAcrossModes) {
  constexpr char kSmall[] = R"(
    method main() {
      obj f : FileWriter
      int x
      x = ?
      f = new FileWriter
      event f open
      if (x > 0) {
        event f close
      }
      return
    }
  )";
  auto run = [&](bool pipelined) {
    ParseResult parsed = ParseProgram(kSmall);
    EXPECT_TRUE(parsed.ok) << parsed.error;
    GrappleOptions options;
    options.engine.io_pipeline = pipelined;
    Grapple analyzer(std::move(parsed.program), options);
    GrappleResult result = analyzer.Check(AllBuiltinCheckers());
    std::string json;
    for (const auto& checker : result.checkers) {
      json += checker.checker + "\n" + ReportsToJson(checker.reports) + "\n";
    }
    return json;
  };
  EXPECT_EQ(run(false), run(true));
}

}  // namespace
}  // namespace grapple
