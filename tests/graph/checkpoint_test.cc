// Checkpoint manifests (src/graph/checkpoint.h) and the engine's
// resume path: codec round-trips, every corruption mode falling back to a
// clean restart, fingerprint rejection of foreign manifests, and the
// background I/O worker's failure reporting contract.
#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "src/cfg/call_graph.h"
#include "src/cfg/loop_unroll.h"
#include "src/graph/checkpoint.h"
#include "src/graph/engine.h"
#include "src/ir/parser.h"
#include "src/support/byte_io.h"
#include "src/support/fault_injection.h"
#include "src/symexec/cfet_builder.h"

namespace grapple {
namespace {

CheckpointManifest SampleManifest() {
  CheckpointManifest m;
  m.num_vertices = 1000;
  m.base_fingerprint = 0xDEADBEEFCAFEF00DULL;
  m.base_edges = 345;
  m.file_counter = 17;
  CheckpointPartition p;
  p.lo = 0;
  p.hi = 500;
  p.file = "part-000000-g3.edges";
  p.bytes = 4096;
  p.edges = 123;
  p.version = 9;
  p.disk_bytes = 2048;
  m.partitions.push_back(p);
  p.lo = 500;
  p.hi = 1000;
  p.file = "part-000500-g7.edges";
  m.partitions.push_back(p);
  m.pair_done = {{0, 0, 123, 123}, {0, 1, 120, 7}, {1, 1, 123, 123}};
  m.dedup_hashes = {3, 99, 100, 1ULL << 62};
  m.variants = {{42, 2}, {77, 31}};
  m.has_provenance = true;
  m.provenance_bytes = 8192;
  m.provenance_records = 64;
  return m;
}

void ExpectManifestEq(const CheckpointManifest& a, const CheckpointManifest& b) {
  EXPECT_EQ(a.num_vertices, b.num_vertices);
  EXPECT_EQ(a.base_fingerprint, b.base_fingerprint);
  EXPECT_EQ(a.base_edges, b.base_edges);
  EXPECT_EQ(a.file_counter, b.file_counter);
  ASSERT_EQ(a.partitions.size(), b.partitions.size());
  for (size_t i = 0; i < a.partitions.size(); ++i) {
    EXPECT_EQ(a.partitions[i].lo, b.partitions[i].lo);
    EXPECT_EQ(a.partitions[i].hi, b.partitions[i].hi);
    EXPECT_EQ(a.partitions[i].file, b.partitions[i].file);
    EXPECT_EQ(a.partitions[i].bytes, b.partitions[i].bytes);
    EXPECT_EQ(a.partitions[i].edges, b.partitions[i].edges);
    EXPECT_EQ(a.partitions[i].version, b.partitions[i].version);
    EXPECT_EQ(a.partitions[i].disk_bytes, b.partitions[i].disk_bytes);
  }
  ASSERT_EQ(a.pair_done.size(), b.pair_done.size());
  for (size_t i = 0; i < a.pair_done.size(); ++i) {
    EXPECT_EQ(a.pair_done[i].i, b.pair_done[i].i);
    EXPECT_EQ(a.pair_done[i].j, b.pair_done[i].j);
    EXPECT_EQ(a.pair_done[i].ni, b.pair_done[i].ni);
    EXPECT_EQ(a.pair_done[i].nj, b.pair_done[i].nj);
  }
  EXPECT_EQ(a.dedup_hashes, b.dedup_hashes);
  EXPECT_EQ(a.variants, b.variants);
  EXPECT_EQ(a.has_provenance, b.has_provenance);
  EXPECT_EQ(a.provenance_bytes, b.provenance_bytes);
  EXPECT_EQ(a.provenance_records, b.provenance_records);
}

TEST(CheckpointCodecTest, RoundTripsEveryField) {
  CheckpointManifest original = SampleManifest();
  std::vector<uint8_t> bytes;
  EncodeCheckpointManifest(original, &bytes);
  CheckpointManifest decoded;
  std::string error;
  ASSERT_TRUE(DecodeCheckpointManifest(bytes, &decoded, &error)) << error;
  ExpectManifestEq(original, decoded);
}

TEST(CheckpointCodecTest, EmptyManifestRoundTrips) {
  CheckpointManifest original;
  std::vector<uint8_t> bytes;
  EncodeCheckpointManifest(original, &bytes);
  CheckpointManifest decoded;
  std::string error;
  ASSERT_TRUE(DecodeCheckpointManifest(bytes, &decoded, &error)) << error;
  ExpectManifestEq(original, decoded);
}

TEST(CheckpointCodecTest, BadMagicIsRejected) {
  std::vector<uint8_t> bytes;
  EncodeCheckpointManifest(SampleManifest(), &bytes);
  bytes[0] ^= 0xFF;
  CheckpointManifest decoded;
  std::string error;
  EXPECT_FALSE(DecodeCheckpointManifest(bytes, &decoded, &error));
  EXPECT_NE(error.find("checkpoint manifest invalid:"), std::string::npos) << error;
}

TEST(CheckpointCodecTest, VersionSkewIsRejected) {
  std::vector<uint8_t> bytes;
  EncodeCheckpointManifest(SampleManifest(), &bytes);
  bytes[8] = 99;  // the fixed32 format version follows the 8-byte magic
  CheckpointManifest decoded;
  std::string error;
  EXPECT_FALSE(DecodeCheckpointManifest(bytes, &decoded, &error));
  EXPECT_NE(error.find("checkpoint manifest invalid:"), std::string::npos) << error;
  EXPECT_NE(error.find("version"), std::string::npos) << error;
}

TEST(CheckpointCodecTest, PayloadBitFlipFailsChecksum) {
  std::vector<uint8_t> bytes;
  EncodeCheckpointManifest(SampleManifest(), &bytes);
  bytes[bytes.size() / 2] ^= 0x10;
  CheckpointManifest decoded;
  std::string error;
  EXPECT_FALSE(DecodeCheckpointManifest(bytes, &decoded, &error));
  EXPECT_NE(error.find("checkpoint manifest invalid:"), std::string::npos) << error;
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;
}

TEST(CheckpointCodecTest, EveryTruncationPointIsRejected) {
  std::vector<uint8_t> bytes;
  EncodeCheckpointManifest(SampleManifest(), &bytes);
  // Sample a spread of cut points plus the boundary cases; decode must fail
  // cleanly at all of them, never crash or return partial state.
  for (size_t keep = 0; keep < bytes.size(); keep += 7) {
    std::vector<uint8_t> cut(bytes.begin(), bytes.begin() + keep);
    CheckpointManifest decoded;
    std::string error;
    EXPECT_FALSE(DecodeCheckpointManifest(cut, &decoded, &error)) << "keep=" << keep;
    EXPECT_NE(error.find("checkpoint manifest invalid:"), std::string::npos)
        << "keep=" << keep << ": " << error;
  }
}

TEST(CheckpointCodecTest, TrailingGarbageIsRejected) {
  std::vector<uint8_t> bytes;
  EncodeCheckpointManifest(SampleManifest(), &bytes);
  bytes.push_back(0xAB);
  CheckpointManifest decoded;
  std::string error;
  EXPECT_FALSE(DecodeCheckpointManifest(bytes, &decoded, &error));
}

// magic | version | a payload length of 2^64 - 8: the length check must not
// wrap to "exactly the bytes left" and read the checksum out of bounds.
std::vector<uint8_t> WrappingLengthManifest() {
  std::vector<uint8_t> bytes;
  EncodeCheckpointManifest(SampleManifest(), &bytes);
  bytes.resize(12);
  PutFixed64(&bytes, 0xFFFFFFFFFFFFFFF8ULL);
  return bytes;
}

TEST(CheckpointCodecTest, WrappingPayloadLengthIsRejected) {
  CheckpointManifest decoded;
  std::string error;
  EXPECT_FALSE(DecodeCheckpointManifest(WrappingLengthManifest(), &decoded, &error));
  EXPECT_NE(error.find("payload length mismatch"), std::string::npos) << error;
}

TEST(CheckpointCodecTest, SaveThenLoadRoundTrips) {
  TempDir dir("ckpt-save");
  CheckpointManifest original = SampleManifest();
  uint64_t bytes_written = 0;
  std::string error;
  ASSERT_TRUE(SaveCheckpointManifest(dir.path(), original, &bytes_written, &error)) << error;
  EXPECT_GT(bytes_written, 0u);
  EXPECT_TRUE(FileExists(CheckpointManifestPath(dir.path())));
  // The temp file must be gone: rename is the commit point.
  EXPECT_FALSE(FileExists(CheckpointManifestPath(dir.path()) + ".tmp"));
  CheckpointManifest loaded;
  ASSERT_TRUE(LoadCheckpointManifest(dir.path(), &loaded, &error)) << error;
  ExpectManifestEq(original, loaded);
}

TEST(CheckpointCodecTest, MissingManifestIsNotAnError) {
  TempDir dir("ckpt-missing");
  CheckpointManifest manifest;
  std::string error = "sentinel";
  EXPECT_FALSE(LoadCheckpointManifest(dir.path(), &manifest, &error));
  EXPECT_TRUE(error.empty()) << error;  // absent, not corrupt
}

// --- engine-level resume behavior ---

constexpr char kTinySource[] = R"(
  method m(int x) {
    int y
    y = x
    return
  }
)";

class CheckpointEngineTest : public ::testing::Test {
 protected:
  CheckpointEngineTest() {
    ParseResult parsed = ParseProgram(kTinySource);
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

  using EdgeSet = std::set<std::tuple<VertexId, VertexId, Label>>;

  // Runs a checkpointing engine over a 48-vertex ring-with-chords in
  // `work_dir` and returns (closure, runs_resumed).
  std::pair<EdgeSet, uint64_t> RunOnce(const std::string& work_dir, VertexId skip_chord = 0) {
    IntervalOracle oracle(&icfet_);
    EngineOptions options;
    options.work_dir = work_dir;
    options.memory_budget_bytes = 8 << 10;  // force several partitions
    options.checkpoint_interval = 1;            // checkpoint after every pair
    options.checkpoint_min_spacing_seconds = 0;  // ...with no wall-clock throttle
    GraphEngine engine(&grammar_, &oracle, options);
    for (VertexId v = 0; v < 48; ++v) {
      engine.AddBaseEdge(v, (v + 1) % 48, edge_, PathEncoding::Empty());
      if (v % 5 == 0 && v != skip_chord) {
        engine.AddBaseEdge(v, (v + 11) % 48, edge_, PathEncoding::Empty());
      }
    }
    engine.Finalize(48);
    engine.Run();
    EdgeSet closure;
    engine.ForEachEdge([&](const EdgeRecord& e) { closure.insert({e.src, e.dst, e.label}); });
    uint64_t resumed = engine.Metrics().CounterOr("runs_resumed_total");
    EXPECT_GT(engine.Metrics().CounterOr("ckpt_written_total"), 0u);
    return {std::move(closure), resumed};
  }

  Program program_;
  std::unique_ptr<CallGraph> call_graph_;
  Icfet icfet_;
  Grammar grammar_;
  Label edge_ = kNoLabel;
  Label path_ = kNoLabel;
};

TEST_F(CheckpointEngineTest, CompletedRunResumesToIdenticalClosure) {
  TempDir dir("ckpt-resume");
  auto [first, first_resumed] = RunOnce(dir.path());
  EXPECT_EQ(first_resumed, 0u);
  ASSERT_TRUE(FileExists(CheckpointManifestPath(dir.path())));
  // Second engine over the same work dir and base edges: picks up the final
  // manifest, resumes into the converged fixpoint, and reproduces the exact
  // closure without re-deriving anything.
  auto [second, second_resumed] = RunOnce(dir.path());
  EXPECT_EQ(second_resumed, 1u);
  EXPECT_EQ(first, second);
}

TEST_F(CheckpointEngineTest, ForeignManifestIsRejectedByFingerprint) {
  TempDir dir("ckpt-foreign");
  auto [first, first_resumed] = RunOnce(dir.path());
  (void)first;
  EXPECT_EQ(first_resumed, 0u);
  // Same work dir, different base edge set: the fingerprint mismatch must
  // force a clean restart, and the closure must reflect the *new* edges.
  auto [changed, changed_resumed] = RunOnce(dir.path(), /*skip_chord=*/10);
  EXPECT_EQ(changed_resumed, 0u);
  EXPECT_NE(first, changed);
  // And a rerun of the changed configuration resumes from *its* manifest.
  auto [again, again_resumed] = RunOnce(dir.path(), /*skip_chord=*/10);
  EXPECT_EQ(again_resumed, 1u);
  EXPECT_EQ(changed, again);
}

TEST_F(CheckpointEngineTest, CorruptManifestFallsBackToCleanRestart) {
  TempDir dir("ckpt-corrupt");
  auto [first, first_resumed] = RunOnce(dir.path());
  EXPECT_EQ(first_resumed, 0u);
  std::string manifest_path = CheckpointManifestPath(dir.path());
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(ReadFileBytes(manifest_path, &bytes));
  bytes[bytes.size() / 2] ^= 0x04;
  ASSERT_TRUE(WriteFileBytes(manifest_path, bytes));
  auto [second, second_resumed] = RunOnce(dir.path());
  EXPECT_EQ(second_resumed, 0u);  // corrupt manifest => no resume...
  EXPECT_EQ(first, second);       // ...but a correct fresh run

  // The same for a manifest whose length field wraps the size check.
  ASSERT_TRUE(WriteFileBytes(manifest_path, WrappingLengthManifest()));
  auto [third, third_resumed] = RunOnce(dir.path());
  EXPECT_EQ(third_resumed, 0u);
  EXPECT_EQ(first, third);
}

// Older formats are refused as version skew and the run starts fresh: v1
// could name headerless record files this build no longer reads, and v2
// kept pair progress by partition versions, with segment maps. The
// checksum covers only the payload, so the version is each manifest's sole
// defect.
TEST_F(CheckpointEngineTest, OlderManifestsAreRefusedAsVersionSkew) {
  for (uint8_t version : {1, 2}) {
    SCOPED_TRACE("v" + std::to_string(version));
    TempDir dir("ckpt-old");
    auto [first, first_resumed] = RunOnce(dir.path());
    EXPECT_EQ(first_resumed, 0u);
    std::string manifest_path = CheckpointManifestPath(dir.path());
    std::vector<uint8_t> bytes;
    ASSERT_TRUE(ReadFileBytes(manifest_path, &bytes));
    ASSERT_EQ(bytes[8], kCheckpointFormatVersion);
    bytes[8] = version;  // the fixed32 format version follows the 8-byte magic
    ASSERT_TRUE(WriteFileBytes(manifest_path, bytes));
    ::testing::internal::CaptureStderr();
    auto [second, second_resumed] = RunOnce(dir.path());
    std::string log = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(log.find("format version skew: file has v" + std::to_string(version)),
              std::string::npos)
        << log;
    EXPECT_EQ(second_resumed, 0u);
    EXPECT_EQ(first, second);
  }
}

TEST_F(CheckpointEngineTest, TruncatedPartitionFileFallsBackToCleanRestart) {
  TempDir dir("ckpt-shortpart");
  auto [first, first_resumed] = RunOnce(dir.path());
  EXPECT_EQ(first_resumed, 0u);
  // Shrink a partition file below its manifest-recorded size: resume must
  // refuse (RestoreFromCheckpoint fails) and fall back to a fresh run.
  CheckpointManifest manifest;
  std::string error;
  ASSERT_TRUE(LoadCheckpointManifest(dir.path(), &manifest, &error)) << error;
  ASSERT_FALSE(manifest.partitions.empty());
  const CheckpointPartition& victim = manifest.partitions[0];
  ASSERT_GT(victim.disk_bytes, 0u);
  ASSERT_TRUE(
      TruncateFile(dir.path() + "/" + victim.file, victim.disk_bytes - 1, &error))
      << error;
  auto [second, second_resumed] = RunOnce(dir.path());
  EXPECT_EQ(second_resumed, 0u);
  EXPECT_EQ(first, second);
}

// --- background I/O worker failure reporting (pipelined mode) ---

class StoreFailureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::Reset();
    IoRetryPolicy policy;
    policy.backoff_base_us = 0;
    SetIoRetryPolicy(policy);
  }
  void TearDown() override {
    fault::Reset();
    SetIoRetryPolicy(IoRetryPolicy());
  }

  static std::vector<EdgeRecord> SomeEdges(VertexId n) {
    std::vector<EdgeRecord> edges;
    for (VertexId v = 0; v < n; ++v) {
      EdgeRecord e;
      e.src = v;
      e.dst = v + 1;
      e.label = 1;
      e.payload.assign(8, static_cast<uint8_t>(v));
      edges.push_back(std::move(e));
    }
    return edges;
  }
};

TEST_F(StoreFailureTest, BackgroundWriteFailureSurfacesAtSync) {
  TempDir dir("store-bgfail");
  TaskRuntime runtime(1);
  PartitionStore store(dir.path(), nullptr, &runtime);
  store.Initialize(SomeEdges(32), 40, 1 << 20);
  ASSERT_EQ(store.NumPartitions(), 1u);
  // Every write to a partition file now fails hard; the worker must record
  // the failure (not abort, not swallow) and Sync() must rethrow it with
  // the operation and the file named.
  ASSERT_TRUE(fault::Configure("fail@write#1+:path=part-"));
  store.Rewrite(0, SomeEdges(32));
  try {
    store.Sync();
    FAIL() << "Sync after a failed background write did not throw";
  } catch (const IoError& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("background partition write failed"), std::string::npos) << what;
    EXPECT_NE(what.find("part-"), std::string::npos) << what;
  }
}

TEST_F(StoreFailureTest, BackgroundWriteFailureSurfacesAtLoad) {
  TempDir dir("store-bgfail-load");
  TaskRuntime runtime(1);
  PartitionStore store(dir.path(), nullptr, &runtime);
  store.Initialize(SomeEdges(32), 40, 1 << 20);
  ASSERT_TRUE(fault::Configure("fail@write#1+:path=part-"));
  store.Rewrite(0, SomeEdges(16));
  EXPECT_THROW(store.Sync(), IoError);
  // The failure is sticky: every later barrier keeps reporting it instead
  // of letting the run continue against missing bytes.
  try {
    store.Load(0);
    FAIL() << "Load after a failed background write did not throw";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("background partition write failed"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace grapple
