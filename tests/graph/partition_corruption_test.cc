// Robustness of on-disk state: truncated or bit-flipped partition and
// provenance files must surface a descriptive error (what, which file,
// which offset) instead of garbage edges or undefined behavior. Kept as its
// own test binary: corruption scenarios deliberately exercise failure paths
// that are easiest to reason about in isolation from thread-spawning suites.
#include <gtest/gtest.h>

#include "src/graph/partition_codec.h"
#include "src/graph/partition_store.h"
#include "src/obs/provenance.h"
#include "src/support/byte_io.h"
#include "src/support/task_runtime.h"

namespace grapple {
namespace {

EdgeRecord MakeEdge(VertexId src, VertexId dst, Label label, size_t payload_size = 8) {
  EdgeRecord edge;
  edge.src = src;
  edge.dst = dst;
  edge.label = label;
  edge.payload.assign(payload_size, static_cast<uint8_t>(src + dst + label));
  return edge;
}

std::vector<uint8_t> EncodeBlockFile(const std::vector<EdgeRecord>& edges) {
  std::vector<uint8_t> file;
  AppendBlockFileHeader(&file);
  AppendEdgeBlock(edges, &file);
  return file;
}

std::vector<EdgeRecord> SampleEdges() {
  std::vector<EdgeRecord> edges;
  for (VertexId v = 0; v < 32; ++v) {
    edges.push_back(MakeEdge(v, v + 2, 1 + v % 3));
  }
  return edges;
}

TEST(PartitionCorruptionTest, TruncatedBlockFileNamesPathAndOffset) {
  std::vector<uint8_t> file = EncodeBlockFile(SampleEdges());
  file.resize(file.size() / 2);
  std::vector<EdgeRecord> decoded;
  PartitionDecodeStatus status = DecodePartitionBytes("p.edges", file, &decoded);
  ASSERT_FALSE(status.ok);
  EXPECT_NE(status.error.find("truncated"), std::string::npos) << status.error;
  EXPECT_NE(status.error.find("p.edges"), std::string::npos) << status.error;
  EXPECT_NE(status.error.find("offset"), std::string::npos) << status.error;
}

TEST(PartitionCorruptionTest, BitFlipInBodyReportsChecksumMismatch) {
  std::vector<uint8_t> file = EncodeBlockFile(SampleEdges());
  file[file.size() / 2] ^= 0x40;  // flip a bit inside the block body
  std::vector<EdgeRecord> decoded;
  PartitionDecodeStatus status = DecodePartitionBytes("flipped.edges", file, &decoded);
  ASSERT_FALSE(status.ok);
  EXPECT_NE(status.error.find("checksum mismatch"), std::string::npos) << status.error;
  EXPECT_NE(status.error.find("flipped.edges"), std::string::npos) << status.error;
  EXPECT_NE(status.error.find("offset"), std::string::npos) << status.error;
}

TEST(PartitionCorruptionTest, UnknownFormatVersionIsRejected) {
  std::vector<uint8_t> file = EncodeBlockFile(SampleEdges());
  file[4] = 99;
  std::vector<EdgeRecord> decoded;
  PartitionDecodeStatus status = DecodePartitionBytes("vnext.edges", file, &decoded);
  ASSERT_FALSE(status.ok);
  EXPECT_NE(status.error.find("version 99"), std::string::npos) << status.error;
}

// A block whose header claims 2^40 edges and payloads over an empty body,
// with a valid checksum for that empty body: 26 bytes in all.
std::vector<uint8_t> HostileHeaderFile() {
  std::vector<uint8_t> file;
  AppendBlockFileHeader(&file);
  PutVarint64(&file, uint64_t{1} << 40);  // edge_count
  PutVarint64(&file, uint64_t{1} << 40);  // payload_count
  PutVarint64(&file, 0);                  // body_len
  PutFixed64(&file, Fnv1a64(nullptr, 0));
  return file;
}

TEST(PartitionCorruptionTest, CountsTheBodyCannotHoldAreRejectedBeforeAllocating) {
  std::vector<uint8_t> file = HostileHeaderFile();
  ASSERT_EQ(file.size(), 26u);
  std::vector<EdgeRecord> decoded;
  PartitionDecodeStatus status = DecodePartitionBytes("hostile.edges", file, &decoded);
  ASSERT_FALSE(status.ok);
  EXPECT_NE(status.error.find("implausible block header"), std::string::npos) << status.error;
  EXPECT_NE(status.error.find("hostile.edges at offset 5"), std::string::npos) << status.error;
}

TEST(PartitionCorruptionTest, CorruptLengthCannotDriveHugeAllocation) {
  // A checksum-valid block whose payload suffix length wildly exceeds the
  // body must fail cleanly rather than size a buffer from it.
  std::vector<uint8_t> body;
  PutVarint64(&body, 0);                  // shared prefix
  PutVarint64(&body, uint64_t{1} << 40);  // suffix length: 1 TB
  body.push_back(0xAB);                   // one actual byte
  std::vector<uint8_t> file;
  AppendBlockFileHeader(&file);
  PutVarint64(&file, 1);  // edge_count
  PutVarint64(&file, 1);  // payload_count
  PutVarint64(&file, body.size());
  size_t body_offset = file.size();
  file.insert(file.end(), body.begin(), body.end());
  PutFixed64(&file, Fnv1a64(body.data(), body.size()));
  std::vector<EdgeRecord> decoded;
  PartitionDecodeStatus status = DecodePartitionBytes("huge.edges", file, &decoded);
  ASSERT_FALSE(status.ok);
  EXPECT_NE(status.error.find("corrupt payload-table entry"), std::string::npos) << status.error;
  EXPECT_NE(status.error.find("huge.edges at offset " + std::to_string(body_offset)),
            std::string::npos)
      << status.error;
}

TEST(PartitionCorruptionTest, StoreLoadThrowsDiagnosticOnCorruptFile) {
  TempDir dir("corrupt-store");
  PartitionStore store(dir.path());
  std::vector<EdgeRecord> edges = SampleEdges();
  store.Initialize(edges, 40, 1 << 20);
  ASSERT_EQ(store.NumPartitions(), 1u);
  // Tear the tail off the file's only block.
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(ReadFileBytes(store.Info(0).path, &bytes));
  bytes.resize(bytes.size() - 3);
  ASSERT_TRUE(WriteFileBytes(store.Info(0).path, bytes));
  // A catchable IoError (not an abort), so the facade can isolate the
  // failing checker instead of taking down a multi-checker run.
  try {
    store.Load(0);
    FAIL() << "Load of a corrupt partition file did not throw";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("partition file corrupt"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("truncated block body"), std::string::npos)
        << e.what();
  }
}

TEST(PartitionCorruptionTest, StoreRejectsHostileBlockHeaderInBothModes) {
  TempDir dir("corrupt-hostile");
  {
    PartitionStore store(dir.path());
    store.Initialize(SampleEdges(), 40, 1 << 20);
    ASSERT_TRUE(WriteFileBytes(store.Info(0).path, HostileHeaderFile()));
    try {
      store.Load(0);
      FAIL() << "Load of a hostile partition file did not throw";
    } catch (const IoError& e) {
      EXPECT_NE(std::string(e.what()).find("implausible block header"), std::string::npos)
          << e.what();
    }
  }
  TaskRuntime runtime(1);
  {
    PartitionStore store(dir.path(), nullptr, &runtime);
    store.Initialize(SampleEdges(), 40, 1 << 20);
    // Drop the write-back image so the hint has to read the file.
    store.Append(0, {MakeEdge(0, 1, 1)});
    store.Sync();
    ASSERT_TRUE(WriteFileBytes(store.Info(0).path, HostileHeaderFile()));
    // The prefetch read fails to decode and leaves the diagnosis to Load;
    // Sync and the destructor still return.
    store.Hint({0});
    store.Sync();
    try {
      store.Load(0);
      FAIL() << "Load of a hostile partition file did not throw";
    } catch (const IoError& e) {
      EXPECT_NE(std::string(e.what()).find("implausible block header"), std::string::npos)
          << e.what();
    }
  }
}

TEST(PartitionCorruptionTest, TornProvenanceTailKeepsParsedPrefix) {
  TempDir dir("corrupt-prov");
  std::string path = dir.File("provenance.bin");
  {
    obs::ProvenanceWriter writer(path, nullptr);
    obs::ProvEdge e;
    e.src = 1;
    e.dst = 2;
    e.label = 3;
    uint8_t payload[4] = {1, 2, 3, 4};
    writer.RecordBase(0x1111, e, payload, sizeof(payload));
    writer.RecordBase(0x2222, e, payload, sizeof(payload));
    ASSERT_TRUE(writer.Flush());
  }
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(ReadFileBytes(path, &bytes));
  bytes.resize(bytes.size() - 5);  // tear the last record
  ASSERT_TRUE(WriteFileBytes(path, bytes));

  obs::ProvenanceReader reader;
  EXPECT_FALSE(reader.Open(path));  // corruption reported...
  EXPECT_GE(reader.NumRecords(), 1u);  // ...but the intact prefix survives
  EXPECT_NE(reader.Lookup(0x1111), nullptr);
}

}  // namespace
}  // namespace grapple
