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
  AppendEdgeBlock(edges, &file, nullptr);
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

TEST(PartitionCorruptionTest, CorruptLengthCannotDriveHugeAllocation) {
  // A raw-format record whose payload-length varint wildly exceeds the file
  // must fail cleanly (the old reader resized first and asked questions
  // later).
  std::vector<uint8_t> raw;
  PutVarint64(&raw, 1);                      // src
  PutVarint64(&raw, 2);                      // dst
  PutVarint64(&raw, 3);                      // label
  PutVarint64(&raw, uint64_t{1} << 40);      // payload length: 1 TB
  raw.push_back(0xAB);                       // one actual byte
  std::vector<EdgeRecord> decoded;
  PartitionDecodeStatus status = DecodePartitionBytes("huge.edges", raw, &decoded);
  ASSERT_FALSE(status.ok);
  EXPECT_NE(status.error.find("huge.edges"), std::string::npos) << status.error;
  EXPECT_NE(status.error.find("offset 0"), std::string::npos) << status.error;
}

TEST(PartitionCorruptionTest, TruncatedRawFileNamesOffsetOfBadRecord) {
  std::vector<uint8_t> raw;
  SerializeEdge(MakeEdge(1, 2, 3), &raw);
  size_t good = raw.size();
  SerializeEdge(MakeEdge(4, 5, 6), &raw);
  raw.resize(good + 2);  // tear the second record
  std::vector<EdgeRecord> decoded;
  PartitionDecodeStatus status = DecodePartitionBytes("torn.edges", raw, &decoded);
  ASSERT_FALSE(status.ok);
  EXPECT_NE(status.error.find("offset " + std::to_string(good)), std::string::npos)
      << status.error;
}

TEST(PartitionCorruptionTest, StoreLoadThrowsDiagnosticOnCorruptFile) {
  TempDir dir("corrupt-store");
  PartitionStore store(dir.path());
  std::vector<EdgeRecord> edges = SampleEdges();
  store.Initialize(edges, 40, 1 << 20);
  ASSERT_EQ(store.NumPartitions(), 1u);
  // Bit-flip a length varint in the middle of the raw file.
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(ReadFileBytes(store.Info(0).path, &bytes));
  bytes[bytes.size() / 2] |= 0x80;
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
    EXPECT_NE(std::string(e.what()).find("truncated or corrupt raw edge record"),
              std::string::npos)
        << e.what();
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
