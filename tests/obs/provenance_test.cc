// Provenance log round-trip: writer -> file -> reader, plus the
// GRAPPLE_WITNESS env-knob parsing the facade relies on.
#include "src/obs/provenance.h"

#include <gtest/gtest.h>

#include <fstream>

#include "src/support/byte_io.h"

namespace grapple {
namespace obs {
namespace {

std::vector<uint8_t> Payload(std::initializer_list<uint8_t> bytes) { return bytes; }

TEST(ProvenanceTest, RoundTripsAllRecordKinds) {
  TempDir dir("prov-test");
  std::string path = dir.path() + "/provenance.bin";
  MetricsRegistry metrics;
  {
    ProvenanceWriter writer(path, &metrics);
    ProvEdge base_edge{1, 2, 3};
    std::vector<uint8_t> base_payload = Payload({0xaa, 0xbb});
    writer.RecordBase(100, base_edge, base_payload.data(), base_payload.size());

    ProvEdge other_edge{2, 5, 4};
    writer.RecordBase(101, other_edge, nullptr, 0);

    ProvEdge join_edge{1, 5, 7};
    std::vector<uint8_t> join_payload = Payload({0xcc});
    writer.RecordJoin(200, join_edge, join_payload.data(), join_payload.size(),
                      /*parent_a=*/100, base_edge, /*parent_b=*/101, other_edge,
                      /*widened=*/true);

    ProvEdge mirror_edge{5, 1, 8};
    writer.RecordRewrite(300, mirror_edge, join_payload.data(), join_payload.size(),
                         /*parent=*/200, join_edge);
    EXPECT_EQ(writer.records_written(), 4u);
    EXPECT_TRUE(writer.Flush());
    // bytes_written counts what reached disk, so it moves at flush time.
    EXPECT_GT(writer.bytes_written(), 0u);
  }

  ProvenanceReader reader;
  ASSERT_TRUE(reader.Open(path));
  EXPECT_EQ(reader.NumRecords(), 4u);
  EXPECT_GT(reader.FileBytes(), 0u);

  const ProvRecord* base = reader.Lookup(100);
  ASSERT_NE(base, nullptr);
  EXPECT_EQ(base->kind, ProvKind::kBase);
  EXPECT_FALSE(base->widened);
  EXPECT_EQ(base->edge.src, 1u);
  EXPECT_EQ(base->edge.dst, 2u);
  EXPECT_EQ(base->edge.label, 3u);
  EXPECT_EQ(base->payload, Payload({0xaa, 0xbb}));

  const ProvRecord* join = reader.Lookup(200);
  ASSERT_NE(join, nullptr);
  EXPECT_EQ(join->kind, ProvKind::kJoin);
  EXPECT_TRUE(join->widened);
  EXPECT_EQ(join->parent_a, 100u);
  EXPECT_EQ(join->parent_b, 101u);
  EXPECT_EQ(join->a_edge.src, 1u);
  EXPECT_EQ(join->b_edge.dst, 5u);
  EXPECT_EQ(join->payload, Payload({0xcc}));

  const ProvRecord* rewrite = reader.Lookup(300);
  ASSERT_NE(rewrite, nullptr);
  EXPECT_EQ(rewrite->kind, ProvKind::kRewrite);
  EXPECT_EQ(rewrite->parent_a, 200u);
  EXPECT_EQ(rewrite->a_edge.src, 1u);
  EXPECT_EQ(rewrite->a_edge.dst, 5u);

  EXPECT_EQ(reader.Lookup(999), nullptr);

  // Counters track what the writer emitted.
  MetricsSnapshot snapshot = metrics.Snapshot();
  EXPECT_EQ(snapshot.CounterOr("provenance_records_total"), 4u);
  EXPECT_GT(snapshot.CounterOr("provenance_bytes"), 0u);
}

TEST(ProvenanceTest, FlushThresholdSpillsAndReaderSeesEverything) {
  TempDir dir("prov-spill");
  std::string path = dir.path() + "/provenance.bin";
  // ~2000 records * ~70 bytes of payload crosses the 1MB buffer at least once,
  // exercising the append path (WriteFileBytes then AppendFileBytes).
  constexpr size_t kRecords = 20000;
  std::vector<uint8_t> payload(70, 0x5e);
  {
    ProvenanceWriter writer(path, nullptr);
    for (size_t i = 0; i < kRecords; ++i) {
      ProvEdge edge{static_cast<uint32_t>(i), static_cast<uint32_t>(i + 1), 1};
      writer.RecordBase(/*hash=*/i + 1, edge, payload.data(), payload.size());
    }
    EXPECT_TRUE(writer.Flush());
    EXPECT_EQ(writer.records_written(), kRecords);
  }
  ProvenanceReader reader;
  ASSERT_TRUE(reader.Open(path));
  EXPECT_EQ(reader.NumRecords(), kRecords);
  const ProvRecord* mid = reader.Lookup(kRecords / 2);
  ASSERT_NE(mid, nullptr);
  EXPECT_EQ(mid->payload.size(), payload.size());
}

TEST(ProvenanceTest, TornTailKeepsReadablePrefix) {
  TempDir dir("prov-torn");
  std::string path = dir.path() + "/provenance.bin";
  {
    ProvenanceWriter writer(path, nullptr);
    ProvEdge edge{1, 2, 3};
    writer.RecordBase(1, edge, nullptr, 0);
    writer.RecordBase(2, edge, nullptr, 0);
    writer.Flush();
  }
  // Simulate a crash mid-append: a dangling length prefix with no body.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.put(static_cast<char>(0x40));  // claims a 64-byte record that is absent
  }
  ProvenanceReader reader;
  EXPECT_FALSE(reader.Open(path));
  EXPECT_EQ(reader.NumRecords(), 2u);
  EXPECT_NE(reader.Lookup(1), nullptr);
  EXPECT_NE(reader.Lookup(2), nullptr);
}

TEST(ProvenanceTest, MissingFileOpensFalse) {
  ProvenanceReader reader;
  EXPECT_FALSE(reader.Open("/nonexistent/provenance.bin"));
  EXPECT_EQ(reader.NumRecords(), 0u);
}

TEST(WitnessModeTest, NamesRoundTrip) {
  EXPECT_STREQ(WitnessModeName(WitnessMode::kOff), "off");
  EXPECT_STREQ(WitnessModeName(WitnessMode::kBugs), "bugs");
  EXPECT_STREQ(WitnessModeName(WitnessMode::kFull), "full");
}

}  // namespace
}  // namespace obs
}  // namespace grapple
