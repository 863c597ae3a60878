#include <gtest/gtest.h>

#include "src/graph/partition_store.h"
#include "src/support/byte_io.h"

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

TEST(EdgeRecordTest, ContentHashDistinguishesPayloads) {
  EdgeRecord a = MakeEdge(1, 2, 3);
  EdgeRecord b = MakeEdge(1, 2, 3);
  b.payload[0] ^= 0xFF;
  EXPECT_NE(EdgeContentHash(a.src, a.dst, a.label, a.payload.data(), a.payload.size()),
            EdgeContentHash(b.src, b.dst, b.label, b.payload.data(), b.payload.size()));
  EXPECT_EQ(EdgeTripleHash(a.src, a.dst, a.label), EdgeTripleHash(b.src, b.dst, b.label));
}

class PartitionStoreTest : public ::testing::Test {
 protected:
  PartitionStoreTest() : dir_("partition-test"), store_(dir_.path()) {}

  TempDir dir_;
  PartitionStore store_;
};

TEST_F(PartitionStoreTest, InitializeSplitsBySize) {
  std::vector<EdgeRecord> edges;
  for (VertexId v = 0; v < 100; ++v) {
    edges.push_back(MakeEdge(v, v + 1, 1, 32));
  }
  store_.Initialize(edges, /*num_vertices=*/101, /*target_bytes=*/1024);
  EXPECT_GT(store_.NumPartitions(), 1u);
  // Intervals are contiguous and cover the space.
  VertexId expected_lo = 0;
  for (size_t i = 0; i < store_.NumPartitions(); ++i) {
    EXPECT_EQ(store_.Info(i).lo, expected_lo);
    expected_lo = store_.Info(i).hi;
  }
  EXPECT_EQ(expected_lo, 101u);
  EXPECT_EQ(store_.TotalEdges(), 100u);
}

TEST_F(PartitionStoreTest, PartitionOfFindsOwner) {
  std::vector<EdgeRecord> edges;
  for (VertexId v = 0; v < 50; ++v) {
    edges.push_back(MakeEdge(v, v, 1, 64));
  }
  store_.Initialize(edges, 50, 512);
  for (VertexId v = 0; v < 50; ++v) {
    size_t p = store_.PartitionOf(v);
    EXPECT_GE(v, store_.Info(p).lo);
    EXPECT_LT(v, store_.Info(p).hi);
  }
}

TEST_F(PartitionStoreTest, LoadReturnsWrittenEdges) {
  std::vector<EdgeRecord> edges = {MakeEdge(0, 1, 1), MakeEdge(0, 2, 2), MakeEdge(1, 0, 1)};
  store_.Initialize(edges, 3, 1 << 20);
  ASSERT_EQ(store_.NumPartitions(), 1u);
  auto loaded = store_.Load(0);
  EXPECT_EQ(loaded.size(), 3u);
}

TEST_F(PartitionStoreTest, AppendAddsDeltasAndBumpsVersion) {
  store_.Initialize({MakeEdge(0, 1, 1)}, 4, 1 << 20);
  uint64_t v0 = store_.Info(0).version;
  store_.Append(0, {MakeEdge(1, 2, 2), MakeEdge(2, 3, 3)});
  EXPECT_GT(store_.Info(0).version, v0);
  EXPECT_EQ(store_.Load(0).size(), 3u);
  // Empty append is a no-op (no version bump).
  uint64_t v1 = store_.Info(0).version;
  store_.Append(0, {});
  EXPECT_EQ(store_.Info(0).version, v1);
}

TEST_F(PartitionStoreTest, RewriteReplacesContents) {
  store_.Initialize({MakeEdge(0, 1, 1), MakeEdge(1, 2, 2)}, 3, 1 << 20);
  store_.Rewrite(0, {MakeEdge(2, 0, 5)});
  auto loaded = store_.Load(0);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].label, 5);
}

TEST_F(PartitionStoreTest, SplitRedistributes) {
  std::vector<EdgeRecord> edges;
  for (VertexId v = 0; v < 64; ++v) {
    edges.push_back(MakeEdge(v, v, 1, 64));
  }
  store_.Initialize(edges, 64, 1 << 20);  // one big partition
  ASSERT_EQ(store_.NumPartitions(), 1u);
  auto all = store_.Load(0);
  size_t pieces = store_.SplitAndRewrite(0, all, /*target_bytes=*/1024);
  EXPECT_GT(pieces, 1u);
  EXPECT_EQ(store_.NumPartitions(), pieces);
  EXPECT_EQ(store_.TotalEdges(), 64u);
  // Every edge landed in the partition owning its source.
  for (size_t p = 0; p < store_.NumPartitions(); ++p) {
    for (const auto& edge : store_.Load(p)) {
      EXPECT_GE(edge.src, store_.Info(p).lo);
      EXPECT_LT(edge.src, store_.Info(p).hi);
    }
  }
}

TEST_F(PartitionStoreTest, SingleVertexIntervalNeverSplits) {
  std::vector<EdgeRecord> edges;
  for (int i = 0; i < 32; ++i) {
    edges.push_back(MakeEdge(0, static_cast<VertexId>(i % 3), 1, 128));
  }
  store_.Initialize(edges, 1, 1 << 20);
  ASSERT_EQ(store_.NumPartitions(), 1u);
  auto all = store_.Load(0);
  EXPECT_EQ(store_.SplitAndRewrite(0, all, 256), 1u);
  EXPECT_EQ(store_.NumPartitions(), 1u);
}

// (src, dst) of each edge, in order.
std::vector<std::pair<VertexId, VertexId>> Order(const std::vector<EdgeRecord>& edges) {
  std::vector<std::pair<VertexId, VertexId>> order;
  for (const auto& edge : edges) {
    order.emplace_back(edge.src, edge.dst);
  }
  return order;
}

// A partition's first n edges stay its first n edges: Append adds at the
// end, and a rewrite stores exactly the order it is given.
TEST_F(PartitionStoreTest, AppendAndRewriteKeepEdgeOrder) {
  store_.Initialize({MakeEdge(0, 1, 1), MakeEdge(1, 2, 1)}, 8, 1 << 20);
  auto before = Order(store_.Load(0));
  store_.Append(0, {MakeEdge(0, 7, 1)});
  auto edges = store_.Load(0);
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_EQ(Order({edges.begin(), edges.begin() + 2}), before);
  EXPECT_EQ(Order({edges.back()}), Order({MakeEdge(0, 7, 1)}));

  edges.push_back(MakeEdge(0, 3, 1));
  store_.Rewrite(0, edges);
  EXPECT_EQ(Order(store_.Load(0)), Order(edges));
  EXPECT_EQ(store_.Info(0).edges, 4u);
}

// A split moves each edge into the piece owning its source, keeping the
// caller's order inside the piece, also when a piece spans several
// vertices with several edges each.
TEST_F(PartitionStoreTest, SplitKeepsCallerOrderWithinEachPiece) {
  std::vector<EdgeRecord> edges;
  for (VertexId v = 0; v < 64; ++v) {
    edges.push_back(MakeEdge(v, v, 1, 64));
  }
  store_.Initialize(edges, 64, 1 << 20);
  ASSERT_EQ(store_.NumPartitions(), 1u);
  // Descending sources, three edges per vertex with descending targets.
  std::vector<EdgeRecord> order;
  for (VertexId v = 64; v-- > 0;) {
    for (VertexId d = 3; d-- > 0;) {
      order.push_back(MakeEdge(v, d, 1, 64));
    }
  }
  size_t pieces = store_.SplitAndRewrite(0, order, /*target_bytes=*/1024);
  ASSERT_GT(pieces, 1u);
  ASSERT_EQ(store_.NumPartitions(), pieces);
  for (size_t p = 0; p < pieces; ++p) {
    std::vector<EdgeRecord> expected;
    for (const auto& edge : order) {
      if (edge.src >= store_.Info(p).lo && edge.src < store_.Info(p).hi) {
        expected.push_back(edge);
      }
    }
    EXPECT_GT(expected.size(), 3u) << "piece " << p;
    EXPECT_EQ(Order(store_.Load(p)), Order(expected)) << "piece " << p;
    EXPECT_EQ(store_.Info(p).edges, expected.size());
  }
}

TEST_F(PartitionStoreTest, EmptyGraphStillHasOnePartition) {
  store_.Initialize({}, 10, 1024);
  EXPECT_EQ(store_.NumPartitions(), 1u);
  EXPECT_EQ(store_.Info(0).lo, 0u);
  EXPECT_EQ(store_.Info(0).hi, 10u);
  EXPECT_TRUE(store_.Load(0).empty());
}

}  // namespace
}  // namespace grapple
