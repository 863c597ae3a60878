#include "src/graph/merge_memo.h"

#include <gtest/gtest.h>

#include <set>

#include "src/support/rng.h"

namespace grapple {
namespace {

std::vector<uint8_t> Bytes(std::initializer_list<uint8_t> bytes) { return bytes; }

TEST(MergeMemoTest, InternsByContent) {
  PayloadTable table;
  auto a = Bytes({1, 2, 3});
  auto a_copy = a;
  auto b = Bytes({1, 2, 3, 4});
  std::vector<uint8_t> empty;
  uint32_t id_a = table.Intern(a.data(), a.size());
  uint32_t id_b = table.Intern(b.data(), b.size());
  EXPECT_EQ(table.Intern(a_copy.data(), a_copy.size()), id_a);
  EXPECT_NE(id_a, id_b);
  uint32_t id_empty = table.Intern(empty.data(), empty.size());
  EXPECT_NE(id_empty, id_a);
  EXPECT_NE(id_empty, id_b);
  EXPECT_EQ(table.num_payloads(), 3u);
  PayloadBytes bytes = table.Bytes(id_b);
  EXPECT_EQ(std::vector<uint8_t>(bytes.data, bytes.data + bytes.size), b);
  EXPECT_EQ(table.Bytes(id_empty).size, 0u);
}

TEST(MergeMemoTest, FindsWhatWasInsertedAndOnlyThat) {
  PayloadTable table;
  MergeMemo memo;
  auto a = Bytes({7});
  auto b = Bytes({8, 9});
  auto ab_bytes = Bytes({7, 8, 9});
  uint32_t id_a = table.Intern(a.data(), a.size());
  uint32_t id_b = table.Intern(b.data(), b.size());
  uint32_t id_ab = table.Intern(ab_bytes.data(), ab_bytes.size());
  MergeMemo::Key ab{id_a, id_b};
  MergeMemo::Key ba{id_b, id_a};
  MergeMemo::Key aa{id_a, id_a};
  uint32_t out = 0;
  EXPECT_FALSE(memo.Find(ab, &out));
  memo.Insert(ab, id_ab);
  memo.Insert(ba, MergeMemo::kNone);
  out = 12345;
  ASSERT_TRUE(memo.Find(ab, &out));
  EXPECT_EQ(out, id_ab);
  ASSERT_TRUE(memo.Find(ba, &out));
  EXPECT_EQ(out, MergeMemo::kNone);  // unsat
  EXPECT_FALSE(memo.Find(aa, &out));
  EXPECT_EQ(memo.num_pairs(), 2u);
  memo.Clear();
  EXPECT_FALSE(memo.Find(ab, &out));
  EXPECT_EQ(memo.num_pairs(), 0u);
}

// 200K random payloads of 4-20 bytes: the 32-bit probe hashes collide with
// near certainty, yet every payload keeps its own id and every pair its own
// outcome, through many table growths.
TEST(MergeMemoTest, ExactUnderHashCollisionsAndGrowth) {
  constexpr size_t kPayloads = 200000;
  Rng rng(5);
  std::set<std::vector<uint8_t>> unique;
  std::vector<std::vector<uint8_t>> payloads;
  while (payloads.size() < kPayloads) {
    std::vector<uint8_t> bytes(4 + rng.Below(17));
    for (auto& byte : bytes) {
      byte = static_cast<uint8_t>(rng.Below(256));
    }
    if (unique.insert(bytes).second) {
      payloads.push_back(std::move(bytes));
    }
  }
  PayloadTable table;
  MergeMemo memo;
  std::vector<uint32_t> ids;
  for (const auto& payload : payloads) {
    ids.push_back(table.Intern(payload.data(), payload.size()));
  }
  std::vector<MergeMemo::Key> keys;
  for (size_t i = 0; i < kPayloads; ++i) {
    keys.push_back({ids[i], ids[(i * 7 + 3) % kPayloads]});
    memo.Insert(keys.back(), i % 3 == 0 ? MergeMemo::kNone : ids[(i + 1) % kPayloads]);
  }
  EXPECT_EQ(table.num_payloads(), kPayloads);
  EXPECT_EQ(memo.num_pairs(), kPayloads);
  for (size_t i = 0; i < kPayloads; ++i) {
    const auto& a = payloads[i];
    ASSERT_EQ(table.Intern(a.data(), a.size()), ids[i]) << i;
    PayloadBytes bytes = table.Bytes(ids[i]);
    ASSERT_EQ(std::vector<uint8_t>(bytes.data, bytes.data + bytes.size), a) << i;
    uint32_t out = 0;
    ASSERT_TRUE(memo.Find(keys[i], &out)) << i;
    ASSERT_EQ(out, i % 3 == 0 ? MergeMemo::kNone : ids[(i + 1) % kPayloads]) << i;
  }
  EXPECT_EQ(table.num_payloads(), kPayloads);  // re-probes interned nothing new
}

}  // namespace
}  // namespace grapple
