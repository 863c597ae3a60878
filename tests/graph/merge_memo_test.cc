#include "src/graph/merge_memo.h"

#include <gtest/gtest.h>

#include <set>

#include "src/support/rng.h"

namespace grapple {
namespace {

std::vector<uint8_t> Bytes(std::initializer_list<uint8_t> bytes) { return bytes; }

TEST(MergeMemoTest, InternsByContent) {
  MergeMemo memo;
  auto a = Bytes({1, 2, 3});
  auto a_copy = a;
  auto b = Bytes({1, 2, 3, 4});
  std::vector<uint8_t> empty;
  MergeMemo::Key ab = memo.KeyOf(a.data(), a.size(), b.data(), b.size());
  MergeMemo::Key copy_b = memo.KeyOf(a_copy.data(), a_copy.size(), b.data(), b.size());
  MergeMemo::Key empty_a = memo.KeyOf(empty.data(), empty.size(), a.data(), a.size());
  EXPECT_EQ(ab.a, copy_b.a);
  EXPECT_EQ(ab.b, copy_b.b);
  EXPECT_NE(ab.a, ab.b);
  EXPECT_EQ(empty_a.b, ab.a);
  EXPECT_NE(empty_a.a, ab.a);
  EXPECT_EQ(memo.num_payloads(), 3u);
}

TEST(MergeMemoTest, FindsWhatWasInsertedAndOnlyThat) {
  MergeMemo memo;
  auto a = Bytes({7});
  auto b = Bytes({8, 9});
  MergeMemo::Key ab = memo.KeyOf(a.data(), a.size(), b.data(), b.size());
  MergeMemo::Key ba = memo.KeyOf(b.data(), b.size(), a.data(), a.size());
  MergeMemo::Key aa = memo.KeyOf(a.data(), a.size(), a.data(), a.size());
  MergeMemo::Result out;
  EXPECT_FALSE(memo.Find(ab, &out));
  memo.Insert(ab, Bytes({7, 8, 9}));
  memo.Insert(ba, std::nullopt);
  out = Bytes({1});
  ASSERT_TRUE(memo.Find(ab, &out));
  EXPECT_EQ(out, MergeMemo::Result(Bytes({7, 8, 9})));
  ASSERT_TRUE(memo.Find(ba, &out));
  EXPECT_FALSE(out.has_value());  // unsat
  EXPECT_FALSE(memo.Find(aa, &out));
  EXPECT_EQ(memo.num_pairs(), 2u);
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
  MergeMemo memo;
  std::vector<MergeMemo::Key> keys;
  for (size_t i = 0; i < kPayloads; ++i) {
    const auto& a = payloads[i];
    const auto& b = payloads[(i * 7 + 3) % kPayloads];
    keys.push_back(memo.KeyOf(a.data(), a.size(), b.data(), b.size()));
    if (i % 3 == 0) {
      memo.Insert(keys.back(), std::nullopt);
    } else {
      memo.Insert(keys.back(), payloads[(i + 1) % kPayloads]);
    }
  }
  EXPECT_EQ(memo.num_payloads(), kPayloads);
  EXPECT_EQ(memo.num_pairs(), kPayloads);
  for (size_t i = 0; i < kPayloads; ++i) {
    const auto& a = payloads[i];
    MergeMemo::Key again = memo.KeyOf(a.data(), a.size(), a.data(), a.size());
    ASSERT_EQ(again.a, keys[i].a) << i;
    MergeMemo::Result out;
    ASSERT_TRUE(memo.Find(keys[i], &out)) << i;
    if (i % 3 == 0) {
      ASSERT_FALSE(out.has_value()) << i;
    } else {
      ASSERT_EQ(out, MergeMemo::Result(payloads[(i + 1) % kPayloads])) << i;
    }
  }
  EXPECT_EQ(memo.num_payloads(), kPayloads);  // re-probes interned nothing new
}

}  // namespace
}  // namespace grapple
