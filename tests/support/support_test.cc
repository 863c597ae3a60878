#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>

#include "src/support/byte_io.h"
#include "src/support/rng.h"
#include "src/support/task_runtime.h"
#include "src/support/timer.h"

namespace grapple {
namespace {

TEST(ByteIoTest, VarintRoundTrip) {
  std::vector<uint64_t> values = {0, 1, 127, 128, 300, 16383, 16384, (uint64_t{1} << 32) + 7,
                                  UINT64_MAX};
  std::vector<uint8_t> buffer;
  for (uint64_t v : values) {
    PutVarint64(&buffer, v);
  }
  ByteReader reader(buffer);
  for (uint64_t v : values) {
    EXPECT_EQ(reader.GetVarint64(), v);
  }
  EXPECT_TRUE(reader.ok());
  EXPECT_TRUE(reader.AtEnd());
}

TEST(ByteIoTest, SignedVarintRoundTrip) {
  std::vector<int64_t> values = {0, -1, 1, -64, 64, -9999999, INT64_MAX, INT64_MIN};
  std::vector<uint8_t> buffer;
  for (int64_t v : values) {
    PutVarintSigned64(&buffer, v);
  }
  ByteReader reader(buffer);
  for (int64_t v : values) {
    EXPECT_EQ(reader.GetVarintSigned64(), v);
  }
  EXPECT_TRUE(reader.ok());
}

TEST(ByteIoTest, FixedWidthRoundTrip) {
  std::vector<uint8_t> buffer;
  PutFixed32(&buffer, 0xDEADBEEF);
  PutFixed64(&buffer, 0x0123456789ABCDEFULL);
  ByteReader reader(buffer);
  EXPECT_EQ(reader.GetFixed32(), 0xDEADBEEFu);
  EXPECT_EQ(reader.GetFixed64(), 0x0123456789ABCDEFULL);
}

TEST(ByteIoTest, ReaderPoisonsOnUnderrun) {
  std::vector<uint8_t> buffer = {0x80};  // truncated varint
  ByteReader reader(buffer);
  reader.GetVarint64();
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.GetFixed32(), 0u);  // stays poisoned
}

TEST(ByteIoTest, FileRoundTripAndAppend) {
  TempDir dir("byteio-test");
  std::string path = dir.File("data.bin");
  EXPECT_FALSE(FileExists(path));
  EXPECT_TRUE(WriteFileBytes(path, {1, 2, 3}));
  EXPECT_TRUE(AppendFileBytes(path, {4, 5}));
  EXPECT_EQ(FileSizeBytes(path), 5);
  std::vector<uint8_t> bytes;
  EXPECT_TRUE(ReadFileBytes(path, &bytes));
  EXPECT_EQ(bytes, (std::vector<uint8_t>{1, 2, 3, 4, 5}));
  EXPECT_TRUE(RemoveFile(path));
  EXPECT_FALSE(FileExists(path));
}

TEST(ByteIoTest, TempDirRemovedOnDestruction) {
  std::string path;
  {
    TempDir dir("byteio-scope");
    path = dir.path();
    EXPECT_TRUE(std::filesystem::exists(path));
    WriteFileBytes(dir.File("x"), {1});
  }
  EXPECT_FALSE(std::filesystem::exists(path));
}

// Sharded fan-out over a range via TaskGroup, the pattern the engine's
// join loop uses. Deeper scheduler coverage lives in task_runtime_test.cc.
TEST(TaskRuntimeTest, GroupFanOutCoversRange) {
  TaskRuntime runtime(4);
  constexpr size_t kItems = 1000;
  constexpr size_t kShards = 4;
  constexpr size_t kChunk = (kItems + kShards - 1) / kShards;
  std::atomic<int64_t> sum{0};
  TaskGroup group(&runtime);
  for (size_t shard = 0; shard < kShards; ++shard) {
    size_t begin = shard * kChunk;
    size_t end = std::min(kItems, begin + kChunk);
    group.Submit(TaskLane::kForeground, /*affinity=*/0, [&, begin, end] {
      int64_t local = 0;
      for (size_t i = begin; i < end; ++i) {
        local += static_cast<int64_t>(i);
      }
      sum.fetch_add(local);
    });
  }
  group.Wait();
  EXPECT_EQ(sum.load(), 999 * 1000 / 2);
}

TEST(TaskRuntimeTest, DestructorDrainsSubmittedTasks) {
  std::atomic<int> count{0};
  {
    TaskRuntime runtime(2);
    for (int i = 0; i < 50; ++i) {
      runtime.Submit(TaskLane::kWriteBehind, /*affinity=*/0, [&] { count.fetch_add(1); });
    }
  }
  EXPECT_EQ(count.load(), 50);
}

TEST(TimerTest, FormatDurationMatchesPaperStyle) {
  EXPECT_EQ(FormatDuration(47), "47s");
  EXPECT_EQ(FormatDuration(51 * 60 + 49), "51m49s");
  EXPECT_EQ(FormatDuration(3600 + 6 * 60 + 15), "01h06m15s");
  EXPECT_EQ(FormatDuration(33 * 3600 + 42 * 60 + 8), "33h42m08s");
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, RangeStaysInBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.Range(-3, 9);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 9);
  }
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(9);
  EXPECT_FALSE(rng.Chance(0.0));
  EXPECT_TRUE(rng.Chance(1.0));
}

}  // namespace
}  // namespace grapple
