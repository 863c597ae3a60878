// Flight recorder (DESIGN.md §12): seqlock ring invariants under concurrent
// producers, oldest-first overwrite, interning, and the flightrec.bin
// dump/decode round trip. The recorder is process-global and other suites
// in this binary emit events of their own, so every assertion filters by
// argument values no other emitter uses.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "src/obs/event_log.h"
#include "src/support/byte_io.h"
#include "src/support/event_hook.h"
#include "tests/obs/json_parse.h"

namespace grapple {
namespace obs {
namespace {

// Arg-space tag no production emitter reaches (partition counts and byte
// sizes in tests stay far below 2^56).
constexpr uint64_t kTag = uint64_t{0xE1E1} << 48;

std::vector<FlightEvent> TaggedTail() {
  std::vector<FlightEvent> mine;
  for (const FlightEvent& event : EventLogTail(0)) {
    if ((event.arg1 & (uint64_t{0xFFFF} << 48)) == kTag) {
      mine.push_back(event);
    }
  }
  return mine;
}

TEST(EventLogTest, EmittedEventsAppearInTail) {
  EventLogInstall();
  for (uint64_t i = 0; i < 16; ++i) {
    evt::Emit(evt::kPairStart, kTag | (100 + i), i * 2, /*a0=*/7);
  }
  std::vector<FlightEvent> mine = TaggedTail();
  std::set<uint64_t> seen;
  for (const FlightEvent& event : mine) {
    if (event.type == evt::kPairStart && event.arg1 >= (kTag | 100) &&
        event.arg1 < (kTag | 116)) {
      seen.insert(event.arg1 & 0xFFFF);
      EXPECT_EQ(event.arg2, ((event.arg1 & 0xFFFF) - 100) * 2);
      EXPECT_EQ(event.arg0, 7u);
    }
  }
  EXPECT_EQ(seen.size(), 16u);
}

TEST(EventLogTest, TailIsTimestampSortedAndBounded) {
  EventLogInstall();
  for (uint64_t i = 0; i < 8; ++i) {
    evt::Emit(evt::kPairEnd, kTag | i);
  }
  std::vector<FlightEvent> tail = EventLogTail(4);
  EXPECT_LE(tail.size(), 4u);
  for (size_t i = 1; i < tail.size(); ++i) {
    EXPECT_GE(tail[i].ts_ns, tail[i - 1].ts_ns);
  }
}

// The ring keeps the newest capacity events per thread: emit 4x capacity
// from a fresh thread (capacity applies at first emit) and verify only the
// newest survive — oldest-first overwrite, no gaps in the surviving suffix.
TEST(EventLogTest, RingOverwritesOldestFirst) {
  EventLogInstall();
  EventLogSetCapacity(64);
  constexpr uint64_t kEmitted = 256;
  std::thread producer([] {
    for (uint64_t i = 0; i < kEmitted; ++i) {
      evt::Emit(evt::kPrefetchHit, kTag | (uint64_t{1} << 40) | i);
    }
  });
  producer.join();
  EventLogSetCapacity(4096);  // restore the default for later suites

  std::set<uint64_t> survivors;
  for (const FlightEvent& event : TaggedTail()) {
    if (event.type == evt::kPrefetchHit && (event.arg1 & (uint64_t{1} << 40)) != 0) {
      survivors.insert(event.arg1 & 0xFFFFFFFF);
    }
  }
  ASSERT_FALSE(survivors.empty());
  EXPECT_LE(survivors.size(), 64u);
  // Survivors are exactly the newest contiguous run (no event older than
  // the earliest survivor, nothing newer than the last emitted).
  uint64_t lo = *survivors.begin();
  uint64_t hi = *survivors.rbegin();
  EXPECT_EQ(hi, kEmitted - 1);
  EXPECT_EQ(survivors.size(), hi - lo + 1);
}

// Concurrent producers + a racing reader: the seqlock must never surface a
// torn slot. Each writer stores arg2 = ~arg1; any mix of two events would
// break the relation.
TEST(EventLogTest, ConcurrentProducersNeverTearReads) {
  EventLogInstall();
  constexpr int kProducers = 4;
  constexpr uint64_t kPerProducer = 5000;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> torn{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const FlightEvent& event : EventLogTail(0)) {
        if (event.type == evt::kPartitionLoad &&
            (event.arg1 & (uint64_t{0xFFFF} << 48)) == kTag) {
          if (event.arg2 != ~event.arg1) {
            torn.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    }
  });
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([p] {
      for (uint64_t i = 0; i < kPerProducer; ++i) {
        uint64_t arg = kTag | (static_cast<uint64_t>(p) << 32) | i;
        evt::Emit(evt::kPartitionLoad, arg, ~arg);
      }
    });
  }
  for (auto& t : producers) {
    t.join();
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(torn.load(), 0u);
}

TEST(EventLogTest, InternStringIsStableAndReversible) {
  EventLogInstall();
  uint32_t id = EventLogInternString("event_log_test_checker");
  EXPECT_EQ(EventLogInternString("event_log_test_checker"), id);
  EXPECT_EQ(EventLogStringOf(id), "event_log_test_checker");
  EXPECT_EQ(EventLogStringOf(UINT32_MAX), "");
}

TEST(EventLogTest, TailJsonParsesAndNamesTypes) {
  EventLogInstall();
  // arg0 (u32) is exactly representable as a JSON double; the 64-bit tag in
  // arg1 would not be.
  evt::Emit(evt::kRunStart, kTag | 9, 0, /*a0=*/909001);
  std::string error;
  std::optional<JsonValue> doc = ParseJson(EventLogTailJson(64), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const JsonValue* events = doc->Find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->IsArray());
  bool found = false;
  for (const JsonValue& item : events->items) {
    if (item.StringOr("type", "") == "run_start" && item.NumberOr("arg0", 0) == 909001.0) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(EventLogTest, FlushAndDecodeRoundTrip) {
  EventLogInstall();
  // A string-carrying event: the sink interns the pointer at record time
  // and the dump carries the table.
  static const char kMarker[] = "event_log_test_crash_marker";
  evt::Emit(evt::kCrashExit, kTag | 21, reinterpret_cast<uint64_t>(kMarker));
  TempDir dir("event-log-test");
  std::string path = dir.path() + "/flightrec.bin";
  ASSERT_TRUE(EventLogFlush(path));

  FlightRecording recording;
  std::string error;
  ASSERT_TRUE(DecodeFlightRecording(path, &recording, &error)) << error;
  ASSERT_FALSE(recording.events.empty());
  bool found = false;
  for (const FlightEvent& event : recording.events) {
    if (event.type == evt::kCrashExit && event.arg1 == (kTag | 21)) {
      ASSERT_LT(event.arg2, recording.strings.size());
      EXPECT_EQ(recording.strings[static_cast<size_t>(event.arg2)], kMarker);
      found = true;
    }
  }
  EXPECT_TRUE(found);
  // Per-event timestamps survive the round trip in order.
  for (size_t i = 1; i < recording.events.size(); ++i) {
    EXPECT_GE(recording.events[i].ts_ns, recording.events[i - 1].ts_ns);
  }
  EXPECT_FALSE(FlightRecordingToJson(recording).empty());
}

TEST(EventLogTest, DecodeRejectsCorruptDumps) {
  TempDir dir("event-log-test");
  std::string path = dir.path() + "/bogus.bin";
  std::vector<uint8_t> garbage = {'N', 'O', 'P', 'E', 1, 2, 3, 4};
  ASSERT_TRUE(WriteFileBytes(path, garbage));
  FlightRecording recording;
  std::string error;
  EXPECT_FALSE(DecodeFlightRecording(path, &recording, &error));
  EXPECT_FALSE(error.empty());

  auto expect_error = [&](const std::vector<uint8_t>& bytes, const std::string& needle) {
    ASSERT_TRUE(WriteFileBytes(path, bytes));
    FlightRecording out;
    std::string why;
    EXPECT_FALSE(DecodeFlightRecording(path, &out, &why));
    EXPECT_NE(why.find(needle), std::string::npos) << why;
  };
  std::vector<uint8_t> header = {'G', 'F', 'R', '1'};
  PutFixed32(&header, 1);
  // An event count whose byte size wraps 2^64 (2^59 + 1 events of 32
  // bytes) must not pass the bound and size a reserve.
  std::vector<uint8_t> wrapping = header;
  PutFixed64(&wrapping, (uint64_t{1} << 59) + 1);
  wrapping.resize(wrapping.size() + 32 + 4, 0);
  expect_error(wrapping, "truncated event section");
  // A string count far past the bytes left must not size a reserve either.
  std::vector<uint8_t> strings = header;
  PutFixed64(&strings, 0);
  PutFixed32(&strings, 0xFFFFFFFFu);
  expect_error(strings, "truncated string table entry");
}

TEST(EventLogTest, DisableIsPauseNotClear) {
  EventLogInstall();
  evt::Emit(evt::kPrefetchHit, kTag | 31);
  EventLogSetEnabled(false);
  evt::Emit(evt::kPrefetchHit, kTag | 32);
  EventLogSetEnabled(true);
  bool kept = false;
  bool dropped_recorded = false;
  for (const FlightEvent& event : TaggedTail()) {
    if (event.type == evt::kPrefetchHit && event.arg1 == (kTag | 31)) {
      kept = true;
    }
    if (event.type == evt::kPrefetchHit && event.arg1 == (kTag | 32)) {
      dropped_recorded = true;
    }
  }
  EXPECT_TRUE(kept);
  EXPECT_FALSE(dropped_recorded);
}

}  // namespace
}  // namespace obs
}  // namespace grapple
