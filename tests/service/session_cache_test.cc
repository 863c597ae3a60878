// Session-cache policy tests (src/service/session_cache.h) over a toy
// session type: once-per-key creation, LRU eviction, pin safety (in-flight
// sessions are never dropped), and over-capacity insertion when the cache
// is full of pinned entries.
#include "src/service/session_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

namespace grapple {
namespace {

struct ToySession {
  explicit ToySession(int id) : id(id) {}
  int id;
};

using Cache = SessionCache<ToySession>;

TEST(SessionCacheTest, MissThenHitSetsWarmFlag) {
  Cache cache(4);
  int factory_calls = 0;
  auto factory = [&] {
    ++factory_calls;
    return std::make_unique<ToySession>(1);
  };
  {
    Cache::Handle cold = cache.Acquire(7, factory);
    ASSERT_TRUE(cold.valid());
    EXPECT_FALSE(cold.warm());
  }
  Cache::Handle hot = cache.Acquire(7, factory);
  ASSERT_TRUE(hot.valid());
  EXPECT_TRUE(hot.warm());
  EXPECT_EQ(factory_calls, 1);
  auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(SessionCacheTest, FactoryRunsOncePerKeyUnderContention) {
  Cache cache(4);
  std::atomic<int> factory_calls{0};
  std::atomic<int> warm{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&] {
      Cache::Handle handle = cache.Acquire(42, [&] {
        factory_calls.fetch_add(1);
        // Widen the creation window so every other thread piles onto the
        // creating-entry wait path.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return std::make_unique<ToySession>(42);
      });
      EXPECT_TRUE(handle.valid());
      EXPECT_EQ(handle.session()->id, 42);
      if (handle.warm()) {
        warm.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(factory_calls.load(), 1);
  EXPECT_EQ(warm.load(), 7);
}

TEST(SessionCacheTest, EvictsLeastRecentlyUsedIdleEntry) {
  // Declared before the cache: the destructor evicts what is left resident,
  // and the hook must still have somewhere to record it.
  std::vector<uint64_t> evicted;
  Cache cache(2);
  cache.set_evict_hook([&](uint64_t key, ToySession*) { evicted.push_back(key); });
  auto factory_for = [](int id) {
    return [id] { return std::make_unique<ToySession>(id); };
  };
  cache.Acquire(1, factory_for(1));
  cache.Acquire(2, factory_for(2));
  // Touch 1 so 2 becomes the LRU victim.
  cache.Acquire(1, factory_for(1));
  cache.Acquire(3, factory_for(3));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], 2u);
  // Key 2 is a miss again; key 1 stayed resident.
  EXPECT_TRUE(cache.Acquire(1, factory_for(1)).warm());
}

TEST(SessionCacheTest, PinnedEntriesSurviveTrim) {
  std::vector<uint64_t> evicted;
  Cache cache(4);
  cache.set_evict_hook([&](uint64_t key, ToySession*) { evicted.push_back(key); });
  Cache::Handle pinned = cache.Acquire(1, [] { return std::make_unique<ToySession>(1); });
  cache.Acquire(2, [] { return std::make_unique<ToySession>(2); });
  cache.Acquire(3, [] { return std::make_unique<ToySession>(3); });
  // Budget pressure: trim to zero. The pinned (in-flight) session must
  // survive; only idle ones go.
  EXPECT_EQ(cache.TrimTo(0), 2u);
  EXPECT_EQ(cache.resident(), 1u);
  ASSERT_TRUE(pinned.valid());
  EXPECT_EQ(pinned.session()->id, 1);
  pinned.Release();
  EXPECT_EQ(cache.TrimTo(0), 1u);
  EXPECT_EQ(evicted.size(), 3u);
}

TEST(SessionCacheTest, OverCapacityWhileAllPinned) {
  std::vector<uint64_t> evicted;
  Cache cache(1);
  cache.set_evict_hook([&](uint64_t key, ToySession*) { evicted.push_back(key); });
  Cache::Handle first = cache.Acquire(1, [] { return std::make_unique<ToySession>(1); });
  // Cache full, sole entry pinned: a different key cannot evict and must
  // not block, so it goes in over capacity.
  Cache::Handle second = cache.Acquire(2, [] { return std::make_unique<ToySession>(2); });
  ASSERT_TRUE(second.valid());
  EXPECT_FALSE(second.warm());
  EXPECT_EQ(second.session()->id, 2);
  EXPECT_EQ(cache.resident(), 2u);
  EXPECT_TRUE(evicted.empty());
  first.Release();
  second.Release();
  // The next miss trims back to capacity, least recently used first.
  Cache::Handle third = cache.Acquire(3, [] { return std::make_unique<ToySession>(3); });
  ASSERT_TRUE(third.valid());
  EXPECT_EQ(cache.resident(), 1u);
  EXPECT_EQ(evicted, (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ(cache.stats().evictions, 2u);
}

TEST(SessionCacheTest, ConcurrentMissesWhileFullShareOneSession) {
  Cache cache(1);
  Cache::Handle pinned = cache.Acquire(1, [] { return std::make_unique<ToySession>(1); });
  std::atomic<int> factory_calls{0};
  ToySession* seen[2] = {nullptr, nullptr};
  std::vector<std::thread> threads;
  for (int i = 0; i < 2; ++i) {
    threads.emplace_back([&, i] {
      Cache::Handle handle = cache.Acquire(2, [&] {
        factory_calls.fetch_add(1);
        // Widen the creation window so the other thread arrives while the
        // entry is still being created.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return std::make_unique<ToySession>(2);
      });
      ASSERT_TRUE(handle.valid());
      seen[i] = handle.session();
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(factory_calls.load(), 1);
  ASSERT_NE(seen[0], nullptr);
  EXPECT_EQ(seen[0], seen[1]);
  EXPECT_EQ(cache.resident(), 2u);
}

TEST(SessionCacheTest, FailedCreationIsRetriable) {
  Cache cache(2);
  Cache::Handle failed = cache.Acquire(9, [] { return std::unique_ptr<ToySession>(); });
  EXPECT_FALSE(failed.valid());
  // A throwing factory is withdrawn the same way, and the exception
  // propagates.
  auto throwing = []() -> std::unique_ptr<ToySession> { throw std::runtime_error("boom"); };
  EXPECT_THROW(cache.Acquire(9, throwing), std::runtime_error);
  EXPECT_EQ(cache.resident(), 0u);
  // The failed entries were withdrawn; the next Acquire re-runs the factory.
  Cache::Handle ok = cache.Acquire(9, [] { return std::make_unique<ToySession>(9); });
  ASSERT_TRUE(ok.valid());
  EXPECT_FALSE(ok.warm());
}

TEST(SessionCacheTest, RunMutexSerializesSharedSessions) {
  Cache cache(2);
  std::atomic<int> concurrent{0};
  std::atomic<int> max_concurrent{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&] {
      Cache::Handle handle =
          cache.Acquire(5, [] { return std::make_unique<ToySession>(5); });
      std::lock_guard<std::mutex> run_lock(handle.run_mu());
      int now = concurrent.fetch_add(1) + 1;
      int seen = max_concurrent.load();
      while (now > seen && !max_concurrent.compare_exchange_weak(seen, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      concurrent.fetch_sub(1);
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(max_concurrent.load(), 1);
}

}  // namespace
}  // namespace grapple
