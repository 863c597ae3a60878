// LRU cache of hot analysis sessions for the grappled daemon
// (DESIGN.md §15).
//
// A Grapple session front-loads phase 1 (the alias/points-to pass) and keeps
// its state resident, so the second check of the same subject skips straight
// to phase 2. The service keys sessions by a fingerprint of
// (tenant, subject IR) and keeps the hottest ones here; a warm hit turns a
// multi-second cold check into a phase-2-only run.
//
// Contracts the service leans on:
//   * The factory runs exactly once per resident key, outside the cache
//     lock. Concurrent Acquires for the same key block until the first
//     finishes creating, then share the session.
//   * A Handle pins its entry: pinned entries are never evicted, so budget
//     pressure can never drop a session mid-Check.
//   * A miss evicts idle entries, least recently used first, until there is
//     room. When every entry is pinned it inserts anyway, so residency can
//     exceed the capacity by the entries pinned at that moment; it stays
//     over until the next miss (or TrimTo) evicts the excess once idle.
//     Callers never block on eviction, and every session is a cached one,
//     so one key never has two live sessions.
//   * Each entry carries a run mutex; sessions are not safe for concurrent
//     Check calls, so the service serializes per-session runs through it.
//
// Header-only template so tests can exercise the policy with a toy session
// type instead of paying for real alias analysis.
#ifndef GRAPPLE_SRC_SERVICE_SESSION_CACHE_H_
#define GRAPPLE_SRC_SERVICE_SESSION_CACHE_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

namespace grapple {

template <typename Session>
class SessionCache {
 private:
  struct Entry;

 public:
  using Factory = std::function<std::unique_ptr<Session>()>;
  // Called (outside the cache lock) with each evicted session, before it is
  // destroyed. Work-dir cleanup hangs off this in the service.
  using EvictHook = std::function<void(uint64_t key, Session* session)>;

  struct Stats {
    uint64_t hits = 0;        // Acquire found a created entry
    uint64_t misses = 0;      // Acquire created a new resident entry
    uint64_t evictions = 0;   // entries dropped (capacity or TrimTo)
    size_t resident = 0;
    size_t pinned = 0;        // entries with at least one live handle
  };

  // A pinned session. While any handle to an entry is alive the entry cannot
  // be evicted.
  class Handle {
   public:
    Handle() = default;
    ~Handle() { Release(); }
    Handle(Handle&& other) noexcept { *this = std::move(other); }
    Handle& operator=(Handle&& other) noexcept {
      if (this != &other) {
        Release();
        cache_ = other.cache_;
        entry_ = std::move(other.entry_);
        warm_ = other.warm_;
        other.cache_ = nullptr;
        other.warm_ = false;
      }
      return *this;
    }
    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;

    bool valid() const { return entry_ != nullptr; }
    // True when this session had already been created by an earlier Acquire.
    bool warm() const { return warm_; }

    Session* session() const { return entry_->session.get(); }

    // Serializes Check runs on the shared session.
    std::mutex& run_mu() const { return entry_->run_mu; }

    void Release() {
      if (entry_ != nullptr && cache_ != nullptr) {
        cache_->Unpin(entry_);
      }
      entry_ = nullptr;
      cache_ = nullptr;
      warm_ = false;
    }

   private:
    friend class SessionCache;

    SessionCache* cache_ = nullptr;
    std::shared_ptr<Entry> entry_;
    bool warm_ = false;
  };

  // `capacity` bounds resident sessions; 0 degrades to 1.
  explicit SessionCache(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

  ~SessionCache() { TrimTo(0); }

  SessionCache(const SessionCache&) = delete;
  SessionCache& operator=(const SessionCache&) = delete;

  void set_evict_hook(EvictHook hook) {
    std::lock_guard<std::mutex> lock(mu_);
    evict_hook_ = std::move(hook);
  }

  // Returns a pinned handle for `key`, creating the session via `factory`
  // on a miss. Returns an invalid handle only when the factory itself
  // returns null; an exception from the factory withdraws the entry, as a
  // null does, and propagates.
  Handle Acquire(uint64_t key, const Factory& factory) {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      auto it = entries_.find(key);
      if (it != entries_.end()) {
        std::shared_ptr<Entry> entry = it->second;
        if (entry->creating) {
          cv_.wait(lock, [&] { return !entry->creating; });
          // The creator may have failed and removed the entry; re-resolve.
          continue;
        }
        ++entry->pins;
        entry->last_used = ++use_clock_;
        ++hits_;
        Handle handle;
        handle.cache_ = this;
        handle.entry_ = std::move(entry);
        handle.warm_ = true;
        return handle;
      }
      break;
    }
    // Miss. Make room as far as idle entries allow; the rest is pinned and
    // the new entry goes in over capacity.
    std::vector<std::shared_ptr<Entry>> victims;  // freed outside mu_
    std::shared_ptr<Entry> victim;
    while (entries_.size() >= capacity_ && EvictOneLocked(&victim)) {
      victims.push_back(std::move(victim));
    }
    auto entry = std::make_shared<Entry>();
    entry->key = key;
    entry->creating = true;
    entry->pins = 1;
    entry->last_used = ++use_clock_;
    entries_.emplace(key, entry);
    ++misses_;
    lock.unlock();

    for (auto& evicted : victims) {
      DestroyEvicted(std::move(evicted));
    }
    std::unique_ptr<Session> session;
    std::exception_ptr error;
    try {
      session = factory();
    } catch (...) {
      error = std::current_exception();
    }

    lock.lock();
    entry->creating = false;
    if (session == nullptr) {
      // Creation failed: withdraw the entry so a later Acquire can retry.
      entry->pins = 0;
      entries_.erase(key);
      cv_.notify_all();
      if (error != nullptr) {
        std::rethrow_exception(error);
      }
      return Handle();
    }
    entry->session = std::move(session);
    cv_.notify_all();
    Handle handle;
    handle.cache_ = this;
    handle.entry_ = std::move(entry);
    handle.warm_ = false;
    return handle;
  }

  // Evicts unpinned entries, least recently used first, until at most
  // `target` remain resident. Pinned (in-flight) entries are skipped, so
  // this can leave more than `target` resident. Returns the evicted count.
  size_t TrimTo(size_t target) {
    size_t evicted = 0;
    for (;;) {
      std::shared_ptr<Entry> victim;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (entries_.size() <= target || !EvictOneLocked(&victim)) {
          break;
        }
      }
      DestroyEvicted(std::move(victim));
      ++evicted;
    }
    return evicted;
  }

  Stats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    Stats stats;
    stats.hits = hits_;
    stats.misses = misses_;
    stats.evictions = evictions_;
    stats.resident = entries_.size();
    for (const auto& [key, entry] : entries_) {
      if (entry->pins > 0) {
        ++stats.pinned;
      }
    }
    return stats;
  }

  size_t resident() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
  }

 private:
  struct Entry {
    uint64_t key = 0;
    std::unique_ptr<Session> session;
    bool creating = false;
    size_t pins = 0;
    uint64_t last_used = 0;
    std::mutex run_mu;
  };

  void Unpin(const std::shared_ptr<Entry>& entry) {
    std::lock_guard<std::mutex> lock(mu_);
    --entry->pins;
  }

  // Removes the least recently used unpinned, fully created entry under mu_.
  // The caller destroys *victim outside the lock via DestroyEvicted.
  bool EvictOneLocked(std::shared_ptr<Entry>* victim) {
    auto best = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      const auto& entry = it->second;
      if (entry->pins > 0 || entry->creating) {
        continue;
      }
      if (best == entries_.end() || entry->last_used < best->second->last_used) {
        best = it;
      }
    }
    if (best == entries_.end()) {
      return false;
    }
    *victim = std::move(best->second);
    entries_.erase(best);
    ++evictions_;
    return true;
  }

  void DestroyEvicted(std::shared_ptr<Entry> victim) {
    if (victim == nullptr) {
      return;
    }
    EvictHook hook;
    {
      std::lock_guard<std::mutex> lock(mu_);
      hook = evict_hook_;
    }
    if (hook) {
      hook(victim->key, victim->session.get());
    }
  }

  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<uint64_t, std::shared_ptr<Entry>> entries_;
  uint64_t use_clock_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
  EvictHook evict_hook_;
};

}  // namespace grapple

#endif  // GRAPPLE_SRC_SERVICE_SESSION_CACHE_H_
