// Admission-queue fairness contract (src/service/admission_queue.h):
// FIFO per (tenant, priority), round-robin across tenants within a
// priority class, strict priority across classes, bounded depth with
// explicit rejection, and a shutdown that hands unrun work back.
#include "src/service/admission_queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <thread>
#include <vector>

namespace grapple {
namespace {

// Enqueues a no-op for `tenant` and returns its ticket (0 = rejected).
uint64_t Push(AdmissionQueue& queue, const std::string& tenant,
              int priority = kPriorityInteractive) {
  return queue.TryEnqueue(tenant, priority, [] {}, nullptr);
}

TEST(AdmissionQueueTest, FifoPerTenant) {
  AdmissionQueue queue(16);
  uint64_t t1 = Push(queue, "a");
  uint64_t t2 = Push(queue, "a");
  uint64_t t3 = Push(queue, "a");
  ASSERT_LT(t1, t2);
  ASSERT_LT(t2, t3);
  AdmissionItem item;
  ASSERT_TRUE(queue.Dequeue(&item));
  EXPECT_EQ(item.ticket, t1);
  ASSERT_TRUE(queue.Dequeue(&item));
  EXPECT_EQ(item.ticket, t2);
  ASSERT_TRUE(queue.Dequeue(&item));
  EXPECT_EQ(item.ticket, t3);
}

TEST(AdmissionQueueTest, RoundRobinAcrossTenants) {
  AdmissionQueue queue(16);
  // Tenant a floods before b shows up at all.
  Push(queue, "a");
  Push(queue, "a");
  Push(queue, "a");
  Push(queue, "b");
  std::vector<std::string> order;
  AdmissionItem item;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(queue.Dequeue(&item));
    order.push_back(item.tenant);
  }
  // b is served after a single a-dispatch, not after the whole flood.
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "a", "a"}));
}

TEST(AdmissionQueueTest, InteractiveJumpsAheadOfBatch) {
  AdmissionQueue queue(16);
  Push(queue, "a", kPriorityBatch);
  Push(queue, "a", kPriorityBatch);
  uint64_t interactive = Push(queue, "b", kPriorityInteractive);
  AdmissionItem item;
  ASSERT_TRUE(queue.Dequeue(&item));
  EXPECT_EQ(item.ticket, interactive);
  EXPECT_EQ(item.priority, kPriorityInteractive);
}

TEST(AdmissionQueueTest, CapacityBoundsDepthAndRejectsWithReason) {
  AdmissionQueue queue(2);
  EXPECT_NE(Push(queue, "a"), 0u);
  EXPECT_NE(Push(queue, "a"), 0u);
  std::string why;
  EXPECT_EQ(queue.TryEnqueue("a", kPriorityInteractive, [] {}, &why), 0u);
  EXPECT_NE(why.find("full"), std::string::npos);
  AdmissionStats stats = queue.Stats();
  EXPECT_EQ(stats.depth, 2u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.admitted, 2u);
}

TEST(AdmissionQueueTest, ShutdownReturnsUnrunWorkAndWakesConsumers) {
  AdmissionQueue queue(16);
  std::atomic<int> ran{0};
  queue.TryEnqueue("a", kPriorityInteractive, [&] { ran.fetch_add(1); }, nullptr);
  queue.TryEnqueue("b", kPriorityInteractive, [&] { ran.fetch_add(1); }, nullptr);
  std::thread consumer([&] {
    AdmissionItem item;
    // Blocks until shutdown, then returns false with nothing left to take.
    while (queue.Dequeue(&item)) {
      item.fn();
    }
  });
  // Give the consumer a chance to drain; then race shutdown against it.
  std::vector<AdmissionItem> leftover = queue.ShutdownAndDrain();
  consumer.join();
  // Every item either ran on the consumer or came back unrun — no loss, no
  // double dispatch.
  EXPECT_EQ(static_cast<size_t>(ran.load()) + leftover.size(), 2u);
  std::string why;
  EXPECT_EQ(queue.TryEnqueue("a", kPriorityInteractive, [] {}, &why), 0u);
  EXPECT_NE(why.find("shutting down"), std::string::npos);
}

// The fairness contract under a flood: N flooding tenants are fully queued
// before a victim tenant's one request — the worst case for the victim. It
// must be served long before the floods drain (no starvation), per-tenant
// dispatch must be FIFO, and with a concurrent consumer pool every admitted
// item must run exactly once. Order is checked with a single consumer, whose
// recorded order is dispatch order: a pool consumer can be descheduled
// between Dequeue returning and recording, so the pool checks the count only.
TEST(AdmissionQueueTest, FloodingTenantsCannotStarveOthers) {
  constexpr int kFloodTenants = 3;
  constexpr int kPerTenant = 40;
  constexpr int kTotal = kFloodTenants * kPerTenant + 1;

  // Queues the floods, then the victim; returns the victim's ticket. Each
  // item's fn counts its runs in runs[ticket] (tickets start at 1).
  auto fill = [](AdmissionQueue* queue, std::vector<std::atomic<int>>* runs) {
    auto count_run = [runs](uint64_t ticket) {
      return [runs, ticket] { (*runs)[ticket].fetch_add(1); };
    };
    for (int t = 0; t < kFloodTenants; ++t) {
      std::string tenant = "flood" + std::to_string(t);
      for (int i = 0; i < kPerTenant; ++i) {
        uint64_t ticket = t * kPerTenant + i + 1;
        EXPECT_EQ(queue->TryEnqueue(tenant, kPriorityInteractive, count_run(ticket), nullptr),
                  ticket);
      }
    }
    uint64_t victim = queue->TryEnqueue("victim", kPriorityInteractive, count_run(kTotal), nullptr);
    EXPECT_EQ(victim, static_cast<uint64_t>(kTotal));
    return victim;
  };

  // Single consumer: the victim's position and per-tenant FIFO.
  {
    AdmissionQueue queue(kTotal + 8);
    std::vector<std::atomic<int>> runs(kTotal + 1);
    uint64_t victim_ticket = fill(&queue, &runs);
    std::map<std::string, std::vector<uint64_t>> dispatch_order;
    int victim_position = -1;
    for (int position = 0; position < kTotal; ++position) {
      AdmissionItem item;
      ASSERT_TRUE(queue.Dequeue(&item));
      if (item.ticket == victim_ticket) {
        victim_position = position;
      }
      dispatch_order[item.tenant].push_back(item.ticket);
    }
    // Round-robin bounds the victim's wait to one dispatch per tenant: it
    // is served within the first rotation, not behind 120 flood requests.
    EXPECT_GE(victim_position, 0);
    EXPECT_LT(victim_position, kFloodTenants + 1);
    for (const auto& [tenant, tickets] : dispatch_order) {
      for (size_t i = 1; i < tickets.size(); ++i) {
        EXPECT_LT(tickets[i - 1], tickets[i]) << "out-of-order dispatch for " << tenant;
      }
    }
  }

  // Four consumers calling Dequeue concurrently: every item runs once.
  {
    AdmissionQueue queue(kTotal + 8);
    std::vector<std::atomic<int>> runs(kTotal + 1);
    fill(&queue, &runs);
    std::atomic<int> dispatched{0};
    std::vector<std::thread> consumers;
    for (int c = 0; c < 4; ++c) {
      consumers.emplace_back([&] {
        AdmissionItem item;
        while (queue.Dequeue(&item)) {
          item.fn();
          dispatched.fetch_add(1);
        }
      });
    }
    // Everything drains; then unblock the consumers parked in Dequeue.
    while (dispatched.load() < kTotal) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_TRUE(queue.ShutdownAndDrain().empty());
    for (auto& consumer : consumers) {
      consumer.join();
    }
    EXPECT_EQ(dispatched.load(), kTotal);
    for (uint64_t ticket = 1; ticket <= kTotal; ++ticket) {
      EXPECT_EQ(runs[ticket].load(), 1) << "ticket " << ticket;
    }
  }
}

}  // namespace
}  // namespace grapple
