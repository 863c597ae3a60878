// TaskRuntime scheduling semantics: stealing under contention, lane
// priority and non-starvation, affinity homing, strand FIFO/mutual
// exclusion, inline help-execution, and shutdown draining. The engine-level
// "byte-identical results for any worker count" guarantee is covered by
// core/runtime_determinism_test.cc; this file pins the scheduler mechanics
// those guarantees are built on.
//
// Own binary: several tests park worker threads on purpose.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <functional>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/support/task_runtime.h"

namespace grapple {
namespace {

// Bounded spin so a scheduling bug fails the assertion instead of hanging
// the suite. 5 s is orders of magnitude above any expected wait here.
bool SpinUntil(const std::function<bool()>& pred) {
  for (int i = 0; i < 5000; ++i) {
    if (pred()) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

TEST(TaskRuntimeTest, StealUnderContentionRunsAllTasksAcrossWorkers) {
  // Every task is homed on the same worker; the other three workers must
  // steal the hinted backlog in their second (take-anything) pass, and
  // nothing may be lost or run twice.
  TaskRuntime runtime(4);
  constexpr int kTasks = 256;
  std::atomic<int> ran{0};
  std::mutex mu;
  std::set<std::thread::id> executors;
  {
    TaskGroup group(&runtime);
    for (int i = 0; i < kTasks; ++i) {
      group.Submit(TaskLane::kForeground, /*affinity=*/4, [&] {
        // Enough work per task that the home worker cannot race through
        // the whole queue before the thieves wake.
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        std::lock_guard<std::mutex> lock(mu);
        executors.insert(std::this_thread::get_id());
        ran.fetch_add(1);
      });
    }
    group.Wait();
  }
  EXPECT_EQ(ran.load(), kTasks);
  TaskRuntimeStats stats = runtime.Stats();
  EXPECT_EQ(stats.affine_tasks, static_cast<uint64_t>(kTasks));
  EXPECT_GT(stats.steals, 0u);
  EXPECT_GE(stats.queue_peak, 1u);
  // 256 x 200us on one core is ~51ms of runway; thieves certainly joined.
  EXPECT_GE(executors.size(), 2u);
}

TEST(TaskRuntimeTest, LocalityAwareStealTakesUnhintedWorkFirst) {
  // Park both workers on blocker tasks, queue one pair-affine task A and
  // one unhinted task P on worker 0's deque (in that FIFO order), then free
  // only the worker-1 thread and record the order in which it executes the
  // backlog.
  TaskRuntime runtime(2);
  std::atomic<int> started{0};
  std::array<std::atomic<bool>, 2> release{};
  std::array<std::thread::id, 2> blocker_tid;
  for (int b = 0; b < 2; ++b) {
    // Plain affinity: blocker 0 homes on worker 0, blocker 1 on worker 1
    // via round-robin — but either may be stolen, so we record the thread
    // each actually landed on instead of assuming.
    runtime.Submit(TaskLane::kForeground, /*affinity=*/0, [&, b] {
      blocker_tid[b] = std::this_thread::get_id();
      started.fetch_add(1);
      while (!release[b].load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  EXPECT_TRUE(SpinUntil([&] { return started.load() == 2; }));

  std::mutex order_mu;
  std::vector<std::string> order;
  auto record = [&](const char* name) {
    std::lock_guard<std::mutex> lock(order_mu);
    order.push_back(name);
  };
  // Both queued on worker 0: A by affinity (2 % 2 workers = 0), P by the
  // round-robin counter (two plain blockers consumed slots 0 and 1).
  runtime.Submit(TaskLane::kForeground, /*affinity=*/2, [&] { record("A"); });
  runtime.Submit(TaskLane::kForeground, /*affinity=*/0, [&] { record("P"); });

  // Free exactly the blocker running on worker 1's thread. Worker 0 stays
  // parked, so the only way the backlog runs is worker 1 stealing it.
  int free_me = blocker_tid[0] == runtime.WorkerThreadId(1) ? 0 : 1;
  release[free_me].store(true);
  EXPECT_TRUE(SpinUntil([&] {
    std::lock_guard<std::mutex> lock(order_mu);
    return order.size() == 2;
  }));
  EXPECT_GE(runtime.Stats().steals, 2u);
  release[1 - free_me].store(true);
  // A was queued first, but it carries a locality hint for the parked
  // worker; the thief's first pass skips it and takes P, and only the
  // nothing-better-to-do second pass takes A.
  EXPECT_EQ(order, (std::vector<std::string>{"P", "A"}));
}

// Parks the single worker of `runtime` on a blocker task and returns once
// the blocker is running. Caller sets *release to let the worker go.
void ParkSoleWorker(TaskRuntime* runtime, std::atomic<bool>* release) {
  std::atomic<bool> started{false};
  runtime->Submit(TaskLane::kForeground, /*affinity=*/0, [release, &started] {
    started.store(true);
    while (!release->load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  EXPECT_TRUE(SpinUntil([&] { return started.load(); }));
}

TEST(TaskRuntimeTest, ForegroundLaneRunsBeforeWriteBehindBacklog) {
  TaskRuntime runtime(1);
  std::atomic<bool> release{false};
  ParkSoleWorker(&runtime, &release);

  std::mutex order_mu;
  std::vector<std::string> order;
  auto submit = [&](TaskLane lane, std::string name) {
    runtime.Submit(lane, /*affinity=*/0, [&, name] {
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(name);
    });
  };
  // Write-behind queued BEFORE foreground; priority must still invert it.
  for (int i = 0; i < 6; ++i) {
    submit(TaskLane::kWriteBehind, "W" + std::to_string(i));
  }
  for (int i = 0; i < 3; ++i) {
    submit(TaskLane::kForeground, "F" + std::to_string(i));
  }
  release.store(true);
  EXPECT_TRUE(SpinUntil([&] {
    std::lock_guard<std::mutex> lock(order_mu);
    return order.size() == 9;
  }));
  EXPECT_EQ(order, (std::vector<std::string>{"F0", "F1", "F2", "W0", "W1", "W2", "W3", "W4",
                                             "W5"}));
}

TEST(TaskRuntimeTest, WriteBehindIsNotStarvedByForegroundBacklog) {
  TaskRuntime runtime(1);
  std::atomic<bool> release{false};
  ParkSoleWorker(&runtime, &release);

  std::mutex order_mu;
  std::vector<int> write_behind_pos;
  std::atomic<int> pos{0};
  for (int i = 0; i < 12; ++i) {
    runtime.Submit(TaskLane::kForeground, /*affinity=*/0, [&] { pos.fetch_add(1); });
  }
  runtime.Submit(TaskLane::kWriteBehind, /*affinity=*/0, [&] {
    std::lock_guard<std::mutex> lock(order_mu);
    write_behind_pos.push_back(pos.fetch_add(1));
  });
  release.store(true);
  EXPECT_TRUE(SpinUntil([&] { return pos.load() == 13; }));
  // Weighted round-robin gives write-behind a service slot after at most
  // one foreground credit round — nowhere near the back of the 12-deep
  // foreground backlog.
  ASSERT_EQ(write_behind_pos.size(), 1u);
  EXPECT_LE(write_behind_pos[0], 6);
}

TEST(TaskRuntimeTest, StrandsRunFifoAndMutuallyExcludedPerKey) {
  // Four workers: pumps for one key are homed together, so the other three
  // steal them in their second pass — the exclusion is under contention.
  TaskRuntime runtime(4);
  constexpr int kPerKey = 64;
  struct KeyState {
    std::atomic<int> active{0};
    std::atomic<bool> violation{false};
    std::mutex mu;
    std::vector<int> order;
  };
  KeyState a;
  KeyState b;
  auto submit = [&](const std::string& key, KeyState* state, int i) {
    runtime.SubmitSerial(key, TaskLane::kPrefetch, [state, i] {
      if (state->active.fetch_add(1) != 0) {
        state->violation.store(true);
      }
      {
        std::lock_guard<std::mutex> lock(state->mu);
        state->order.push_back(i);
      }
      state->active.fetch_sub(1);
    });
  };
  for (int i = 0; i < kPerKey; ++i) {
    submit("a", &a, i);
    submit("b", &b, i);
  }
  runtime.WaitSerial("a");
  runtime.WaitSerial("b");
  EXPECT_FALSE(a.violation.load());
  EXPECT_FALSE(b.violation.load());
  std::vector<int> expected(kPerKey);
  for (int i = 0; i < kPerKey; ++i) {
    expected[i] = i;
  }
  EXPECT_EQ(a.order, expected);
  EXPECT_EQ(b.order, expected);
  EXPECT_EQ(runtime.Stats().strand_tasks, static_cast<uint64_t>(2 * kPerKey));
}

TEST(TaskRuntimeTest, WaitSerialDrainsInlineWhenAllWorkersAreBusy) {
  // The partition store's deadlock-avoidance path: a checker task (here the
  // main thread) waits on an I/O strand while every worker is occupied.
  // WaitSerial must execute the strand itself rather than deadlock.
  TaskRuntime runtime(1);
  std::atomic<bool> release{false};
  ParkSoleWorker(&runtime, &release);

  constexpr int kTasks = 8;
  std::mutex mu;
  std::vector<std::thread::id> executors;
  for (int i = 0; i < kTasks; ++i) {
    runtime.SubmitSerial("k", TaskLane::kWriteBehind, [&] {
      std::lock_guard<std::mutex> lock(mu);
      executors.push_back(std::this_thread::get_id());
    });
  }
  runtime.WaitSerial("k");
  ASSERT_EQ(executors.size(), static_cast<size_t>(kTasks));
  for (const auto& tid : executors) {
    EXPECT_EQ(tid, std::this_thread::get_id());
  }
  EXPECT_GE(runtime.Stats().inline_tasks, static_cast<uint64_t>(kTasks));
  release.store(true);
}

TEST(TaskRuntimeTest, ShutdownDrainsQueuedStrandBacklog) {
  std::atomic<int> count{0};
  {
    TaskRuntime runtime(2);
    for (int i = 0; i < 40; ++i) {
      runtime.SubmitSerial("s" + std::to_string(i % 4), TaskLane::kWriteBehind,
                           [&] { count.fetch_add(1); });
    }
    // Destructor must run every queued strand task before joining.
  }
  EXPECT_EQ(count.load(), 40);
}

}  // namespace
}  // namespace grapple
