// Unified work-stealing task runtime for the superstep pipeline
// (DESIGN.md §14).
//
// One scheduler replaces the twin ad-hoc executors that used to split the
// machine — the generic join ThreadPool plus the partition store's private
// FIFO I/O worker. Every unit of work (join shards, prefetch reads,
// write-behind encodes, whole checker runs) becomes a task on per-worker
// deques, so solve-heavy partition pairs overlap I/O-heavy ones instead of
// fighting over disjoint thread sets.
//
// Scheduling model:
//   * Per-worker deques, one FIFO per priority lane. Submission homes a
//     task on its preferred worker (affinity % workers) or round-robin.
//   * Three priority lanes, serviced by 4:2:1 weighted round-robin so foreground
//     solve work preempts prefetch which preempts write-behind — but lower
//     lanes are never starved (a worker with only write-behind work runs
//     write-behind work).
//   * Stealing is locality-aware: an idle worker first takes tasks without
//     a locality hint and takes somebody else's hinted work only when
//     nothing else exists — a stolen pair-affine task wastes the Hint()
//     prefetch its home worker issued.
//   * Waits help-execute. TaskGroup::Wait() runs the group's own unclaimed
//     tasks inline and WaitSerial() pumps the awaited strand inline, so a
//     blocked caller — even a checker task occupying the last worker —
//     always makes progress. This is what makes it safe to run whole
//     checker trees on the same workers as their leaf tasks.
//   * Serialized-per-key strands (SubmitSerial) give the partition store
//     its per-file I/O ordering: tasks that share a key run FIFO and
//     mutually excluded; distinct keys (files) run concurrently.
//
// Blocking waits are bracketed with evt::kWaitBegin/kWaitEnd(kWaitTask) so
// the sampling profiler attributes scheduler idle time; callers wrap task
// bodies in their own obs::Prof* markers for per-task-kind attribution
// (this layer sits below src/obs and cannot do it for them).
#ifndef GRAPPLE_SRC_SUPPORT_TASK_RUNTIME_H_
#define GRAPPLE_SRC_SUPPORT_TASK_RUNTIME_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/support/event_hook.h"

namespace grapple {

// Priority lanes, highest priority first. Values index lane arrays.
enum class TaskLane : uint8_t {
  kForeground = 0,  // join shards, checker trees — latency critical
  kPrefetch = 1,    // speculative partition reads ahead of the cursor
  kWriteBehind = 2, // background encodes + writes, deferred deletes
};
inline constexpr size_t kNumTaskLanes = 3;

// A thread-count option of 0 means "use the hardware concurrency",
// uniformly wherever workers or shards are sized.
size_t ResolveThreadCount(size_t requested);

// Monotonic counters, snapshotted with Stats(). All totals since
// construction; "affine" means submitted with a nonzero affinity key.
struct TaskRuntimeStats {
  uint64_t tasks[kNumTaskLanes] = {0, 0, 0};
  uint64_t busy_ns[kNumTaskLanes] = {0, 0, 0};  // in-task wall time per lane
  uint64_t steals = 0;        // tasks executed by a non-home worker
  uint64_t affine_tasks = 0;  // tasks carrying a locality hint
  uint64_t affine_hits = 0;   // affine tasks that ran on their home worker
  uint64_t inline_tasks = 0;  // tasks help-executed inside a Wait
  uint64_t strand_tasks = 0;  // serialized tasks run through SubmitSerial
  uint64_t queue_peak = 0;    // max queued tasks observed at submission
};

class TaskRuntime;

// Fan-out/join handle: submit N tasks, Wait() for all of them. Wait()
// help-executes unclaimed tasks of *this group only* — it never pulls
// unrelated work (e.g. another checker's tree) onto the waiting stack.
// Safe to call from worker threads and external threads alike.
class TaskGroup {
 public:
  explicit TaskGroup(TaskRuntime* runtime) : runtime_(runtime) {}
  ~TaskGroup() { Wait(); }
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  // Schedules `fn`; affinity 0 = no locality hint (round-robin home).
  void Submit(TaskLane lane, uint64_t affinity, std::function<void()> fn);
  // Blocks until every task submitted to this group has finished.
  void Wait();

 private:
  friend class TaskRuntime;
  TaskRuntime* runtime_;
  std::mutex mu_;
  std::condition_variable done_cv_;
  size_t outstanding_ = 0;  // guarded by mu_
};

class TaskRuntime {
 public:
  // `workers` threads; 0 = hardware concurrency.
  explicit TaskRuntime(size_t workers = 0);
  // Drains every queued task (groups, strands), then joins the workers.
  ~TaskRuntime();
  TaskRuntime(const TaskRuntime&) = delete;
  TaskRuntime& operator=(const TaskRuntime&) = delete;

  size_t workers() const { return workers_.size(); }
  // Thread id of worker `index`. Introspection for tests and debugging:
  // lets a caller map an observed std::this_thread::get_id() back to the
  // worker that executed a task.
  std::thread::id WorkerThreadId(size_t index) const {
    return workers_[index]->thread.get_id();
  }

  // Fire-and-forget submission (group-less). affinity 0 = no hint.
  void Submit(TaskLane lane, uint64_t affinity, std::function<void()> fn);

  // Serialized-per-key strand: tasks sharing `key` run strictly FIFO and
  // mutually excluded; distinct keys run concurrently. The partition store
  // keys strands by file path, preserving the old single-I/O-worker
  // ordering guarantee per file while letting different files overlap.
  void SubmitSerial(const std::string& key, TaskLane lane, std::function<void()> fn);

  // Blocks until every task queued on `key`'s strand before this call has
  // run. Help-executes the strand inline when no worker has claimed it.
  // Blocked time is bracketed with `wait_kind` (default kWaitTask) so a
  // caller with a more specific cause — e.g. the partition store's I/O
  // barrier — keeps its established wait attribution.
  void WaitSerial(const std::string& key, evt::WaitKind wait_kind = evt::kWaitTask);

  TaskRuntimeStats Stats() const;

 private:
  friend class TaskGroup;

  struct Task {
    std::function<void()> fn;
    TaskGroup* group = nullptr;
    uint64_t affinity = 0;
    uint8_t lane = 0;
    uint32_t home = 0;
  };

  struct Worker {
    std::mutex mu;
    std::array<std::deque<Task>, kNumTaskLanes> lanes;  // guarded by mu
    // Remaining weighted-round-robin service credits (guarded by mu).
    std::array<uint32_t, kNumTaskLanes> credits = {0, 0, 0};
    // Per-worker sleep slot (guarded by sleep_mu_): lets Enqueue wake
    // exactly the worker it wants — the task's home worker when it is
    // parked — instead of broadcasting to the whole pool.
    std::condition_variable wake_cv;
    bool sleeping = false;
    std::thread thread;
  };

  // One per-key FIFO. `owned` is true while some thread (worker pump or
  // inline helper) is executing this strand's front task.
  struct Strand {
    std::deque<std::function<void()>> q;
    bool owned = false;
  };

  void Enqueue(Task task);
  void WorkerLoop(size_t self);
  // Pops the next task from `self`'s own deques honoring kLaneWeights.
  bool PopLocal(size_t self, Task* out);
  // One pass over the other workers' deques; a locality pass skips hinted
  // tasks. False when nothing was taken.
  bool StealScan(size_t self, bool locality_pass, Task* out);
  // Finds and removes an unclaimed task of `group` from any deque.
  bool PopGroupTask(TaskGroup* group, Task* out);
  void RunTask(Task& task, size_t executor, bool inline_help);
  void FinishGroupTask(TaskGroup* group);
  // Runs at most one queued strand task if the strand is unowned. Returns
  // false when the strand is idle (or owned by someone else and `wait` is
  // false). Used by both the worker pump and WaitSerial.
  void PumpStrand(const std::string& key, bool from_worker);

  // Wakes one sleeping worker, preferring the task's home worker. No-op
  // when every worker is awake — they rescan before parking.
  void WakeOne(size_t home);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<uint64_t> next_home_{0};
  std::atomic<size_t> queued_{0};
  // Tasks pushed to a deque but not yet popped by anyone. A worker whose
  // scan came up empty rechecks this under sleep_mu_ before parking, which
  // closes the push-vs-park race without waking already-busy workers.
  std::atomic<uint64_t> unclaimed_{0};
  std::atomic<bool> stop_{false};

  std::mutex sleep_mu_;

  std::mutex strands_mu_;
  std::condition_variable strand_cv_;
  std::unordered_map<std::string, Strand> strands_;  // guarded by strands_mu_

  // Stats (relaxed atomics; snapshotted by Stats()).
  std::atomic<uint64_t> stat_tasks_[kNumTaskLanes] = {};
  std::atomic<uint64_t> stat_busy_ns_[kNumTaskLanes] = {};
  std::atomic<uint64_t> stat_steals_{0};
  std::atomic<uint64_t> stat_affine_tasks_{0};
  std::atomic<uint64_t> stat_affine_hits_{0};
  std::atomic<uint64_t> stat_inline_{0};
  std::atomic<uint64_t> stat_strand_tasks_{0};
  std::atomic<uint64_t> stat_queue_peak_{0};
};

}  // namespace grapple

#endif  // GRAPPLE_SRC_SUPPORT_TASK_RUNTIME_H_
