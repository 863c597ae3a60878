#include "src/support/task_runtime.h"

#include <chrono>

#include "src/support/byte_io.h"
#include "src/support/env.h"
#include "src/support/event_hook.h"
#include "src/support/timer.h"

namespace grapple {
namespace {

// FNV-1a over the strand key, used as its pumps' affinity: one file's I/O
// tasks home on one worker.
uint64_t HashKey(const std::string& key) {
  uint64_t h = Fnv1a64(reinterpret_cast<const uint8_t*>(key.data()), key.size(),
                       1469598103934665603ull);
  return h == 0 ? 1 : h;  // 0 means "no affinity"
}

// Weighted round-robin service credits per lane: a worker serves up to
// kLaneWeights[l] lane-l tasks before offering the next lane a turn.
constexpr std::array<uint32_t, kNumTaskLanes> kLaneWeights = {4, 2, 1};

void MaxRelaxed(std::atomic<uint64_t>* slot, uint64_t value) {
  uint64_t seen = slot->load(std::memory_order_relaxed);
  while (value > seen &&
         !slot->compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

size_t ResolveThreadCount(size_t requested) {
  return requested == 0 ? HardwareThreads() : requested;
}

void TaskGroup::Submit(TaskLane lane, uint64_t affinity, std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++outstanding_;
  }
  TaskRuntime::Task task;
  task.fn = std::move(fn);
  task.group = this;
  task.affinity = affinity;
  task.lane = static_cast<uint8_t>(lane);
  runtime_->Enqueue(std::move(task));
}

void TaskGroup::Wait() {
  // Help-execute this group's unclaimed tasks first: even when every
  // worker is occupied (e.g. by the checker tasks that submitted us), the
  // waiting thread drains its own fan-out instead of deadlocking.
  while (true) {
    TaskRuntime::Task task;
    if (runtime_->PopGroupTask(this, &task)) {
      runtime_->RunTask(task, /*executor=*/0, /*inline_help=*/true);
      continue;
    }
    // Nothing left to claim. Tasks are only submitted before Wait(), so
    // every remaining one is running on a worker; sleep until the count
    // hits zero. Notify happens under mu_, so waking and returning (and
    // the caller destroying the group) cannot race the finisher.
    std::unique_lock<std::mutex> lock(mu_);
    if (outstanding_ == 0) {
      return;
    }
    evt::Emit(evt::kWaitBegin, evt::kWaitTask);
    done_cv_.wait(lock, [this] { return outstanding_ == 0; });
    evt::Emit(evt::kWaitEnd, evt::kWaitTask);
    return;
  }
}

TaskRuntime::TaskRuntime(size_t workers) {
  size_t count = ResolveThreadCount(workers);
  workers_.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  for (size_t i = 0; i < count; ++i) {
    workers_[i]->thread = std::thread([this, i] { WorkerLoop(i); });
  }
}

TaskRuntime::~TaskRuntime() {
  {
    std::lock_guard<std::mutex> lock(sleep_mu_);
    stop_.store(true, std::memory_order_release);
  }
  for (auto& worker : workers_) {
    worker->wake_cv.notify_all();
  }
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) {
      worker->thread.join();
    }
  }
}

void TaskRuntime::Submit(TaskLane lane, uint64_t affinity, std::function<void()> fn) {
  Task task;
  task.fn = std::move(fn);
  task.affinity = affinity;
  task.lane = static_cast<uint8_t>(lane);
  Enqueue(std::move(task));
}

void TaskRuntime::Enqueue(Task task) {
  size_t count = workers_.size();
  size_t home = task.affinity != 0
                    ? static_cast<size_t>(task.affinity % count)
                    : static_cast<size_t>(
                          next_home_.fetch_add(1, std::memory_order_relaxed) % count);
  task.home = static_cast<uint32_t>(home);
  if (task.affinity != 0) {
    stat_affine_tasks_.fetch_add(1, std::memory_order_relaxed);
  }
  {
    std::lock_guard<std::mutex> lock(workers_[home]->mu);
    workers_[home]->lanes[task.lane].push_back(std::move(task));
  }
  // queued_ counts queued *and running* tasks; it is decremented only
  // after a task body (including any continuation it submits) returns, so
  // workers never observe a transient zero and exit mid-drain.
  uint64_t depth = queued_.fetch_add(1, std::memory_order_relaxed) + 1;
  MaxRelaxed(&stat_queue_peak_, depth);
  // Publish before the wake decision: a worker that parks concurrently
  // rechecks unclaimed_ under sleep_mu_, so either it sees this task and
  // rescans, or it registers as sleeping first and WakeOne targets it.
  unclaimed_.fetch_add(1, std::memory_order_release);
  WakeOne(home);
}

void TaskRuntime::WakeOne(size_t home) {
  // Waking exactly one parked worker (instead of broadcasting) matters on
  // small machines: every futex wake is a preemption point for the
  // submitting thread, and a herd of woken workers charges their warm-up
  // scans to whatever the submitter was doing.
  Worker* target = nullptr;
  {
    std::lock_guard<std::mutex> lock(sleep_mu_);
    if (workers_[home]->sleeping) {
      target = workers_[home].get();
    } else {
      for (auto& worker : workers_) {
        if (worker->sleeping) {
          target = worker.get();
          break;
        }
      }
    }
    if (target != nullptr) {
      // Clear the flag on the waker's side so a second Enqueue racing in
      // picks a different sleeper instead of double-notifying this one.
      target->sleeping = false;
    }
  }
  if (target != nullptr) {
    target->wake_cv.notify_one();
  }
}

void TaskRuntime::WorkerLoop(size_t self) {
  Worker& me = *workers_[self];
  while (true) {
    Task task;
    // Pass 1 steals only unhinted tasks — stealing a pair-affine task
    // wastes the prefetch its home worker's Hint() issued. Pass 2 takes
    // anything rather than idling.
    if (PopLocal(self, &task) || StealScan(self, /*locality_pass=*/true, &task) ||
        StealScan(self, /*locality_pass=*/false, &task)) {
      RunTask(task, self, /*inline_help=*/false);
      continue;
    }
    std::unique_lock<std::mutex> lock(sleep_mu_);
    if (stop_.load(std::memory_order_acquire) &&
        queued_.load(std::memory_order_acquire) == 0) {
      return;
    }
    // Recheck for work before parking — a push may have landed between the
    // failed scan and taking sleep_mu_, and its targeted wake may already
    // have fired. sleep_mu_ orders this against WakeOne, so a push is
    // either seen here or finds `sleeping` set and notifies.
    if (unclaimed_.load(std::memory_order_acquire) > 0) {
      continue;
    }
    me.sleeping = true;
    // Timed wait as a backstop: the timeout re-checks shutdown, so a
    // worker's exit never depends on a notify alone.
    me.wake_cv.wait_for(lock, std::chrono::milliseconds(10));
    me.sleeping = false;
  }
}

bool TaskRuntime::PopLocal(size_t self, Task* out) {
  Worker& w = *workers_[self];
  std::lock_guard<std::mutex> lock(w.mu);
  // Weighted round-robin: serve up to weight[l] tasks from the highest
  // non-empty lane whose credit remains, so foreground work preempts
  // background lanes without ever starving them outright.
  for (int attempt = 0; attempt < 2; ++attempt) {
    bool any = false;
    for (size_t lane = 0; lane < kNumTaskLanes; ++lane) {
      if (w.lanes[lane].empty()) {
        continue;
      }
      any = true;
      if (w.credits[lane] == 0) {
        continue;
      }
      --w.credits[lane];
      *out = std::move(w.lanes[lane].front());
      w.lanes[lane].pop_front();
      unclaimed_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
    if (!any) {
      return false;
    }
    // Every non-empty lane has exhausted its credit: start a new round.
    w.credits = kLaneWeights;
  }
  return false;
}

bool TaskRuntime::StealScan(size_t self, bool locality_pass, Task* out) {
  size_t count = workers_.size();
  for (size_t k = 1; k < count; ++k) {
    Worker& victim = *workers_[(self + k) % count];
    std::lock_guard<std::mutex> lock(victim.mu);
    for (size_t lane = 0; lane < kNumTaskLanes; ++lane) {
      auto& queue = victim.lanes[lane];
      for (auto it = queue.begin(); it != queue.end(); ++it) {
        if (locality_pass && it->affinity != 0) {
          continue;
        }
        *out = std::move(*it);
        queue.erase(it);
        unclaimed_.fetch_sub(1, std::memory_order_relaxed);
        return true;
      }
    }
  }
  return false;
}

bool TaskRuntime::PopGroupTask(TaskGroup* group, Task* out) {
  for (auto& worker : workers_) {
    std::lock_guard<std::mutex> lock(worker->mu);
    for (size_t lane = 0; lane < kNumTaskLanes; ++lane) {
      auto& queue = worker->lanes[lane];
      for (auto it = queue.begin(); it != queue.end(); ++it) {
        if (it->group == group) {
          *out = std::move(*it);
          queue.erase(it);
          unclaimed_.fetch_sub(1, std::memory_order_relaxed);
          return true;
        }
      }
    }
  }
  return false;
}

void TaskRuntime::RunTask(Task& task, size_t executor, bool inline_help) {
  if (inline_help) {
    stat_inline_.fetch_add(1, std::memory_order_relaxed);
  } else if (executor != task.home) {
    stat_steals_.fetch_add(1, std::memory_order_relaxed);
  } else if (task.affinity != 0) {
    stat_affine_hits_.fetch_add(1, std::memory_order_relaxed);
  }
  WallTimer timer;
  task.fn();
  stat_busy_ns_[task.lane].fetch_add(timer.ElapsedNanos(), std::memory_order_relaxed);
  stat_tasks_[task.lane].fetch_add(1, std::memory_order_relaxed);
  if (task.group != nullptr) {
    FinishGroupTask(task.group);
  }
  if (queued_.fetch_sub(1, std::memory_order_acq_rel) == 1 &&
      stop_.load(std::memory_order_acquire)) {
    // Last task during shutdown: wake every parked worker so all observe
    // queued_ == 0 and exit without waiting out the 10ms backstop.
    { std::lock_guard<std::mutex> lock(sleep_mu_); }
    for (auto& worker : workers_) {
      worker->wake_cv.notify_all();
    }
  }
}

void TaskRuntime::FinishGroupTask(TaskGroup* group) {
  // Notify under the lock: the waiter re-acquires mu_ before returning (and
  // possibly destroying the group), which orders it after our unlock.
  std::lock_guard<std::mutex> lock(group->mu_);
  if (--group->outstanding_ == 0) {
    group->done_cv_.notify_all();
  }
}

void TaskRuntime::SubmitSerial(const std::string& key, TaskLane lane,
                               std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(strands_mu_);
    strands_[key].q.push_back(std::move(fn));
  }
  // One pump per queued fn; each pump runs at most one strand task. A pump
  // that finds the strand owned no-ops — the owner resubmits a pump for
  // any backlog it leaves behind, so nothing is stranded.
  std::string pump_key = key;
  Submit(lane, HashKey(key), [this, pump_key] { PumpStrand(pump_key, /*from_worker=*/true); });
}

void TaskRuntime::PumpStrand(const std::string& key, bool from_worker) {
  std::unique_lock<std::mutex> lock(strands_mu_);
  auto it = strands_.find(key);
  if (it == strands_.end() || it->second.owned || it->second.q.empty()) {
    return;
  }
  it->second.owned = true;
  std::function<void()> fn = std::move(it->second.q.front());
  it->second.q.pop_front();
  lock.unlock();
  stat_strand_tasks_.fetch_add(1, std::memory_order_relaxed);
  fn();
  lock.lock();
  it = strands_.find(key);  // rehash may have moved the bucket
  it->second.owned = false;
  bool backlog = !it->second.q.empty();
  if (!backlog) {
    strands_.erase(it);
  }
  lock.unlock();
  strand_cv_.notify_all();
  if (backlog && from_worker) {
    std::string pump_key = key;
    Submit(TaskLane::kWriteBehind, HashKey(key),
           [this, pump_key] { PumpStrand(pump_key, /*from_worker=*/true); });
  }
}

void TaskRuntime::WaitSerial(const std::string& key, evt::WaitKind wait_kind) {
  std::unique_lock<std::mutex> lock(strands_mu_);
  while (true) {
    auto it = strands_.find(key);
    if (it == strands_.end() || (it->second.q.empty() && !it->second.owned)) {
      return;
    }
    if (!it->second.owned && !it->second.q.empty()) {
      // Unclaimed backlog: drain it inline rather than waiting for a
      // worker (every worker may be busy with checker tasks).
      it->second.owned = true;
      std::function<void()> fn = std::move(it->second.q.front());
      it->second.q.pop_front();
      lock.unlock();
      stat_strand_tasks_.fetch_add(1, std::memory_order_relaxed);
      stat_inline_.fetch_add(1, std::memory_order_relaxed);
      fn();
      lock.lock();
      it = strands_.find(key);
      it->second.owned = false;
      strand_cv_.notify_all();
      continue;
    }
    // Owned by a worker pump (or another waiter): it runs exactly one task
    // and notifies when it releases ownership.
    evt::Emit(evt::kWaitBegin, wait_kind);
    strand_cv_.wait(lock);
    evt::Emit(evt::kWaitEnd, wait_kind);
  }
}

TaskRuntimeStats TaskRuntime::Stats() const {
  TaskRuntimeStats stats;
  for (size_t lane = 0; lane < kNumTaskLanes; ++lane) {
    stats.tasks[lane] = stat_tasks_[lane].load(std::memory_order_relaxed);
    stats.busy_ns[lane] = stat_busy_ns_[lane].load(std::memory_order_relaxed);
  }
  stats.steals = stat_steals_.load(std::memory_order_relaxed);
  stats.affine_tasks = stat_affine_tasks_.load(std::memory_order_relaxed);
  stats.affine_hits = stat_affine_hits_.load(std::memory_order_relaxed);
  stats.inline_tasks = stat_inline_.load(std::memory_order_relaxed);
  stats.strand_tasks = stat_strand_tasks_.load(std::memory_order_relaxed);
  stats.queue_peak = stat_queue_peak_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace grapple
