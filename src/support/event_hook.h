// Process-wide structured-event hook: the support layer's half of the
// flight recorder (DESIGN.md §12).
//
// Low-level code (byte_io retries, fault injection, the task runtime)
// sits below src/obs in the link order, so it cannot call the event log
// directly. Instead it emits through an installable sink function pointer:
// when no sink is installed (unit tests, tools that never touch obs), Emit
// is a single relaxed atomic load and a branch. src/obs/event_log installs
// itself as the sink at first use, after which every Emit lands in the
// per-thread flight-recorder rings.
//
// The same indirection carries the crash-flush hook: fault-injection
// `_exit` paths and GRAPPLE_CHECK aborts call RunCrashFlushHook() so the
// recorder can spill `flightrec.bin` before the process dies. The hook must
// be async-signal-ish: no locks it could self-deadlock on, no allocation on
// the failure path beyond what the dump itself needs.
#ifndef GRAPPLE_SRC_SUPPORT_EVENT_HOOK_H_
#define GRAPPLE_SRC_SUPPORT_EVENT_HOOK_H_

#include <atomic>
#include <cstdint>

namespace grapple {
namespace evt {

// Stable binary event-type ids. These values are written verbatim into
// flightrec.bin records — append new types, never renumber existing ones.
enum Type : uint16_t {
  kNone = 0,
  kRunStart = 1,          // a1 = partition count
  kRunEnd = 2,            // a1 = pairs processed
  kPairStart = 3,         // a1 = partition i, a2 = partition j
  kPairEnd = 4,           // a1 = partition i, a2 = partition j
  kPartitionLoad = 5,     // a1 = partition index, a2 = bytes
  kPartitionEvict = 6,    // a1 = cached bytes released
  kPartitionSpill = 7,    // a1 = partition index, a2 = bytes (a0: 1 = append)
  kPartitionSplit = 8,    // a1 = partition index, a2 = pieces
  kPrefetchHit = 9,       // a1 = bytes served from cache
  kPrefetchWaste = 10,    // a1 = bytes fetched but never used
  // 11-13 are retired (budget-arbiter acquire/borrow/wait); old files may
  // still hold them, so they are never reused.
  kCheckpointPublish = 14,  // a1 = manifest bytes
  kIoRetry = 15,          // a1 = attempt number, a2 = (const char*) op name
  kFaultInjected = 16,    // a1 = action kind, a2 = (const char*) target name
  kCheckerStart = 17,     // a1 = interned checker-name id
  kCheckerDone = 18,      // a1 = interned checker-name id, a2 = report count
  kCheckerDegraded = 19,  // a1 = interned checker-name id
  kWitnessDecode = 20,    // a1 = decode wall time (ns)
  kCrashExit = 21,        // a2 = (const char*) crash-point name
  kWaitBegin = 22,        // a1 = wait kind (WaitKind below)
  kWaitEnd = 23,          // a1 = wait kind (WaitKind below)
};

// Wait kinds carried in kWaitBegin/kWaitEnd `a1`. Stable binary values:
// they are written into flightrec.bin and profile.bin records. 1 is
// retired (budget-arbiter wait) and never reused.
enum WaitKind : uint64_t {
  kWaitNone = 0,
  kWaitIoBarrier = 2,  // PartitionStore::Sync() draining the I/O strands
  kWaitIoQueue = 3,    // Load() waiting on a pending prefetch/write
  kWaitSolve = 4,      // simulated out-of-process solve block
  kWaitTask = 5,       // task-runtime join/strand wait (TaskGroup::Wait,
                       // TaskRuntime::WaitSerial) blocked on a worker
};

// Sink signature. For kIoRetry / kFaultInjected / kCrashExit, `a2` carries a
// pointer to a string with static storage duration (crash-point names and op
// names are literals); the sink interns it immediately.
using Sink = void (*)(uint16_t type, uint32_t a0, uint64_t a1, uint64_t a2);

// Observer signature: a second, independent tap on the same event stream.
// The sampling profiler installs one to track per-thread wait state
// (DESIGN.md §13) without the flight recorder and the profiler having to
// know about each other. Same static-string contract as Sink.
using Observer = Sink;

namespace internal {
extern std::atomic<Sink> g_sink;
extern std::atomic<Observer> g_observer;
}  // namespace internal

// Installs (or clears, with nullptr) the process-wide sink.
void SetSink(Sink sink);

// Installs (or clears, with nullptr) the process-wide observer.
void SetObserver(Observer observer);

// Emits one event; near-free when neither sink nor observer is installed.
inline void Emit(uint16_t type, uint64_t a1 = 0, uint64_t a2 = 0, uint32_t a0 = 0) {
  Sink sink = internal::g_sink.load(std::memory_order_acquire);
  if (sink != nullptr) {
    sink(type, a0, a1, a2);
  }
  Observer observer = internal::g_observer.load(std::memory_order_acquire);
  if (observer != nullptr) {
    observer(type, a0, a1, a2);
  }
}

// Crash-flush hook: invoked on simulated-kill `_exit` paths and fatal-check
// aborts, before the process dies. At most one hook; last install wins.
using FlushHook = void (*)();
void SetCrashFlushHook(FlushHook hook);
// Runs the installed hook once per call site; safe to call with none set.
void RunCrashFlushHook();

}  // namespace evt
}  // namespace grapple

#endif  // GRAPPLE_SRC_SUPPORT_EVENT_HOOK_H_
