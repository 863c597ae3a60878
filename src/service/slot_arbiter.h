// FIFO-fair checker-slot arbitration for the analysis service
// (DESIGN.md §15).
//
// It caps *concurrent Check() runs* across resident sessions. Each session
// owns a work-stealing TaskRuntime sized for its own checker parallelism
// (DESIGN.md §14), so N sessions checking at once would oversubscribe the
// machine N-fold. The service takes one slot per request before touching a
// session:
//
//   SlotArbiter slots(2);
//   SlotLease lease = slots.Acquire();   // blocks, FIFO ticket order
//   ... run session->Check(...) ...
//   lease.Release();                     // or let it destruct
//
// Acquire is ticket-fair: slots are granted strictly in arrival order, so a
// stream of cheap requests cannot starve an expensive one.
#ifndef GRAPPLE_SRC_SERVICE_SLOT_ARBITER_H_
#define GRAPPLE_SRC_SERVICE_SLOT_ARBITER_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>

namespace grapple {

class SlotArbiter;

// One granted checker slot. Move-only; returns the slot on
// Release()/destruction.
class SlotLease {
 public:
  SlotLease() = default;
  ~SlotLease();

  SlotLease(SlotLease&& other) noexcept;
  SlotLease& operator=(SlotLease&& other) noexcept;
  SlotLease(const SlotLease&) = delete;
  SlotLease& operator=(const SlotLease&) = delete;

  bool valid() const { return arbiter_ != nullptr; }
  void Release();

 private:
  friend class SlotArbiter;
  explicit SlotLease(SlotArbiter* arbiter) : arbiter_(arbiter) {}

  SlotArbiter* arbiter_ = nullptr;
};

class SlotArbiter {
 public:
  // `slots` must be positive; 0 degrades to 1.
  explicit SlotArbiter(size_t slots);

  SlotArbiter(const SlotArbiter&) = delete;
  SlotArbiter& operator=(const SlotArbiter&) = delete;

  // Blocks until a slot is free and every earlier Acquire has been served.
  SlotLease Acquire();

  size_t slots() const { return slots_; }
  size_t in_use() const;
  // Currently queued Acquire calls (observational).
  uint64_t waiters() const;
  size_t peak_in_use() const;

 private:
  friend class SlotLease;

  void Return();

  const size_t slots_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  size_t in_use_ = 0;
  size_t peak_in_use_ = 0;
  // FIFO ticket lock over Acquire.
  uint64_t next_ticket_ = 0;
  uint64_t serving_ = 0;
};

}  // namespace grapple

#endif  // GRAPPLE_SRC_SERVICE_SLOT_ARBITER_H_
