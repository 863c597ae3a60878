// Wall-clock timing utilities. Named phase time (the Figure-9 style cost
// breakdown) lives in the metrics registry as "phase_<name>_ns" counters,
// charged by obs::ProfPhase scopes.
#ifndef GRAPPLE_SRC_SUPPORT_TIMER_H_
#define GRAPPLE_SRC_SUPPORT_TIMER_H_

#include <chrono>
#include <cstdint>
#include <string>

namespace grapple {

// A simple monotonic stopwatch measuring elapsed wall time.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  void Reset() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  int64_t ElapsedMicros() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - start_).count();
  }

  uint64_t ElapsedNanos() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start_).count());
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

// Formats seconds as e.g. "01h06m15s", "51m49s", or "47s" to match the
// paper's table formatting.
std::string FormatDuration(double seconds);

}  // namespace grapple

#endif  // GRAPPLE_SRC_SUPPORT_TIMER_H_
