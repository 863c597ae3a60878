// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded from the benchmark's own code, around its calls into
// Grapple's public entry points; nothing inside src/ is instrumented. Each
// span keeps its name, start, end, the span open on the same thread when it
// began (its parent) and an optional request id, so the spans of one
// service request can be grouped. Spans stay in memory until the run ends,
// then go out as Chrome-trace JSON, and each span name's self time (its
// duration minus the part its children cover) is derived from them.
#ifndef GRAPPLE_PERFBENCH_TRACER_H_
#define GRAPPLE_PERFBENCH_TRACER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::string name;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    int64_t parent = -1;  // index of the parent span, -1 for a root span
    uint64_t request = 0;  // 0 when the span belongs to no request
    uint32_t tid = 0;
  };

  // Opens a span on construction and closes it on End() or destruction. A
  // scope on a disabled tracer (or a null one) costs one branch.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, uint64_t request = 0)
        : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr) {
      if (tracer_ != nullptr) {
        index_ = tracer_->Open(name, request);
      }
    }
    ~Scope() { End(); }

    // Closes the span and returns its duration in ms; 0 when nothing was
    // recorded or the span is already closed. Spans of one thread close in
    // the reverse order of their opening.
    double End() {
      if (tracer_ == nullptr) {
        return 0;
      }
      uint64_t duration_ns = tracer_->Close(index_);
      tracer_ = nullptr;
      return static_cast<double>(duration_ns) / 1e6;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int64_t index_ = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Toggled between traced and untraced passes of one traced run.
  void set_enabled(bool enabled) { enabled_.store(enabled, std::memory_order_relaxed); }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

  // Total self time (ms) per span name: each span's duration minus the
  // durations of its direct children.
  std::map<std::string, double> SelfTimeMs() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<uint64_t> child_ns(spans_.size(), 0);
    for (const auto& span : spans_) {
      if (span.parent >= 0) {
        child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
      }
    }
    std::map<std::string, double> self;
    for (size_t i = 0; i < spans_.size(); ++i) {
      uint64_t duration = spans_[i].end_ns - spans_[i].start_ns;
      uint64_t own = duration > child_ns[i] ? duration - child_ns[i] : 0;
      self[spans_[i].name] += static_cast<double>(own) / 1e6;
    }
    return self;
  }

  // Chrome trace-event JSON ("X" complete events, microsecond timestamps).
  bool WriteChromeTrace(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) {
      return false;
    }
    std::fprintf(file, "{\"traceEvents\":[");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      std::fprintf(file,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                   "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%lld,\"request\":%llu}}",
                   i == 0 ? "" : ",", span.name.c_str(), span.tid,
                   static_cast<double>(span.start_ns) / 1e3,
                   static_cast<double>(span.end_ns - span.start_ns) / 1e3, i,
                   static_cast<long long>(span.parent),
                   static_cast<unsigned long long>(span.request));
    }
    std::fprintf(file, "],\"displayTimeUnit\":\"ms\"}\n");
    return std::fclose(file) == 0;
  }

 private:
  using Clock = std::chrono::steady_clock;

  uint64_t NowNs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count());
  }

  static std::vector<int64_t>& OpenStack() {
    thread_local std::vector<int64_t> stack;
    return stack;
  }

  int64_t Open(const char* name, uint64_t request) {
    std::vector<int64_t>& stack = OpenStack();
    Span span;
    span.name = name;
    span.parent = stack.empty() ? -1 : stack.back();
    span.tid = static_cast<uint32_t>(std::hash<std::thread::id>()(std::this_thread::get_id()) &
                                     0xffff);
    span.start_ns = NowNs();
    int64_t index;
    {
      std::lock_guard<std::mutex> lock(mu_);
      index = static_cast<int64_t>(spans_.size());
      if (request == 0 && span.parent >= 0) {
        request = spans_[static_cast<size_t>(span.parent)].request;
      }
      span.request = request;
      spans_.push_back(std::move(span));
    }
    stack.push_back(index);
    return index;
  }

  // Returns the closed span's duration, ns.
  uint64_t Close(int64_t index) {
    uint64_t now = NowNs();
    OpenStack().pop_back();
    std::lock_guard<std::mutex> lock(mu_);
    Span& span = spans_[static_cast<size_t>(index)];
    span.end_ns = now;
    return now - span.start_ns;
  }

  std::atomic<bool> enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // GRAPPLE_PERFBENCH_TRACER_H_
