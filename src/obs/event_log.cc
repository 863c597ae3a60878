#include "src/obs/event_log.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <iterator>
#include <cstring>
#include <map>
#include <mutex>

#include "src/obs/json.h"
#include "src/support/byte_io.h"
#include "src/support/event_hook.h"

namespace grapple {
namespace obs {

namespace {

constexpr char kMagic[4] = {'G', 'F', 'R', '1'};
constexpr uint32_t kFormatVersion = 1;
constexpr size_t kDefaultCapacity = 4096;
constexpr size_t kMinCapacity = 64;
constexpr size_t kMaxCapacity = 1u << 20;

// One ring slot. The payload is four relaxed-atomic words bracketed by a
// per-slot sequence counter (Boehm-style seqlock): the writer publishes
// 2n+1 (odd, generation-unique) before touching the payload and 2n+2 after,
// so a reader that observes an odd or changed sequence knows the slot was
// torn mid-write and drops it. Generation-unique values also defeat ABA
// when the ring wraps between the reader's two sequence loads.
struct Slot {
  std::atomic<uint64_t> seq{0};
  std::atomic<uint64_t> w0{0};  // ts_ns
  std::atomic<uint64_t> w1{0};  // type | tid << 16 | arg0 << 32
  std::atomic<uint64_t> w2{0};  // arg1
  std::atomic<uint64_t> w3{0};  // arg2
};

struct Ring {
  Ring(size_t capacity, uint16_t tid) : slots(capacity), tid(tid) {}
  std::vector<Slot> slots;         // power-of-two length
  std::atomic<uint64_t> next{0};   // events ever written by the owner thread
  uint16_t tid;
};

struct LogState {
  std::mutex mu;
  // Rings are never freed: a thread that exits mid-run leaves its tail
  // behind for the post-mortem, which is the point of a flight recorder.
  std::vector<Ring*> rings;
  size_t capacity = kDefaultCapacity;  // events per ring; a power of two
  std::vector<std::string> strings;
  std::map<std::string, uint32_t> string_ids;
  std::string crash_dump_path;
};

LogState& State() {
  static LogState* state = new LogState;
  return *state;
}

std::atomic<bool> g_enabled{true};
thread_local Ring* t_ring = nullptr;

uint64_t NowNs() {
  static const std::chrono::steady_clock::time_point start = std::chrono::steady_clock::now();
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now() - start)
                                   .count());
}

size_t RoundUpPow2(size_t value) {
  size_t pow2 = 1;
  while (pow2 < value) {
    pow2 <<= 1;
  }
  return pow2;
}

Ring* RegisterThreadRing() {
  LogState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  Ring* ring = new Ring(state.capacity, static_cast<uint16_t>(state.rings.size() & 0xffff));
  state.rings.push_back(ring);
  t_ring = ring;
  return ring;
}

void Record(uint16_t type, uint32_t a0, uint64_t a1, uint64_t a2) {
  Ring* ring = t_ring;
  if (ring == nullptr) {
    ring = RegisterThreadRing();
  }
  uint64_t n = ring->next.load(std::memory_order_relaxed);
  Slot& slot = ring->slots[n & (ring->slots.size() - 1)];
  slot.seq.store(2 * n + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  slot.w0.store(NowNs(), std::memory_order_relaxed);
  slot.w1.store(static_cast<uint64_t>(type) | (static_cast<uint64_t>(ring->tid) << 16) |
                    (static_cast<uint64_t>(a0) << 32),
                std::memory_order_relaxed);
  slot.w2.store(a1, std::memory_order_relaxed);
  slot.w3.store(a2, std::memory_order_relaxed);
  slot.seq.store(2 * n + 2, std::memory_order_release);
  ring->next.store(n + 1, std::memory_order_release);
}

// True for types whose support-layer emitters pass a `const char*` in a2
// (they sit below the string table); the sink interns it at record time.
bool ArgIsRawStringPointer(uint16_t type) {
  return type == evt::kIoRetry || type == evt::kFaultInjected || type == evt::kCrashExit;
}

// Which arg (if any) holds an interned-string id after recording.
enum class StringArg { kNone, kArg1, kArg2 };
StringArg StringArgOf(uint16_t type) {
  switch (type) {
    case evt::kIoRetry:
    case evt::kFaultInjected:
    case evt::kCrashExit:
      return StringArg::kArg2;
    case evt::kCheckerStart:
    case evt::kCheckerDone:
    case evt::kCheckerDegraded:
      return StringArg::kArg1;
    default:
      return StringArg::kNone;
  }
}

void RecordSink(uint16_t type, uint32_t a0, uint64_t a1, uint64_t a2) {
  if (!g_enabled.load(std::memory_order_relaxed)) {
    return;
  }
  if (ArgIsRawStringPointer(type)) {
    const char* text = reinterpret_cast<const char*>(a2);
    a2 = text == nullptr ? 0 : EventLogInternString(text);
  }
  Record(type, a0, a1, a2);
}

// Reads one slot; returns false for empty or torn slots.
bool ReadSlot(const Slot& slot, FlightEvent* out) {
  uint64_t s1 = slot.seq.load(std::memory_order_acquire);
  if (s1 == 0 || (s1 & 1) != 0) {
    return false;
  }
  uint64_t w0 = slot.w0.load(std::memory_order_relaxed);
  uint64_t w1 = slot.w1.load(std::memory_order_relaxed);
  uint64_t w2 = slot.w2.load(std::memory_order_relaxed);
  uint64_t w3 = slot.w3.load(std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_acquire);
  uint64_t s2 = slot.seq.load(std::memory_order_relaxed);
  if (s1 != s2) {
    return false;
  }
  out->ts_ns = w0;
  out->type = static_cast<uint16_t>(w1 & 0xffff);
  out->tid = static_cast<uint16_t>((w1 >> 16) & 0xffff);
  out->arg0 = static_cast<uint32_t>(w1 >> 32);
  out->arg1 = w2;
  out->arg2 = w3;
  return true;
}

// Snapshots every ring, drops torn slots, sorts by timestamp, keeps the
// newest `max_events` (0 = everything live).
std::vector<FlightEvent> MergeTail(size_t max_events) {
  std::vector<FlightEvent> merged;
  {
    LogState& state = State();
    std::lock_guard<std::mutex> lock(state.mu);
    for (Ring* ring : state.rings) {
      for (const Slot& slot : ring->slots) {
        FlightEvent event;
        if (ReadSlot(slot, &event)) {
          merged.push_back(event);
        }
      }
    }
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const FlightEvent& a, const FlightEvent& b) { return a.ts_ns < b.ts_ns; });
  if (max_events > 0 && merged.size() > max_events) {
    merged.erase(merged.begin(), merged.end() - static_cast<ptrdiff_t>(max_events));
  }
  return merged;
}

// Renders events as a JSON array; `resolve` maps interned ids to names
// (live table or a decoded file's snapshot).
template <typename Resolve>
void RenderEvents(JsonWriter* w, const std::vector<FlightEvent>& events, Resolve resolve) {
  w->Key("events").BeginArray();
  for (const FlightEvent& event : events) {
    w->BeginObject();
    w->Key("ts_ns").UInt(event.ts_ns);
    w->Key("type").String(EventTypeName(event.type));
    w->Key("tid").Int(event.tid);
    w->Key("arg0").UInt(event.arg0);
    w->Key("arg1").UInt(event.arg1);
    w->Key("arg2").UInt(event.arg2);
    StringArg arg = StringArgOf(event.type);
    if (arg != StringArg::kNone) {
      uint64_t id = arg == StringArg::kArg1 ? event.arg1 : event.arg2;
      w->Key("name").String(resolve(static_cast<uint32_t>(id)));
    }
    w->EndObject();
  }
  w->EndArray();
}

std::string ResolveLive(uint32_t id) { return EventLogStringOf(id); }

// Guard against recursive crash flushes (an abort inside the flush itself
// must not re-enter it).
std::atomic<bool> g_crash_flush_ran{false};

// Additional crash-path dumps (the profiler's profile.bin spill). A fixed
// lock-free array so the fatal-signal path can walk it without taking any
// lock.
constexpr int kMaxCrashSpillers = 8;
std::atomic<CrashSpiller> g_spillers[kMaxCrashSpillers] = {};
std::atomic<int> g_spiller_count{0};

void RunCrashSpillers() {
  int count = std::min(g_spiller_count.load(std::memory_order_acquire), kMaxCrashSpillers);
  for (int i = 0; i < count; ++i) {
    CrashSpiller spiller = g_spillers[i].load(std::memory_order_acquire);
    if (spiller != nullptr) {
      spiller();
    }
  }
}

void CrashFlushNow() {
  if (g_crash_flush_ran.exchange(true, std::memory_order_acq_rel)) {
    return;
  }
  std::string path = EventLogCrashDumpPath();
  if (!path.empty()) {
    EventLogFlush(path);
  }
  RunCrashSpillers();
}

// Fatal-signal handler (SIGSEGV/SIGBUS/SIGABRT): best-effort spill, then
// restore the default disposition and re-raise so the process still dies
// with the original signal (exit status, core dumps, and waitpid semantics
// are unchanged). Not strictly async-signal-safe — the merge allocates —
// but the process is already dying; the one hazard worth engineering away
// is a self-deadlock on the recorder mutex, so the path refuses to block:
// if the fault struck while this thread held the lock, the dump is skipped.
// (std::mutex::try_lock by the owning thread is formally undefined; on
// glibc it returns false for the default non-recursive type, which is
// exactly the behavior this path needs.)
void FatalSignalSpill(int sig) {
  if (!g_crash_flush_ran.exchange(true, std::memory_order_acq_rel)) {
    LogState& state = State();
    if (state.mu.try_lock()) {
      std::string path = state.crash_dump_path;
      state.mu.unlock();
      if (!path.empty()) {
        EventLogFlush(path);
      }
      RunCrashSpillers();
    }
  }
  struct sigaction dfl;
  std::memset(&dfl, 0, sizeof(dfl));
  dfl.sa_handler = SIG_DFL;
  sigaction(sig, &dfl, nullptr);
  raise(sig);
}

// Installs FatalSignalSpill for `sig` unless something else (a sanitizer
// runtime, a death-test harness) already claimed it.
void InstallFatalHandler(int sig) {
  struct sigaction current;
  if (sigaction(sig, nullptr, &current) != 0) {
    return;
  }
  if (current.sa_handler != SIG_DFL || (current.sa_flags & SA_SIGINFO) != 0) {
    return;
  }
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = &FatalSignalSpill;
  sigemptyset(&sa.sa_mask);
  sigaction(sig, &sa, nullptr);
}

// Bytes per encoded event: ts_ns(8) | type,tid(4) | arg0(4) | arg1(8) |
// arg2(8).
constexpr uint64_t kEventBytes = 32;

}  // namespace

void EventLogInstall() {
  static const bool installed = [] {
    evt::SetSink(&RecordSink);
    evt::SetCrashFlushHook(&CrashFlushNow);
    InstallFatalHandler(SIGSEGV);
    InstallFatalHandler(SIGBUS);
    InstallFatalHandler(SIGABRT);
    return true;
  }();
  (void)installed;
}

void EventLogAddCrashSpiller(CrashSpiller spiller) {
  int index = g_spiller_count.fetch_add(1, std::memory_order_acq_rel);
  if (index < kMaxCrashSpillers) {
    g_spillers[index].store(spiller, std::memory_order_release);
  }
}

void EventLogSetEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

bool EventLogEnabled() { return g_enabled.load(std::memory_order_relaxed); }

void EventLogSetCapacity(size_t events_per_thread) {
  LogState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  size_t clamped = std::min(std::max(events_per_thread, kMinCapacity), kMaxCapacity);
  state.capacity = RoundUpPow2(clamped);
}

uint32_t EventLogInternString(const std::string& s) {
  LogState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  auto it = state.string_ids.find(s);
  if (it != state.string_ids.end()) {
    return it->second;
  }
  uint32_t id = static_cast<uint32_t>(state.strings.size());
  state.strings.push_back(s);
  state.string_ids.emplace(s, id);
  return id;
}

std::string EventLogStringOf(uint32_t id) {
  LogState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  return id < state.strings.size() ? state.strings[id] : std::string();
}

bool EventLogStringsSnapshot(std::vector<std::string>* out, bool try_only) {
  LogState& state = State();
  if (try_only) {
    if (!state.mu.try_lock()) {
      return false;
    }
    *out = state.strings;
    state.mu.unlock();
    return true;
  }
  std::lock_guard<std::mutex> lock(state.mu);
  *out = state.strings;
  return true;
}

std::vector<FlightEvent> EventLogTail(size_t max_events) { return MergeTail(max_events); }

std::string EventLogTailJson(size_t max_events) {
  std::vector<FlightEvent> events = MergeTail(max_events);
  JsonWriter w;
  w.BeginObject();
  w.Key("event_count").UInt(events.size());
  RenderEvents(&w, events, ResolveLive);
  w.EndObject();
  return w.Take();
}

void EventLogSetCrashDumpPath(const std::string& path, bool only_if_unset) {
  LogState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  if (only_if_unset && !state.crash_dump_path.empty()) {
    return;
  }
  state.crash_dump_path = path;
}

std::string EventLogCrashDumpPath() {
  LogState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  return state.crash_dump_path;
}

bool EventLogFlush(const std::string& path) {
  std::vector<FlightEvent> events = MergeTail(0);
  std::vector<std::string> strings;
  {
    LogState& state = State();
    std::lock_guard<std::mutex> lock(state.mu);
    strings = state.strings;
  }
  std::vector<uint8_t> blob(std::begin(kMagic), std::end(kMagic));
  blob.reserve(24 + events.size() * kEventBytes);
  PutFixed32(&blob, kFormatVersion);
  PutFixed64(&blob, events.size());
  for (const FlightEvent& event : events) {
    PutFixed64(&blob, event.ts_ns);
    PutFixed32(&blob, static_cast<uint32_t>(event.type) |
                          (static_cast<uint32_t>(event.tid) << 16));
    PutFixed32(&blob, event.arg0);
    PutFixed64(&blob, event.arg1);
    PutFixed64(&blob, event.arg2);
  }
  PutFixed32(&blob, static_cast<uint32_t>(strings.size()));
  for (const std::string& s : strings) {
    PutFixed32(&blob, static_cast<uint32_t>(s.size()));
    blob.insert(blob.end(), s.begin(), s.end());
  }
  return CrashSafeWriteFile(path, blob);
}

bool CrashSafeWriteFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return false;
  }
  size_t done = 0;
  while (done < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      ::close(fd);
      return false;
    }
    done += static_cast<size_t>(n);
  }
  ::fsync(fd);
  ::close(fd);
  return true;
}

bool DecodeFlightRecording(const std::string& path, FlightRecording* out, std::string* error) {
  auto fail = [&](const std::string& why) {
    if (error != nullptr) {
      *error = "flightrec '" + path + "': " + why;
    }
    return false;
  };
  std::vector<uint8_t> bytes;
  std::string io_error;
  if (!ReadFileBytes(path, &bytes, &io_error)) {
    return fail(io_error);
  }
  ByteReader reader(bytes);
  uint8_t magic[sizeof(kMagic)];
  if (bytes.size() < 16 || !reader.GetRaw(magic, sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return fail("bad magic (not a flight recording)");
  }
  uint32_t version = reader.GetFixed32();
  if (version != kFormatVersion) {
    return fail("unsupported version " + std::to_string(version));
  }
  // Checked by division, so a hostile count can neither wrap the bound nor
  // size the reserve below.
  uint64_t event_count = reader.GetFixed64();
  if (event_count > reader.remaining() / kEventBytes) {
    return fail("truncated event section");
  }
  out->events.clear();
  out->events.reserve(static_cast<size_t>(event_count));
  for (uint64_t i = 0; i < event_count; ++i) {
    FlightEvent event;
    event.ts_ns = reader.GetFixed64();
    uint32_t packed = reader.GetFixed32();
    event.type = static_cast<uint16_t>(packed & 0xffff);
    event.tid = static_cast<uint16_t>(packed >> 16);
    event.arg0 = reader.GetFixed32();
    event.arg1 = reader.GetFixed64();
    event.arg2 = reader.GetFixed64();
    out->events.push_back(event);
  }
  uint32_t string_count = reader.GetFixed32();
  if (!reader.ok()) {
    return fail("truncated string table");
  }
  out->strings.clear();
  out->strings.reserve(std::min<size_t>(string_count, reader.remaining() / 4));
  for (uint32_t i = 0; i < string_count; ++i) {
    uint32_t length = reader.GetFixed32();
    if (!reader.ok() || length > reader.remaining()) {
      return fail("truncated string table entry");
    }
    out->strings.emplace_back(reinterpret_cast<const char*>(bytes.data() + reader.position()),
                              length);
    reader.Skip(length);
  }
  return true;
}

std::string FlightRecordingToJson(const FlightRecording& recording) {
  JsonWriter w;
  w.BeginObject();
  w.Key("event_count").UInt(recording.events.size());
  RenderEvents(&w, recording.events, [&recording](uint32_t id) {
    return id < recording.strings.size() ? recording.strings[id] : std::string();
  });
  w.EndObject();
  return w.Take();
}

const char* EventTypeName(uint16_t type) {
  switch (type) {
    case evt::kRunStart:
      return "run_start";
    case evt::kRunEnd:
      return "run_end";
    case evt::kPairStart:
      return "pair_start";
    case evt::kPairEnd:
      return "pair_end";
    case evt::kPartitionLoad:
      return "partition_load";
    case evt::kPartitionEvict:
      return "partition_evict";
    case evt::kPartitionSpill:
      return "partition_spill";
    case evt::kPartitionSplit:
      return "partition_split";
    case evt::kPrefetchHit:
      return "prefetch_hit";
    case evt::kPrefetchWaste:
      return "prefetch_waste";
    case evt::kCheckpointPublish:
      return "checkpoint_publish";
    case evt::kIoRetry:
      return "io_retry";
    case evt::kFaultInjected:
      return "fault_injected";
    case evt::kCheckerStart:
      return "checker_start";
    case evt::kCheckerDone:
      return "checker_done";
    case evt::kCheckerDegraded:
      return "checker_degraded";
    case evt::kWitnessDecode:
      return "witness_decode";
    case evt::kCrashExit:
      return "crash_exit";
    case evt::kWaitBegin:
      return "wait_begin";
    case evt::kWaitEnd:
      return "wait_end";
    default:
      return "unknown";
  }
}

}  // namespace obs
}  // namespace grapple
