#include "src/obs/profiler.h"

#include <pthread.h>
#include <signal.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <mutex>
#include <thread>
#include <tuple>

#include "src/obs/event_log.h"
#include "src/obs/json.h"
#include "src/support/byte_io.h"
#include "src/support/event_hook.h"

namespace grapple {
namespace obs {

namespace profiler_internal {

namespace {
// 1024 slots per thread: the ticker harvests every tick, so at the 1000 Hz
// ceiling at most a handful of samples are ever outstanding; the headroom
// absorbs a stalled ticker without losing the recent tail.
constexpr size_t kRingSlots = 1024;
}  // namespace

// One 32-byte sample slot, same Boehm-style seqlock as the event_log rings:
// the writer (the SIGPROF handler, always the owning thread) publishes an
// odd generation-unique sequence before the payload and an even one after,
// so the harvesting ticker detects torn or overwritten slots and counts
// them as dropped instead of misattributing them.
struct ProfSlot {
  std::atomic<uint64_t> seq{0};
  std::atomic<uint64_t> w0{0};  // CLOCK_MONOTONIC ns
  std::atomic<uint64_t> w1{0};  // pair (kProfileNoPair = none)
  std::atomic<uint64_t> w2{0};  // phase | checker << 32
  std::atomic<uint64_t> w3{0};  // wait_kind | tid << 32
};

// Per-thread profiler context + sample ring. Never freed: crash spills
// read whatever the dead thread left behind.
struct ThreadProf {
  explicit ThreadProf(uint32_t tid) : slots(kRingSlots), tid(tid) {}
  std::atomic<uint32_t> phase{0};
  std::atomic<uint32_t> checker{0};
  std::atomic<uint64_t> pair{kProfileNoPair};
  std::atomic<uint32_t> wait{0};
  // Cleared (under the registry mutex) by the owning thread's TLS guard
  // just before thread exit, so the ticker never pthread_kills a stale
  // pthread_t.
  std::atomic<bool> alive{true};
  pthread_t self{};
  std::vector<ProfSlot> slots;
  uint32_t tid;
  std::atomic<uint64_t> next{0};  // samples ever written by the handler
  uint64_t harvested = 0;         // ticker-owned cursor
};

namespace {

using LedgerKey = std::tuple<uint32_t, uint32_t, uint64_t, uint32_t>;

struct ProfState {
  std::mutex mu;
  std::vector<ThreadProf*> threads;
  std::map<LedgerKey, uint64_t> ledger;
  uint64_t total_samples = 0;
  uint64_t dropped_samples = 0;
  uint64_t period_ns = 0;
  uint64_t accum_wall_ns = 0;  // profiled wall from completed Start/Stop spans
  uint64_t run_start_ns = 0;   // nonzero while running
  std::string dump_path;
  std::thread ticker;
  std::condition_variable cv;
  bool running = false;
};

ProfState& State() {
  static ProfState* state = new ProfState;
  return *state;
}

// True once ProfilerStart has ever run: markers on unregistered threads
// stay a single branch until then.
std::atomic<bool> g_ever_started{false};

thread_local ThreadProf* t_prof = nullptr;

// Marks the context dead at thread exit, under the registry mutex so the
// ticker (which holds it while signalling) cannot race the exit.
struct ThreadProfGuard {
  ThreadProf* tp = nullptr;
  ~ThreadProfGuard() {
    if (tp != nullptr) {
      ProfState& state = State();
      std::lock_guard<std::mutex> lock(state.mu);
      tp->alive.store(false, std::memory_order_relaxed);
    }
  }
};
thread_local ThreadProfGuard t_guard;

// Raw clock read, usable from the signal handler (no magic-static guard,
// clock_gettime is async-signal-safe).
uint64_t MonotonicNs() {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull + static_cast<uint64_t>(ts.tv_nsec);
}

ThreadProf* EnsureThreadProf() {
  ThreadProf* tp = t_prof;
  if (tp != nullptr) {
    return tp;
  }
  ProfState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  tp = new ThreadProf(static_cast<uint32_t>(state.threads.size()));
  tp->self = pthread_self();
  state.threads.push_back(tp);
  t_prof = tp;
  t_guard.tp = tp;
  return tp;
}

// The async-signal-safe core: reads the interrupted thread's own context
// atomics and seqlock-writes one sample into its own ring. No locks, no
// allocation, no library calls beyond clock_gettime; errno preserved.
void SigprofHandler(int /*sig*/) {
  int saved_errno = errno;
  ThreadProf* tp = t_prof;
  if (tp != nullptr) {
    uint64_t n = tp->next.load(std::memory_order_relaxed);
    ProfSlot& slot = tp->slots[n & (kRingSlots - 1)];
    slot.seq.store(2 * n + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    slot.w0.store(MonotonicNs(), std::memory_order_relaxed);
    slot.w1.store(tp->pair.load(std::memory_order_relaxed), std::memory_order_relaxed);
    slot.w2.store(static_cast<uint64_t>(tp->phase.load(std::memory_order_relaxed)) |
                      (static_cast<uint64_t>(tp->checker.load(std::memory_order_relaxed)) << 32),
                  std::memory_order_relaxed);
    slot.w3.store(static_cast<uint64_t>(tp->wait.load(std::memory_order_relaxed)) |
                      (static_cast<uint64_t>(tp->tid) << 32),
                  std::memory_order_relaxed);
    slot.seq.store(2 * n + 2, std::memory_order_release);
    tp->next.store(n + 1, std::memory_order_release);
  }
  errno = saved_errno;
}

// evt::Emit observer: maintains the per-thread off-CPU wait kind.
// kWaitBegin/kWaitEnd carry the kind explicitly. kWaitEnd only clears the
// state it set, so unrelated nesting stays intact.
void ProfObserver(uint16_t type, uint32_t /*a0*/, uint64_t a1, uint64_t /*a2*/) {
  switch (type) {
    case evt::kWaitBegin:
      EnsureThreadProf()->wait.store(static_cast<uint32_t>(a1), std::memory_order_relaxed);
      break;
    case evt::kWaitEnd: {
      ThreadProf* tp = t_prof;
      if (tp != nullptr && tp->wait.load(std::memory_order_relaxed) == static_cast<uint32_t>(a1)) {
        tp->wait.store(evt::kWaitNone, std::memory_order_relaxed);
      }
      break;
    }
    default:
      break;
  }
}

// Drains every ring's unharvested samples into the ledger. Caller holds
// state.mu. Slots the handler overwrote before we got to them (ticker
// stalled for > kRingSlots / hz) and slots torn mid-write count as dropped.
void HarvestLocked(ProfState& state) {
  for (ThreadProf* tp : state.threads) {
    uint64_t n = tp->next.load(std::memory_order_acquire);
    uint64_t cursor = tp->harvested;
    if (n - cursor > kRingSlots) {
      state.dropped_samples += n - cursor - kRingSlots;
      cursor = n - kRingSlots;
    }
    for (uint64_t i = cursor; i < n; ++i) {
      ProfSlot& slot = tp->slots[i & (kRingSlots - 1)];
      uint64_t s1 = slot.seq.load(std::memory_order_acquire);
      if (s1 != 2 * i + 2) {
        ++state.dropped_samples;
        continue;
      }
      uint64_t pair = slot.w1.load(std::memory_order_relaxed);
      uint64_t w2 = slot.w2.load(std::memory_order_relaxed);
      uint64_t w3 = slot.w3.load(std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_acquire);
      if (slot.seq.load(std::memory_order_relaxed) != s1) {
        ++state.dropped_samples;
        continue;
      }
      LedgerKey key{static_cast<uint32_t>(w2 >> 32), static_cast<uint32_t>(w2 & 0xffffffffu),
                    pair, static_cast<uint32_t>(w3 & 0xffffffffu)};
      ++state.ledger[key];
      ++state.total_samples;
    }
    tp->harvested = n;
  }
}

ProfileData SnapshotLocked(ProfState& state, uint64_t now_ns) {
  ProfileData data;
  data.sample_period_ns = state.period_ns;
  data.total_samples = state.total_samples;
  data.dropped_samples = state.dropped_samples;
  data.wall_ns = state.accum_wall_ns +
                 (state.run_start_ns != 0 ? now_ns - state.run_start_ns : 0);
  data.entries.reserve(state.ledger.size());
  for (const auto& kv : state.ledger) {
    ProfileEntry entry;
    entry.checker = std::get<0>(kv.first);
    entry.phase = std::get<1>(kv.first);
    entry.pair = std::get<2>(kv.first);
    entry.wait_kind = std::get<3>(kv.first);
    entry.samples = kv.second;
    data.entries.push_back(entry);
  }
  return data;
}

void TickerMain() {
  ProfState& state = State();
  std::unique_lock<std::mutex> lock(state.mu);
  const auto period = std::chrono::nanoseconds(state.period_ns);
  while (state.running) {
    state.cv.wait_for(lock, period, [&state] { return !state.running; });
    if (!state.running) {
      break;
    }
    // Holding mu here is what makes the pthread_kill safe: a thread's TLS
    // guard must take mu to mark itself dead, so no pthread_t we signal
    // can belong to an already-exited thread.
    for (ThreadProf* tp : state.threads) {
      if (tp->alive.load(std::memory_order_relaxed)) {
        pthread_kill(tp->self, SIGPROF);
      }
    }
    HarvestLocked(state);
  }
  HarvestLocked(state);
}

constexpr char kProfileMagic[4] = {'G', 'P', 'R', 'F'};
constexpr uint32_t kProfileVersion = 1;
// Bytes per encoded entry: checker(4) | phase(4) | pair(8) | wait_kind(4) |
// samples(8).
constexpr uint64_t kEntryBytes = 28;

// magic | version(fixed32) | payload length(fixed64) | payload |
// FNV-1a(payload)(fixed64).
std::vector<uint8_t> EncodeProfile(const ProfileData& data) {
  std::vector<uint8_t> payload;
  payload.reserve(36 + data.entries.size() * kEntryBytes);
  PutFixed64(&payload, data.sample_period_ns);
  PutFixed64(&payload, data.total_samples);
  PutFixed64(&payload, data.dropped_samples);
  PutFixed64(&payload, data.wall_ns);
  PutFixed32(&payload, static_cast<uint32_t>(data.entries.size()));
  for (const ProfileEntry& entry : data.entries) {
    PutFixed32(&payload, entry.checker);
    PutFixed32(&payload, entry.phase);
    PutFixed64(&payload, entry.pair);
    PutFixed32(&payload, entry.wait_kind);
    PutFixed64(&payload, entry.samples);
  }
  PutFixed32(&payload, static_cast<uint32_t>(data.strings.size()));
  for (const std::string& s : data.strings) {
    PutFixed32(&payload, static_cast<uint32_t>(s.size()));
    payload.insert(payload.end(), s.begin(), s.end());
  }
  std::vector<uint8_t> blob(std::begin(kProfileMagic), std::end(kProfileMagic));
  blob.reserve(16 + payload.size() + 8);
  PutFixed32(&blob, kProfileVersion);
  PutFixed64(&blob, payload.size());
  blob.insert(blob.end(), payload.begin(), payload.end());
  PutFixed64(&blob, Fnv1a64(payload.data(), payload.size()));
  return blob;
}

// Crash spiller, registered with the event log's fatal paths: refuses to
// block (try_lock) so a fault that struck while the registry mutex was
// held skips the spill instead of hanging the dying process.
void ProfilerCrashSpill() {
  ProfState& state = State();
  if (!state.mu.try_lock()) {
    return;
  }
  HarvestLocked(state);
  ProfileData data = SnapshotLocked(state, MonotonicNs());
  std::string path = state.dump_path;
  state.mu.unlock();
  if (path.empty() || data.total_samples == 0) {
    return;
  }
  // Best-effort string table: an empty snapshot (table lock contended)
  // still decodes, ids just resolve to "".
  EventLogStringsSnapshot(&data.strings, /*try_only=*/true);
  CrashSafeWriteFile(path, EncodeProfile(data));
}

std::string ResolveId(const ProfileData& data, uint32_t id) {
  if (id == 0) {
    return std::string();
  }
  uint32_t index = id - 1;
  return index < data.strings.size() ? data.strings[index] : std::string();
}

}  // namespace

ThreadProf* CurrentThreadProf() {
  ThreadProf* tp = t_prof;
  if (tp != nullptr) {
    return tp;
  }
  if (!g_ever_started.load(std::memory_order_relaxed)) {
    return nullptr;
  }
  return EnsureThreadProf();
}

uint32_t SwapPhase(ThreadProf* tp, uint32_t value) {
  uint32_t prev = tp->phase.load(std::memory_order_relaxed);
  tp->phase.store(value, std::memory_order_relaxed);
  return prev;
}

uint32_t SwapChecker(ThreadProf* tp, uint32_t value) {
  uint32_t prev = tp->checker.load(std::memory_order_relaxed);
  tp->checker.store(value, std::memory_order_relaxed);
  return prev;
}

uint32_t ReadChecker(ThreadProf* tp) {
  return tp->checker.load(std::memory_order_relaxed);
}

uint64_t SwapPair(ThreadProf* tp, uint64_t value) {
  uint64_t prev = tp->pair.load(std::memory_order_relaxed);
  tp->pair.store(value, std::memory_order_relaxed);
  return prev;
}

}  // namespace profiler_internal

using profiler_internal::CurrentThreadProf;
using profiler_internal::ThreadProf;

ProfPhase::ProfPhase(const char* name, MetricsRegistry* metrics, MetricId counter)
    : metrics_(metrics), counter_(counter) {
  if (metrics_ != nullptr) {
    start_ns_ = profiler_internal::MonotonicNs();
  }
  ThreadProf* tp = CurrentThreadProf();
  if (tp == nullptr) {
    return;
  }
  tp_ = tp;
  prev_ = profiler_internal::SwapPhase(tp, EventLogInternString(name) + 1);
}

ProfPhase::~ProfPhase() {
  if (tp_ != nullptr) {
    profiler_internal::SwapPhase(tp_, prev_);
  }
  if (metrics_ != nullptr) {
    metrics_->AddNanos(counter_, profiler_internal::MonotonicNs() - start_ns_);
  }
}

uint32_t ProfCurrentChecker() {
  ThreadProf* tp = CurrentThreadProf();
  if (tp == nullptr) {
    return kProfNoChecker;
  }
  uint32_t value = profiler_internal::ReadChecker(tp);
  return value == 0 ? kProfNoChecker : value - 1;
}

ProfChecker::ProfChecker(uint32_t name_id) {
  ThreadProf* tp = CurrentThreadProf();
  if (tp == nullptr) {
    return;
  }
  tp_ = tp;
  prev_ = profiler_internal::SwapChecker(tp, name_id == kProfNoChecker ? 0 : name_id + 1);
}

ProfChecker::~ProfChecker() {
  if (tp_ != nullptr) {
    profiler_internal::SwapChecker(tp_, prev_);
  }
}

ProfPair::ProfPair(uint32_t i, uint32_t j) {
  ThreadProf* tp = CurrentThreadProf();
  if (tp == nullptr) {
    return;
  }
  tp_ = tp;
  prev_ = profiler_internal::SwapPair(
      tp, (static_cast<uint64_t>(i) << 32) | static_cast<uint64_t>(j));
}

ProfPair::~ProfPair() {
  if (tp_ != nullptr) {
    profiler_internal::SwapPair(tp_, prev_);
  }
}

void ProfilerInstall() {
  static const bool installed = [] {
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = &profiler_internal::SigprofHandler;
    sa.sa_flags = SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, nullptr);
    EventLogAddCrashSpiller(&profiler_internal::ProfilerCrashSpill);
    return true;
  }();
  (void)installed;
}

bool ProfilerStart(uint32_t hz) {
  if (hz == 0) {
    return false;
  }
  hz = std::min<uint32_t>(hz, 1000);
  ProfilerInstall();
  auto& state = profiler_internal::State();
  {
    std::lock_guard<std::mutex> lock(state.mu);
    if (state.running) {
      return false;
    }
    state.period_ns = 1000000000ull / hz;
    state.run_start_ns = profiler_internal::MonotonicNs();
    state.running = true;
    profiler_internal::g_ever_started.store(true, std::memory_order_release);
    evt::SetObserver(&profiler_internal::ProfObserver);
    state.ticker = std::thread(&profiler_internal::TickerMain);
  }
  return true;
}

void ProfilerStop() {
  auto& state = profiler_internal::State();
  std::thread ticker;
  {
    std::lock_guard<std::mutex> lock(state.mu);
    if (!state.running) {
      return;
    }
    state.running = false;
    state.accum_wall_ns += profiler_internal::MonotonicNs() - state.run_start_ns;
    state.run_start_ns = 0;
    ticker = std::move(state.ticker);
  }
  state.cv.notify_all();
  if (ticker.joinable()) {
    ticker.join();
  }
  evt::SetObserver(nullptr);
}

bool ProfilerRunning() {
  auto& state = profiler_internal::State();
  std::lock_guard<std::mutex> lock(state.mu);
  return state.running;
}

void ProfilerSetDumpPath(const std::string& path, bool only_if_unset) {
  auto& state = profiler_internal::State();
  std::lock_guard<std::mutex> lock(state.mu);
  if (only_if_unset && !state.dump_path.empty()) {
    return;
  }
  state.dump_path = path;
}

std::string ProfilerDumpPath() {
  auto& state = profiler_internal::State();
  std::lock_guard<std::mutex> lock(state.mu);
  return state.dump_path;
}

ProfileData ProfilerSnapshot() {
  auto& state = profiler_internal::State();
  ProfileData data;
  {
    std::lock_guard<std::mutex> lock(state.mu);
    profiler_internal::HarvestLocked(state);
    data = profiler_internal::SnapshotLocked(state, profiler_internal::MonotonicNs());
  }
  EventLogStringsSnapshot(&data.strings);
  return data;
}

void ProfilerResetForTest() {
  auto& state = profiler_internal::State();
  std::lock_guard<std::mutex> lock(state.mu);
  for (ThreadProf* tp : state.threads) {
    tp->harvested = tp->next.load(std::memory_order_acquire);
  }
  state.ledger.clear();
  state.total_samples = 0;
  state.dropped_samples = 0;
  state.accum_wall_ns = 0;
  if (state.run_start_ns != 0) {
    state.run_start_ns = profiler_internal::MonotonicNs();
  }
}

bool ProfilerWriteFile(const std::string& path) {
  std::string tmp = path + ".tmp";
  if (!CrashSafeWriteFile(tmp, profiler_internal::EncodeProfile(ProfilerSnapshot()))) {
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

bool DecodeProfile(const std::string& path, ProfileData* out, std::string* error) {
  auto fail = [&](const std::string& why) {
    if (error != nullptr) {
      *error = "profile '" + path + "': " + why;
    }
    return false;
  };
  std::vector<uint8_t> bytes;
  std::string io_error;
  if (!ReadFileBytes(path, &bytes, &io_error)) {
    return fail(io_error);
  }
  ByteReader header(bytes);
  uint8_t magic[sizeof(profiler_internal::kProfileMagic)];
  if (bytes.size() < 16 || !header.GetRaw(magic, sizeof(magic)) ||
      std::memcmp(magic, profiler_internal::kProfileMagic, sizeof(magic)) != 0) {
    return fail("bad magic (not a profile)");
  }
  uint32_t version = header.GetFixed32();
  if (version != profiler_internal::kProfileVersion) {
    return fail("unsupported version " + std::to_string(version));
  }
  // Compared without overflow: a length near 2^64 must not wrap the bound.
  uint64_t payload_len = header.GetFixed64();
  if (header.remaining() < 8 || payload_len > header.remaining() - 8) {
    return fail("truncated payload");
  }
  const uint8_t* p = bytes.data() + header.position();
  header.Skip(static_cast<size_t>(payload_len));
  if (Fnv1a64(p, static_cast<size_t>(payload_len)) != header.GetFixed64()) {
    return fail("checksum mismatch");
  }
  if (payload_len < 36) {
    return fail("truncated header");
  }
  ByteReader reader(p, static_cast<size_t>(payload_len));
  out->sample_period_ns = reader.GetFixed64();
  out->total_samples = reader.GetFixed64();
  out->dropped_samples = reader.GetFixed64();
  out->wall_ns = reader.GetFixed64();
  uint32_t entry_count = reader.GetFixed32();
  if (entry_count > reader.remaining() / profiler_internal::kEntryBytes) {
    return fail("truncated entry section");
  }
  out->entries.clear();
  out->entries.reserve(entry_count);
  for (uint32_t i = 0; i < entry_count; ++i) {
    ProfileEntry entry;
    entry.checker = reader.GetFixed32();
    entry.phase = reader.GetFixed32();
    entry.pair = reader.GetFixed64();
    entry.wait_kind = reader.GetFixed32();
    entry.samples = reader.GetFixed64();
    out->entries.push_back(entry);
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
    out->strings.emplace_back(reinterpret_cast<const char*>(p + reader.position()), length);
    reader.Skip(length);
  }
  return true;
}

namespace {

std::vector<ProfileEntry> SortedBySamples(const ProfileData& data) {
  std::vector<ProfileEntry> sorted = data.entries;
  std::sort(sorted.begin(), sorted.end(), [](const ProfileEntry& a, const ProfileEntry& b) {
    if (a.samples != b.samples) {
      return a.samples > b.samples;
    }
    return std::tie(a.checker, a.phase, a.pair, a.wait_kind) <
           std::tie(b.checker, b.phase, b.pair, b.wait_kind);
  });
  return sorted;
}

void RenderPhaseFractions(JsonWriter* w, const ProfileData& data) {
  w->Key("phase_fractions").BeginObject();
  for (const auto& kv : ProfilePhaseFractions(data)) {
    w->Key(kv.first).Double(kv.second);
  }
  w->EndObject();
}

}  // namespace

std::string ProfileToJson(const ProfileData& data) {
  const double period_s = static_cast<double>(data.sample_period_ns) / 1e9;
  JsonWriter w;
  w.BeginObject();
  w.Key("schema").String("grapple.profile.v1");
  w.Key("sample_period_ns").UInt(data.sample_period_ns);
  w.Key("total_samples").UInt(data.total_samples);
  w.Key("dropped_samples").UInt(data.dropped_samples);
  w.Key("wall_seconds").Double(static_cast<double>(data.wall_ns) / 1e9);
  RenderPhaseFractions(&w, data);
  w.Key("entries").BeginArray();
  for (const ProfileEntry& entry : SortedBySamples(data)) {
    w.BeginObject();
    w.Key("checker").String(profiler_internal::ResolveId(data, entry.checker));
    w.Key("phase").String(profiler_internal::ResolveId(data, entry.phase));
    if (entry.pair != kProfileNoPair) {
      w.Key("pair_i").UInt(entry.pair >> 32);
      w.Key("pair_j").UInt(entry.pair & 0xffffffffu);
    }
    w.Key("wait").String(ProfileWaitKindName(entry.wait_kind));
    w.Key("samples").UInt(entry.samples);
    w.Key("seconds").Double(static_cast<double>(entry.samples) * period_s);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.Take();
}

std::string ProfileToCollapsed(const ProfileData& data) {
  std::vector<std::string> lines;
  lines.reserve(data.entries.size());
  for (const ProfileEntry& entry : data.entries) {
    std::string checker = profiler_internal::ResolveId(data, entry.checker);
    std::string phase = profiler_internal::ResolveId(data, entry.phase);
    std::string line = checker.empty() ? std::string("(none)") : checker;
    line += ";";
    line += phase.empty() ? std::string("(none)") : phase;
    if (entry.pair != kProfileNoPair) {
      line += ";pair:";
      line += std::to_string(entry.pair >> 32);
      line += '-';
      line += std::to_string(entry.pair & 0xffffffffu);
    }
    if (entry.wait_kind != evt::kWaitNone) {
      line += ";offcpu:";
      line += ProfileWaitKindName(entry.wait_kind);
    }
    line += ' ';
    line += std::to_string(entry.samples);
    line += '\n';
    lines.push_back(std::move(line));
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) {
    out += line;
  }
  return out;
}

std::map<std::string, double> ProfilePhaseFractions(const ProfileData& data) {
  std::map<std::string, uint64_t> per_phase;
  uint64_t tagged = 0;
  for (const ProfileEntry& entry : data.entries) {
    if (entry.phase == 0) {
      continue;
    }
    std::string name = profiler_internal::ResolveId(data, entry.phase);
    if (name.empty()) {
      continue;
    }
    per_phase[name] += entry.samples;
    tagged += entry.samples;
  }
  std::map<std::string, double> fractions;
  for (const auto& kv : per_phase) {
    fractions[kv.first] =
        tagged == 0 ? 0.0 : static_cast<double>(kv.second) / static_cast<double>(tagged);
  }
  return fractions;
}

std::string ProfileSummaryJson() {
  ProfileData data = ProfilerSnapshot();
  JsonWriter w;
  w.BeginObject();
  w.Key("samples").UInt(data.total_samples);
  w.Key("dropped").UInt(data.dropped_samples);
  RenderPhaseFractions(&w, data);
  w.EndObject();
  return w.Take();
}

const char* ProfileWaitKindName(uint32_t kind) {
  switch (kind) {
    case evt::kWaitNone:
      return "none";
    case evt::kWaitIoBarrier:
      return "io_barrier";
    case evt::kWaitIoQueue:
      return "io_queue";
    case evt::kWaitSolve:
      return "solve";
    case evt::kWaitTask:
      return "task";
    default:
      return "unknown";
  }
}

}  // namespace obs
}  // namespace grapple
