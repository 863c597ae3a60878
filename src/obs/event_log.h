// Always-on flight recorder (DESIGN.md §12): per-thread lock-free ring
// buffers of fixed-size binary events, merged on demand into a JSON tail,
// and spilled to `flightrec.bin` on crash paths.
//
// Writers record through the support-layer hook (`evt::Emit`), which this
// module installs itself behind via EventLogInstall(). The hot path is one
// relaxed enabled-check, a timestamp read, and three stores into the
// calling thread's own ring slot, bracketed by a per-slot sequence counter
// (seqlock): readers that race a writer detect the torn slot and drop it
// rather than reporting garbage. Rings overwrite oldest-first; the recorder
// never blocks, never allocates after a thread's first event, and never
// grows — bounded overhead is the contract that lets it stay on in
// production runs.
//
// The merger (EventLogTail*) snapshots every thread's ring, discards torn
// or empty slots, sorts by timestamp, and keeps the newest `max_events`.
// On a fault-injection `_exit`, torn-write power cut, or GRAPPLE_CHECK
// abort, the crash-flush hook writes the same merged tail to the path set
// by EventLogSetCrashDumpPath() using raw O_CLOEXEC syscalls — the fault
// shim instruments the byte_io layer, so the dump path must not go through
// it (a crash dump that re-enters fault injection would recurse).
#ifndef GRAPPLE_SRC_OBS_EVENT_LOG_H_
#define GRAPPLE_SRC_OBS_EVENT_LOG_H_

#include <cstdint>
#include <string>
#include <vector>

namespace grapple {
namespace obs {

// One recorded event; 32 bytes, written verbatim into flightrec.bin.
// `type` is an evt::Type value; per-type argument semantics live in the
// table in event_log.cc (EventTypeName / EventArgIsString).
struct FlightEvent {
  uint64_t ts_ns = 0;  // steady-clock nanoseconds since process start
  uint16_t type = 0;
  uint16_t tid = 0;    // recorder-local thread id (registration order)
  uint32_t arg0 = 0;
  uint64_t arg1 = 0;
  uint64_t arg2 = 0;
};
static_assert(sizeof(FlightEvent) == 32, "flightrec.bin record layout");

// Installs the recorder behind evt::Emit and the crash-flush hook.
// Idempotent; called by the Grapple facade and GraphEngine constructors so
// any entry point gets a live recorder.
void EventLogInstall();

// Recording switch, default on. Off = Emit returns after one relaxed load;
// existing ring contents are kept (SetEnabled(false) is "pause", not
// "clear"). Used by the obs_overhead A/B bench.
void EventLogSetEnabled(bool enabled);
bool EventLogEnabled();

// Per-thread ring capacity in events, rounded up to a power of two
// (default 4096; the facade sets Observability::event_log_capacity).
// Applies to rings created after the call; existing rings keep their size.
void EventLogSetCapacity(size_t events_per_thread);

// Interns `s` into the process-wide string table and returns its stable
// id, for event args that name things (checker names, crash points).
uint32_t EventLogInternString(const std::string& s);
// Reverse lookup; empty string for unknown ids.
std::string EventLogStringOf(uint32_t id);
// Snapshot of the whole table (ids are indices). With `try_only` the call
// refuses to block — crash paths use it so a fault that struck while the
// table lock was held skips the snapshot instead of deadlocking; returns
// false and leaves `out` untouched in that case.
bool EventLogStringsSnapshot(std::vector<std::string>* out, bool try_only = false);

// Merged tail: the newest `max_events` events across all rings, oldest
// first. Torn slots (reader raced a writer) are dropped, not repaired.
std::vector<FlightEvent> EventLogTail(size_t max_events);
// {"events":[{"ts_ns":..,"type":"pair_start","tid":..,...},...]}
std::string EventLogTailJson(size_t max_events);

// Where crash paths spill the recorder. Empty disables the dump.
// `only_if_unset` lets inner components (engines) propose a path without
// overriding the facade's run-work-dir choice.
void EventLogSetCrashDumpPath(const std::string& path, bool only_if_unset = false);
std::string EventLogCrashDumpPath();

// Writes the merged tail (every live slot) to `path` in flightrec format.
// Safe on crash paths: written by CrashSafeWriteFile, no allocation beyond
// the merge and encode buffers. Returns false on I/O failure.
bool EventLogFlush(const std::string& path);

// Creates or truncates `path` and writes `bytes` with raw open/write/fsync
// (EINTR retried). The crash-path writer of flightrec.bin and profile.bin:
// it never enters byte_io's file helpers or their fault shim.
bool CrashSafeWriteFile(const std::string& path, const std::vector<uint8_t>& bytes);

// Registers an additional dump to run on every crash path — injected
// `crash@` exits, fatal checks, and real fatal signals — after the event
// rings are spilled. The sampling profiler registers one so profile.bin
// lands next to flightrec.bin. Spillers must be best-effort crash-safe:
// try-lock only, CrashSafeWriteFile, no byte_io file helpers. At most 8;
// later registrations are dropped.
using CrashSpiller = void (*)();
void EventLogAddCrashSpiller(CrashSpiller spiller);

// Decoded flightrec.bin: events plus the string table snapshot that
// resolves string-carrying args.
struct FlightRecording {
  std::vector<FlightEvent> events;
  std::vector<std::string> strings;
};
bool DecodeFlightRecording(const std::string& path, FlightRecording* out, std::string* error);
// Human-readable JSON rendering of a decoded recording (same shape as
// EventLogTailJson).
std::string FlightRecordingToJson(const FlightRecording& recording);

// Stable lowercase name for an event type ("pair_start", ...); "unknown"
// for ids this build does not know.
const char* EventTypeName(uint16_t type);

}  // namespace obs
}  // namespace grapple

#endif  // GRAPPLE_SRC_OBS_EVENT_LOG_H_
