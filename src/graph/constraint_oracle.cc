#include "src/graph/constraint_oracle.h"

#include <chrono>
#include <cmath>
#include <thread>

#include "src/support/event_hook.h"

namespace grapple {

namespace {

uint64_t SecondsToNanos(double seconds) {
  return seconds <= 0 ? 0 : static_cast<uint64_t>(std::llround(seconds * 1e9));
}

}  // namespace

obs::MetricsSnapshot OracleStats::ToSnapshot() const {
  obs::MetricsSnapshot snapshot;
  snapshot.counters["oracle_merges_total"] = merges;
  snapshot.counters["oracle_constraints_checked_total"] = constraints_checked;
  snapshot.counters["oracle_cache_hits_total"] = cache_hits;
  snapshot.counters["oracle_unsat_total"] = unsat;
  snapshot.counters["oracle_unknown_total"] = unknown;
  snapshot.counters["oracle_lookup_ns"] = SecondsToNanos(lookup_seconds);
  snapshot.counters["oracle_solve_ns"] = SecondsToNanos(solve_seconds);
  return snapshot;
}

IntervalOracle::IntervalOracle(const Icfet* icfet) : IntervalOracle(icfet, Options()) {}

IntervalOracle::IntervalOracle(const Icfet* icfet, Options options)
    : options_(options),
      decoder_(icfet),
      solver_(options.solver_limits),
      cache_(options.cache_capacity),
      c_merges_(metrics_.Counter("oracle_merges_total")),
      c_checked_(metrics_.Counter("oracle_constraints_checked_total")),
      c_cache_hits_(metrics_.Counter("oracle_cache_hits_total")),
      c_unsat_(metrics_.Counter("oracle_unsat_total")),
      c_unknown_(metrics_.Counter("oracle_unknown_total")),
      c_lookup_ns_(metrics_.Counter("oracle_lookup_ns")),
      c_solve_ns_(metrics_.Counter("oracle_solve_ns")),
      h_solve_ns_(metrics_.Histogram("oracle_solve_ns")) {}

std::vector<uint8_t> IntervalOracle::BasePayload(const PathEncoding& enc) {
  std::vector<uint8_t> out;
  enc.Serialize(&out);
  return out;
}

std::vector<uint8_t> IntervalOracle::TruePayload() {
  return BasePayload(PathEncoding::Empty());
}

SolveResult IntervalOracle::CheckEncodingLocked(const PathEncoding& enc, const std::string& key) {
  if (options_.enable_cache) {
    auto cached = cache_.Get(key);
    if (cached.has_value()) {
      metrics_.Add(c_cache_hits_);
      return *cached;
    }
  }
  metrics_.Add(c_checked_);
  WallTimer decode_timer;
  Constraint constraint = decoder_.Decode(enc);
  metrics_.AddNanos(c_lookup_ns_, decode_timer.ElapsedNanos());
  WallTimer solve_timer;
  SolveResult result = solver_.Solve(constraint);
  if (options_.simulated_solve_latency_us > 0) {
    if (options_.simulated_solve_blocks) {
      // Sleep: an out-of-process solver holds the request; this core is
      // free for other checkers' work meanwhile. Bracketed as a solve wait
      // so the sampling profiler books the blocked time off-CPU.
      evt::Emit(evt::kWaitBegin, evt::kWaitSolve);
      std::this_thread::sleep_for(std::chrono::microseconds(options_.simulated_solve_latency_us));
      evt::Emit(evt::kWaitEnd, evt::kWaitSolve);
    } else {
      double target = options_.simulated_solve_latency_us * 1e-6;
      while (solve_timer.ElapsedSeconds() < target) {
        // busy-wait: models an in-process solver burning this core
      }
    }
  }
  uint64_t solve_nanos = solve_timer.ElapsedNanos();
  metrics_.AddNanos(c_solve_ns_, solve_nanos);
  metrics_.Observe(h_solve_ns_, solve_nanos);
  if (result == SolveResult::kUnsat) {
    metrics_.Add(c_unsat_);
  } else if (result == SolveResult::kUnknown) {
    metrics_.Add(c_unknown_);
  }
  if (options_.enable_cache) {
    cache_.Put(key, result);
  }
  return result;
}

std::optional<std::vector<uint8_t>> IntervalOracle::MergeAndCheck(const uint8_t* a, size_t a_len,
                                                                  const uint8_t* b,
                                                                  size_t b_len) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_.Add(c_merges_);
  WallTimer lookup_timer;
  ByteReader reader_a(a, a_len);
  ByteReader reader_b(b, b_len);
  PathEncoding enc_a = PathEncoding::Deserialize(&reader_a);
  PathEncoding enc_b = PathEncoding::Deserialize(&reader_b);
  // Feasibility is decided on the *full* concatenated path (so callee branch
  // conditions and parameter equations all participate, as in the paper's
  // Figure 6 walk-through)...
  PathEncoding full = PathEncoding::Append(enc_a, enc_b, options_.max_encoding_items);
  std::vector<uint8_t> full_bytes;
  full.Serialize(&full_bytes);
  std::string key(reinterpret_cast<const char*>(full_bytes.data()), full_bytes.size());
  metrics_.AddNanos(c_lookup_ns_, lookup_timer.ElapsedNanos());
  SolveResult result = CheckEncodingLocked(full, key);
  if (result == SolveResult::kUnsat) {
    return std::nullopt;
  }
  // ... while the stored encoding drops completed callee segments (§4.2
  // case 3), bounding growth by call depth.
  WallTimer compact_timer;
  std::vector<uint8_t> bytes;
  full.Compact().Serialize(&bytes);
  metrics_.AddNanos(c_lookup_ns_, compact_timer.ElapsedNanos());
  return bytes;
}

SolveResult IntervalOracle::CheckPayload(const uint8_t* payload, size_t len) {
  std::lock_guard<std::mutex> lock(mu_);
  ByteReader reader(payload, len);
  PathEncoding enc = PathEncoding::Deserialize(&reader);
  std::string key(reinterpret_cast<const char*>(payload), len);
  return CheckEncodingLocked(enc, key);
}

Constraint IntervalOracle::DecodePayload(const uint8_t* payload, size_t len) {
  std::lock_guard<std::mutex> lock(mu_);
  ByteReader reader(payload, len);
  PathEncoding enc = PathEncoding::Deserialize(&reader);
  return decoder_.Decode(enc);
}

OracleStats IntervalOracle::Stats() const {
  obs::MetricsSnapshot snapshot = metrics_.Snapshot();
  OracleStats stats;
  stats.merges = snapshot.CounterOr("oracle_merges_total");
  stats.constraints_checked = snapshot.CounterOr("oracle_constraints_checked_total");
  stats.cache_hits = snapshot.CounterOr("oracle_cache_hits_total");
  stats.unsat = snapshot.CounterOr("oracle_unsat_total");
  stats.unknown = snapshot.CounterOr("oracle_unknown_total");
  stats.lookup_seconds = snapshot.SecondsOf("oracle_lookup_ns");
  stats.solve_seconds = snapshot.SecondsOf("oracle_solve_ns");
  return stats;
}

void IntervalOracle::ResetStats() {
  metrics_.Reset();
  std::lock_guard<std::mutex> lock(mu_);
  cache_.ResetStats();
}

}  // namespace grapple
