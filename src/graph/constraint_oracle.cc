#include "src/graph/constraint_oracle.h"

#include <chrono>
#include <thread>

#include "src/support/event_hook.h"
#include "src/support/timer.h"

namespace grapple {

ConstraintOracle::ConstraintOracle(const Icfet* icfet, const Options& options)
    : decoder_(icfet),
      c_lookup_ns_(metrics_.Counter("oracle_lookup_ns")),
      options_(options),
      solver_(options.solver_limits),
      c_merges_(metrics_.Counter("oracle_merges_total")),
      c_checked_(metrics_.Counter("oracle_constraints_checked_total")),
      c_cache_hits_(metrics_.Counter("oracle_cache_hits_total")),
      c_unsat_(metrics_.Counter("oracle_unsat_total")),
      c_unknown_(metrics_.Counter("oracle_unknown_total")),
      c_solve_ns_(metrics_.Counter("oracle_solve_ns")),
      h_solve_ns_(metrics_.Histogram("oracle_solve_ns")) {}

std::vector<uint8_t> ConstraintOracle::BasePayload(const PathEncoding& enc) const {
  std::vector<uint8_t> out;
  enc.Serialize(&out);
  return out;
}

std::optional<std::vector<uint8_t>> ConstraintOracle::MergeAndCheck(const uint8_t* a,
                                                                    size_t a_len,
                                                                    const uint8_t* b,
                                                                    size_t b_len) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_.Add(c_merges_);
  if (!options_.enable_cache) {
    return MergeLocked(a, a_len, b, b_len);
  }
  MergeMemo::Key key = memo_.KeyOf(a, a_len, b, b_len);
  MergeMemo::Result result;
  if (memo_.Find(key, &result)) {
    metrics_.Add(c_cache_hits_);
    return result;
  }
  result = MergeLocked(a, a_len, b, b_len);
  memo_.Insert(key, result);
  return result;
}

SolveResult ConstraintOracle::CheckLocked(const PathEncoding& full) {
  metrics_.Add(c_checked_);
  WallTimer decode_timer;
  Constraint constraint = decoder_.Decode(full);
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
  return result;
}

OracleStats ConstraintOracle::Stats() const {
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

IntervalOracle::IntervalOracle(const Icfet* icfet) : IntervalOracle(icfet, Options()) {}

IntervalOracle::IntervalOracle(const Icfet* icfet, Options options)
    : ConstraintOracle(icfet, options), max_encoding_items_(options.max_encoding_items) {}

MergeMemo::Result IntervalOracle::MergeLocked(const uint8_t* a, size_t a_len, const uint8_t* b,
                                              size_t b_len) {
  WallTimer merge_timer;
  ByteReader reader_a(a, a_len);
  ByteReader reader_b(b, b_len);
  PathEncoding enc_a = PathEncoding::Deserialize(&reader_a);
  PathEncoding enc_b = PathEncoding::Deserialize(&reader_b);
  // Feasibility is decided on the *full* concatenated path (so callee branch
  // conditions and parameter equations all participate, as in the paper's
  // Figure 6 walk-through)...
  PathEncoding full = PathEncoding::Append(enc_a, enc_b, max_encoding_items_);
  metrics_.AddNanos(c_lookup_ns_, merge_timer.ElapsedNanos());
  if (CheckLocked(full) == SolveResult::kUnsat) {
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

Constraint IntervalOracle::DecodePayload(const uint8_t* payload, size_t len) {
  std::lock_guard<std::mutex> lock(mu_);
  ByteReader reader(payload, len);
  PathEncoding enc = PathEncoding::Deserialize(&reader);
  return decoder_.Decode(enc);
}

}  // namespace grapple
