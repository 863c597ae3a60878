// The constraint oracle: how the engine asks "is this combined path
// feasible, and what payload does the induced edge carry?".
//
// Two implementations exist:
//   * IntervalOracle (here) — the Grapple design: payloads are interval
//     sequence encodings; merging uses the 4-case algorithm.
//   * ExplicitOracle (src/baseline) — the Table-5 baseline: payloads carry
//     the constraint itself, growing with path length.
// They share everything but the merge itself: feasibility decodes against
// the in-memory ICFET and solves with the built-in SMT solver, and merges
// are memoized exactly, keyed by the input payload pair (MergeMemo, §4.3,
// Table 4).
#ifndef GRAPPLE_SRC_GRAPH_CONSTRAINT_ORACLE_H_
#define GRAPPLE_SRC_GRAPH_CONSTRAINT_ORACLE_H_

#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "src/graph/merge_memo.h"
#include "src/obs/metrics.h"
#include "src/pathenc/constraint_decoder.h"
#include "src/pathenc/path_encoding.h"
#include "src/smt/solver.h"

namespace grapple {

struct OracleStats {
  uint64_t merges = 0;
  uint64_t constraints_checked = 0;  // memo misses: merge+decode+solve executions
  uint64_t cache_hits = 0;           // memo hits
  uint64_t unsat = 0;                // misses that solved unsat (distinct unsat pairs)
  uint64_t unknown = 0;
  double lookup_seconds = 0;  // merge, decode and compaction on the miss path
  double solve_seconds = 0;   // SMT time
};

class ConstraintOracle {
 public:
  struct Options {
    // Memoize merges by input pair (MergeMemo); false re-solves every merge.
    bool enable_cache = true;
    SolverLimits solver_limits;
    // Adds a wait of this many microseconds to every actual solve, modeling
    // the per-call cost of an external SMT solver (the paper used Z3);
    // 0 disables. Used by the Figure-9 bench to reproduce the paper's cost
    // profile (see DESIGN.md substitutions).
    uint32_t simulated_solve_latency_us = 0;
    // How the simulated latency spends its time. False (default): busy-wait,
    // modeling an in-process solver that burns this core. True: sleep,
    // modeling a round trip to an out-of-process solver endpoint — the CPU
    // is free meanwhile, so concurrent checker runs overlap their solver
    // waits (the scheduler speedup bench measures exactly this).
    bool simulated_solve_blocks = false;
  };

  virtual ~ConstraintOracle() = default;

  // Payload for a base edge carrying `enc`: its serialization, in both codecs.
  std::vector<uint8_t> BasePayload(const PathEncoding& enc) const;

  // Payload representing the always-true constraint (used when widening).
  std::vector<uint8_t> TruePayload() const { return BasePayload(PathEncoding::Empty()); }

  // Combines the payloads of two consecutive edges; returns the payload for
  // the induced transitive edge, or nullopt when the combined constraint is
  // unsatisfiable (the edge must not be added). Thread-safe. With the memo
  // on, each distinct (a, b) pair runs MergeLocked() once; a repeat costs
  // one memo probe.
  std::optional<std::vector<uint8_t>> MergeAndCheck(const uint8_t* a, size_t a_len,
                                                    const uint8_t* b, size_t b_len);

  OracleStats Stats() const;
  void ResetStats() { metrics_.Reset(); }
  // The oracle_* counters ("oracle_merges_total", "oracle_lookup_ns", ...)
  // and the solve-time histogram.
  obs::MetricsSnapshot Metrics() const { return metrics_.Snapshot(); }

 protected:
  ConstraintOracle(const Icfet* icfet, const Options& options);

  // The memo-miss path: merges `a` and `b` and decides the result with
  // CheckLocked(). Runs under mu_.
  virtual MergeMemo::Result MergeLocked(const uint8_t* a, size_t a_len, const uint8_t* b,
                                        size_t b_len) = 0;
  // Decodes and solves `full`, charging oracle_lookup_ns and
  // oracle_solve_ns and counting the verdict. Runs under mu_.
  SolveResult CheckLocked(const PathEncoding& full);

  mutable std::mutex mu_;
  PathDecoder decoder_;
  obs::MetricsRegistry metrics_;
  obs::MetricId c_lookup_ns_;

 private:
  Options options_;
  Solver solver_;
  MergeMemo memo_;
  obs::MetricId c_merges_;
  obs::MetricId c_checked_;
  obs::MetricId c_cache_hits_;
  obs::MetricId c_unsat_;
  obs::MetricId c_unknown_;
  obs::MetricId c_solve_ns_;
  obs::MetricId h_solve_ns_;
};

class IntervalOracle : public ConstraintOracle {
 public:
  struct Options : ConstraintOracle::Options {
    // Encoding-length cap handed to PathEncoding::Append.
    size_t max_encoding_items = 64;
  };

  explicit IntervalOracle(const Icfet* icfet);
  IntervalOracle(const Icfet* icfet, Options options);

  // Decodes one payload's constraint (witness rendering).
  Constraint DecodePayload(const uint8_t* payload, size_t len);

 private:
  MergeMemo::Result MergeLocked(const uint8_t* a, size_t a_len, const uint8_t* b,
                                size_t b_len) override;

  size_t max_encoding_items_;
};

}  // namespace grapple

#endif  // GRAPPLE_SRC_GRAPH_CONSTRAINT_ORACLE_H_
