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
// are memoized exactly, keyed by the input payload ids (MergeMemo, §4.3,
// Table 4).
//
// The oracle owns its engine's payload id space (PayloadTable): payloads
// are named by ids everywhere in the join loop. Merges run in join rounds
// (DESIGN.md §16): during a round the table and the memo are read-only, and
// shards probe them without a lock. A miss only records its pair in the
// shard's miss buffer. The round's solve step then takes the distinct
// missing pairs of all shards, in shard-then-first-probe order, and merges,
// decodes and solves each exactly once, split evenly over the shards'
// decoders and solvers. CommitRound() interns the results and memoizes their
// pairs in that order, on one thread. So ids and counters do not depend on
// thread timing, and the oracle_* counters count exactly what a sequential
// run would: oracle_constraints_checked_total is the number of distinct
// pairs solved, and the oracle_solve_ns histogram holds one sample each.
#ifndef GRAPPLE_SRC_GRAPH_CONSTRAINT_ORACLE_H_
#define GRAPPLE_SRC_GRAPH_CONSTRAINT_ORACLE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/graph/merge_memo.h"
#include "src/obs/metrics.h"
#include "src/pathenc/constraint_decoder.h"
#include "src/pathenc/path_encoding.h"
#include "src/smt/solver.h"

namespace grapple {

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

  // Merge() outcome for an unsat pair: the induced edge must not be added.
  static constexpr uint32_t kUnsat = MergeMemo::kNone;

  virtual ~ConstraintOracle();

  // Payload for a base edge carrying `enc`: its serialization, in both codecs.
  std::vector<uint8_t> BasePayload(const PathEncoding& enc) const;

  // Payload representing the always-true constraint (used when widening).
  std::vector<uint8_t> TruePayload() const { return BasePayload(PathEncoding::Empty()); }

  // --- payload ids (not during a round) ---
  uint32_t Intern(const std::vector<uint8_t>& bytes) {
    return payloads_.Intern(bytes.data(), bytes.size());
  }
  PayloadBytes Bytes(uint32_t id) const { return payloads_.Bytes(id); }

  // --- join rounds ---
  // Opens a round with `shards` empty miss buffers.
  void BeginRound(size_t shards);
  // Merges payloads `a` and `b` on behalf of `shard`: kUnsat or the merged
  // payload's id when the pair was memoized before the round, else a pending
  // token naming the shard's recorded miss (IsPending), which Resolve turns
  // into an outcome after CommitRound(). Calls for distinct shards may run
  // concurrently.
  uint32_t Merge(size_t shard, uint32_t a, uint32_t b);
  static bool IsPending(uint32_t token) { return token != kUnsat && token >= kPendingBit; }
  // The solve step, between the round's Merge calls and CommitRound().
  // CollectMisses() gathers the distinct missing pairs of every shard and
  // returns how many there are; SolveMisses(shard, begin, end) merges and
  // solves pairs [begin, end) of them with `shard`'s decoder and solver.
  // SolveMisses calls for distinct shards may run concurrently.
  size_t CollectMisses();
  void SolveMisses(size_t shard, size_t begin, size_t end);
  // Interns the solved results and memoizes their pairs in collection
  // order, and folds the round into the oracle_* counters. Returns how many
  // of the round's Merge calls returned a pending token whose pair proved
  // unsat. Single-threaded.
  uint64_t CommitRound();
  // The outcome of a Merge token after CommitRound(): kUnsat or a payload id.
  uint32_t Resolve(size_t shard, uint32_t token) const;

  // One merge outside any round: kUnsat or the merged payload's id.
  uint32_t MergeAndCheck(uint32_t a, uint32_t b);

  // The oracle_* counters ("oracle_merges_total", "oracle_lookup_ns", ...)
  // and the solve-time histogram.
  obs::MetricsSnapshot Metrics() const { return metrics_.Snapshot(); }

 protected:
  // One shard's decoder, solver and miss buffer (defined in the .cc).
  struct Shard;

  ConstraintOracle(const Icfet* icfet, const Options& options);

  // The miss path: merges `a` and `b` into `out` (left empty when unsat)
  // and decides the full path with Check(). Runs in the round's solve step
  // with `shard`'s decoder and solver.
  virtual SolveResult MergeBytes(Shard* shard, PayloadBytes a, PayloadBytes b,
                                 std::vector<uint8_t>* out) = 0;
  // Decodes and solves `full` with the shard's decoder and solver,
  // charging oracle_lookup_ns and oracle_solve_ns.
  SolveResult Check(Shard* shard, const PathEncoding& full);

  const Icfet* icfet_;
  obs::MetricsRegistry metrics_;
  obs::MetricId c_lookup_ns_;

 private:
  // One distinct missing pair of the round and its solve.
  struct Solve {
    MergeMemo::Key key;
    SolveResult verdict = SolveResult::kSat;
    uint32_t shard = 0;  // whose `bytes` hold the result: [begin, end)
    size_t begin = 0;
    size_t end = 0;
    uint32_t value = 0;  // kUnsat or the payload id, after the commit
  };
  // Tags a pending token (payload ids stay below PayloadTable::kMaxPayloads).
  static constexpr uint32_t kPendingBit = PayloadTable::kMaxPayloads;

  Options options_;
  PayloadTable payloads_;
  MergeMemo memo_;
  std::vector<std::unique_ptr<Shard>> shards_;
  size_t round_shards_ = 0;
  std::vector<Solve> solves_;  // the round's distinct misses
  MergeMemo solve_index_;      // pair -> index into solves_ (memo on)
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
  SolveResult MergeBytes(Shard* shard, PayloadBytes a, PayloadBytes b,
                         std::vector<uint8_t>* out) override;

  size_t max_encoding_items_;
};

}  // namespace grapple

#endif  // GRAPPLE_SRC_GRAPH_CONSTRAINT_ORACLE_H_
