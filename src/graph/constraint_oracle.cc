#include "src/graph/constraint_oracle.h"

#include <chrono>
#include <thread>

#include "src/support/event_hook.h"
#include "src/support/timer.h"

namespace grapple {

namespace {

// Tags a token that names a shard's buffered miss rather than a payload id
// (payload ids stay below PayloadTable::kMaxPayloads).
constexpr uint32_t kPending = PayloadTable::kMaxPayloads;

}  // namespace

struct ConstraintOracle::Shard {
  struct Miss {
    MergeMemo::Key key;
    SolveResult verdict;
    size_t begin;  // result bytes: [begin, end) of `bytes`
    size_t end;
  };

  Shard(const Icfet* icfet, const SolverLimits& limits) : decoder(icfet), solver(limits) {}

  void Clear() {
    index.Clear();
    misses.clear();
    bytes.clear();
    resolved.clear();
    merges = 0;
  }

  PathDecoder decoder;
  Solver solver;
  MergeMemo index;                // (a, b) -> index into misses (memo on)
  std::vector<Miss> misses;       // in first-probe order
  std::vector<uint8_t> bytes;     // sat results, back to back
  std::vector<uint8_t> merged;    // MergeBytes output
  std::vector<uint32_t> resolved;  // miss -> payload id, after the commit
  uint64_t merges = 0;
};

ConstraintOracle::ConstraintOracle(const Icfet* icfet, const Options& options)
    : icfet_(icfet),
      c_lookup_ns_(metrics_.Counter("oracle_lookup_ns")),
      options_(options),
      c_merges_(metrics_.Counter("oracle_merges_total")),
      c_checked_(metrics_.Counter("oracle_constraints_checked_total")),
      c_cache_hits_(metrics_.Counter("oracle_cache_hits_total")),
      c_unsat_(metrics_.Counter("oracle_unsat_total")),
      c_unknown_(metrics_.Counter("oracle_unknown_total")),
      c_solve_ns_(metrics_.Counter("oracle_solve_ns")),
      h_solve_ns_(metrics_.Histogram("oracle_solve_ns")) {}

ConstraintOracle::~ConstraintOracle() = default;

std::vector<uint8_t> ConstraintOracle::BasePayload(const PathEncoding& enc) const {
  std::vector<uint8_t> out;
  enc.Serialize(&out);
  return out;
}

void ConstraintOracle::BeginRound(size_t shards) {
  while (shards_.size() < shards) {
    shards_.push_back(std::make_unique<Shard>(icfet_, options_.solver_limits));
  }
  for (size_t s = 0; s < shards; ++s) {
    shards_[s]->Clear();
  }
  round_shards_ = shards;
}

uint32_t ConstraintOracle::Merge(size_t shard_index, uint32_t a, uint32_t b) {
  Shard& shard = *shards_[shard_index];
  ++shard.merges;
  MergeMemo::Key key{a, b};
  uint32_t value = 0;
  if (options_.enable_cache) {
    if (memo_.Find(key, &value)) {
      return value;
    }
    if (shard.index.Find(key, &value)) {
      return shard.misses[value].verdict == SolveResult::kUnsat ? kUnsat : kPending | value;
    }
  }
  shard.merged.clear();
  SolveResult verdict = MergeBytes(&shard, payloads_.Bytes(a), payloads_.Bytes(b), &shard.merged);
  uint32_t miss = static_cast<uint32_t>(shard.misses.size());
  size_t begin = shard.bytes.size();
  if (verdict != SolveResult::kUnsat) {
    shard.bytes.insert(shard.bytes.end(), shard.merged.begin(), shard.merged.end());
  }
  shard.misses.push_back({key, verdict, begin, shard.bytes.size()});
  if (options_.enable_cache) {
    shard.index.Insert(key, miss);
  }
  return verdict == SolveResult::kUnsat ? kUnsat : kPending | miss;
}

PayloadBytes ConstraintOracle::BytesOf(size_t shard_index, uint32_t token) const {
  if ((token & kPending) == 0) {
    return payloads_.Bytes(token);
  }
  const Shard& shard = *shards_[shard_index];
  const Shard::Miss& miss = shard.misses[token & ~kPending];
  return {shard.bytes.data() + miss.begin, miss.end - miss.begin};
}

void ConstraintOracle::CommitRound() {
  for (size_t s = 0; s < round_shards_; ++s) {
    Shard& shard = *shards_[s];
    shard.resolved.resize(shard.misses.size());
    uint64_t checked = 0;
    for (size_t k = 0; k < shard.misses.size(); ++k) {
      const Shard::Miss& miss = shard.misses[k];
      uint32_t value = 0;
      if (options_.enable_cache && memo_.Find(miss.key, &value)) {
        // An earlier shard merged the same pair this round.
        shard.resolved[k] = value;
        continue;
      }
      value = miss.verdict == SolveResult::kUnsat
                  ? kUnsat
                  : payloads_.Intern(shard.bytes.data() + miss.begin, miss.end - miss.begin);
      if (options_.enable_cache) {
        memo_.Insert(miss.key, value);
      }
      shard.resolved[k] = value;
      ++checked;
      if (miss.verdict == SolveResult::kUnsat) {
        metrics_.Add(c_unsat_);
      } else if (miss.verdict == SolveResult::kUnknown) {
        metrics_.Add(c_unknown_);
      }
    }
    metrics_.Add(c_merges_, shard.merges);
    metrics_.Add(c_checked_, checked);
    metrics_.Add(c_cache_hits_, shard.merges - checked);
  }
}

uint32_t ConstraintOracle::Resolve(size_t shard_index, uint32_t token) const {
  return (token & kPending) == 0 ? token : shards_[shard_index]->resolved[token & ~kPending];
}

uint32_t ConstraintOracle::MergeAndCheck(uint32_t a, uint32_t b) {
  BeginRound(1);
  uint32_t token = Merge(0, a, b);
  CommitRound();
  return token == kUnsat ? kUnsat : Resolve(0, token);
}

SolveResult ConstraintOracle::Check(Shard* shard, const PathEncoding& full) {
  WallTimer decode_timer;
  Constraint constraint = shard->decoder.Decode(full);
  metrics_.AddNanos(c_lookup_ns_, decode_timer.ElapsedNanos());
  WallTimer solve_timer;
  SolveResult result = shard->solver.Solve(constraint);
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
  return result;
}

IntervalOracle::IntervalOracle(const Icfet* icfet) : IntervalOracle(icfet, Options()) {}

IntervalOracle::IntervalOracle(const Icfet* icfet, Options options)
    : ConstraintOracle(icfet, options), max_encoding_items_(options.max_encoding_items) {}

SolveResult IntervalOracle::MergeBytes(Shard* shard, PayloadBytes a, PayloadBytes b,
                                       std::vector<uint8_t>* out) {
  WallTimer merge_timer;
  ByteReader reader_a(a.data, a.size);
  ByteReader reader_b(b.data, b.size);
  PathEncoding enc_a = PathEncoding::Deserialize(&reader_a);
  PathEncoding enc_b = PathEncoding::Deserialize(&reader_b);
  // Feasibility is decided on the *full* concatenated path (so callee branch
  // conditions and parameter equations all participate, as in the paper's
  // Figure 6 walk-through)...
  PathEncoding full = PathEncoding::Append(enc_a, enc_b, max_encoding_items_);
  metrics_.AddNanos(c_lookup_ns_, merge_timer.ElapsedNanos());
  SolveResult verdict = Check(shard, full);
  if (verdict == SolveResult::kUnsat) {
    return verdict;
  }
  // ... while the stored encoding drops completed callee segments (§4.2
  // case 3), bounding growth by call depth.
  WallTimer compact_timer;
  full.Compact().Serialize(out);
  metrics_.AddNanos(c_lookup_ns_, compact_timer.ElapsedNanos());
  return verdict;
}

Constraint IntervalOracle::DecodePayload(const uint8_t* payload, size_t len) {
  ByteReader reader(payload, len);
  PathEncoding enc = PathEncoding::Deserialize(&reader);
  PathDecoder decoder(icfet_);
  return decoder.Decode(enc);
}

}  // namespace grapple
