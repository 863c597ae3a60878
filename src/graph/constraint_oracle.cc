#include "src/graph/constraint_oracle.h"

#include <chrono>
#include <thread>

#include "src/support/event_hook.h"
#include "src/support/timer.h"

namespace grapple {

namespace {

// Clears a per-round buffer, but drops it when a large round grew it, so
// one big round does not keep its capacity for the small ones after it
// (as MergeMemo::Clear does).
template <typename T>
void ResetBuffer(std::vector<T>* buffer) {
  constexpr size_t kKeepBytes = size_t{64} << 10;
  if (buffer->capacity() * sizeof(T) > kKeepBytes) {
    std::vector<T>().swap(*buffer);
  } else {
    buffer->clear();
  }
}

}  // namespace

struct ConstraintOracle::Shard {
  // A pair this shard's probes missed, and how many of its Merge calls
  // returned it.
  struct Miss {
    MergeMemo::Key key;
    uint32_t solve;  // index into solves_, after CollectMisses()
    uint64_t joins;
  };

  Shard(const Icfet* icfet, const SolverLimits& limits) : decoder(icfet), solver(limits) {}

  void Clear() {
    index.Clear();
    ResetBuffer(&misses);
    ResetBuffer(&bytes);
    merges = 0;
  }

  PathDecoder decoder;
  Solver solver;
  MergeMemo index;              // (a, b) -> index into misses (memo on)
  std::vector<Miss> misses;     // in first-probe order
  std::vector<uint8_t> bytes;   // sat results this shard solved, back to back
  std::vector<uint8_t> merged;  // MergeBytes output
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
  ResetBuffer(&solves_);
  solve_index_.Clear();
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
      ++shard.misses[value].joins;
      return kPendingBit | value;
    }
  }
  uint32_t miss = static_cast<uint32_t>(shard.misses.size());
  shard.misses.push_back({key, 0, 1});
  if (options_.enable_cache) {
    shard.index.Insert(key, miss);
  }
  return kPendingBit | miss;
}

size_t ConstraintOracle::CollectMisses() {
  for (size_t s = 0; s < round_shards_; ++s) {
    for (Shard::Miss& miss : shards_[s]->misses) {
      uint32_t solve = 0;
      if (options_.enable_cache && solve_index_.Find(miss.key, &solve)) {
        // An earlier shard missed the same pair this round.
        miss.solve = solve;
        continue;
      }
      miss.solve = static_cast<uint32_t>(solves_.size());
      if (options_.enable_cache) {
        solve_index_.Insert(miss.key, miss.solve);
      }
      solves_.push_back(Solve{miss.key});
    }
  }
  return solves_.size();
}

void ConstraintOracle::SolveMisses(size_t shard_index, size_t begin, size_t end) {
  Shard& shard = *shards_[shard_index];
  for (size_t k = begin; k < end; ++k) {
    Solve& solve = solves_[k];
    shard.merged.clear();
    solve.verdict = MergeBytes(&shard, payloads_.Bytes(solve.key.a), payloads_.Bytes(solve.key.b),
                               &shard.merged);
    solve.shard = static_cast<uint32_t>(shard_index);
    solve.begin = shard.bytes.size();
    if (solve.verdict != SolveResult::kUnsat) {
      shard.bytes.insert(shard.bytes.end(), shard.merged.begin(), shard.merged.end());
    }
    solve.end = shard.bytes.size();
  }
}

uint64_t ConstraintOracle::CommitRound() {
  for (Solve& solve : solves_) {
    if (solve.verdict == SolveResult::kUnsat) {
      solve.value = kUnsat;
      metrics_.Add(c_unsat_);
    } else {
      const std::vector<uint8_t>& bytes = shards_[solve.shard]->bytes;
      solve.value = payloads_.Intern(bytes.data() + solve.begin, solve.end - solve.begin);
      if (solve.verdict == SolveResult::kUnknown) {
        metrics_.Add(c_unknown_);
      }
    }
    if (options_.enable_cache) {
      memo_.Insert(solve.key, solve.value);
    }
  }
  uint64_t merges = 0;
  uint64_t unsat_joins = 0;
  for (size_t s = 0; s < round_shards_; ++s) {
    const Shard& shard = *shards_[s];
    merges += shard.merges;
    for (const Shard::Miss& miss : shard.misses) {
      if (solves_[miss.solve].value == kUnsat) {
        unsat_joins += miss.joins;
      }
    }
  }
  metrics_.Add(c_merges_, merges);
  metrics_.Add(c_checked_, solves_.size());
  metrics_.Add(c_cache_hits_, merges - solves_.size());
  return unsat_joins;
}

uint32_t ConstraintOracle::Resolve(size_t shard_index, uint32_t token) const {
  if (!IsPending(token)) {
    return token;
  }
  return solves_[shards_[shard_index]->misses[token & ~kPendingBit].solve].value;
}

uint32_t ConstraintOracle::MergeAndCheck(uint32_t a, uint32_t b) {
  BeginRound(1);
  uint32_t token = Merge(0, a, b);
  SolveMisses(0, 0, CollectMisses());
  CommitRound();
  return Resolve(0, token);
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
