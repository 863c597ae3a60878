// Grapple's edge-pair-centric out-of-core computation (§4.3, Figure 7).
//
// The program graph is partitioned on disk by source-vertex interval. Each
// scheduling step loads two partitions, repeatedly joins consecutive edge
// pairs (u -A-> v, v -B-> w) against the grammar, asks the constraint oracle
// whether the combined path is feasible, and adds the induced edge
// u -C-> w. Edges owned by unloaded partitions are buffered and appended as
// deltas; partitions that outgrow the budget are split eagerly.
//
// Pair progress is kept as edge-prefix counts: pair_done_[{i, j}] =
// {n_i, n_j} means every join among the first n_i edges of partition i and
// the first n_j of partition j is done (partition files keep their edge
// order, partition_store.h). A pair is stale when either side now has more
// edges, and its next visit joins only the edges past the prefixes. A pair
// that stops early over budget records the prefix it finished, and a split
// hands each piece its share of the prefix, so no join is redone. The
// global fixpoint is reached when no pair is stale.
#ifndef GRAPPLE_SRC_GRAPH_ENGINE_H_
#define GRAPPLE_SRC_GRAPH_ENGINE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/grammar/grammar.h"
#include "src/graph/constraint_oracle.h"
#include "src/graph/edge.h"
#include "src/graph/partition_store.h"
#include "src/obs/metrics.h"
#include "src/obs/provenance.h"
#include "src/obs/statusz.h"
#include "src/pathenc/path_encoding.h"
#include "src/support/task_runtime.h"
#include "src/support/timer.h"

namespace grapple {

struct EngineOptions {
  // Directory for partition files (must exist; caller owns cleanup).
  std::string work_dir;
  // Soft cap on the bytes of edge data held in memory at once (two loaded
  // partitions + induced edges). Partitions target budget/4 so that a pair
  // plus growth fits.
  uint64_t memory_budget_bytes = uint64_t{64} << 20;
  // Join-loop parallelism: the frontier is split into this many contiguous
  // shards per round (1 = sequential, 0 = hardware concurrency). This is a
  // sharding factor, not a thread count: shard tasks run on `runtime`
  // (below), and because shards are integrated in index order the results
  // are identical for any worker count or steal order.
  size_t num_threads = 1;
  // Non-owning task runtime that executes the engine's join shards and the
  // partition store's I/O strands. The facade injects its session runtime
  // so engines never own threads; when null (standalone engines in tests,
  // benches, tools) the engine creates a private locality-aware runtime
  // sized ResolveThreadCount(num_threads), plus one worker for the
  // background I/O lanes when the pipeline is on. Must outlive the engine.
  TaskRuntime* runtime = nullptr;
  // Background partition I/O: write-behind and schedule-driven prefetch on
  // the runtime (see partition_store.h and DESIGN.md). Off runs every
  // partition read and write inline. Either way the files have the same
  // format and bytes, and results are byte-identical.
  bool io_pipeline = true;
  // Per-(src,dst,label) cap on distinct payload variants; reaching it
  // widens the triple to the always-true payload. Guarantees termination
  // and bounds path-variant blow-up (engineering addition; see DESIGN.md).
  size_t max_variants_per_triple = 8;
  // Wall-clock cap for Run(); 0 disables. Exceeding it stops the fixpoint
  // early with the engine_timed_out gauge set to 1 (used by the Table-5 baseline, whose
  // string-style codec may not terminate in reasonable time).
  double max_seconds = 0;
  // Record a derivation-provenance record for every unique edge (base,
  // join, rewrite) into <work_dir>/provenance.bin so witnesses can be
  // decoded after the run. See src/obs/provenance.h.
  bool record_provenance = false;
  // Crash-safe checkpoint/resume (DESIGN.md §11): when > 0, Run() publishes
  // a checkpoint manifest into work_dir every `checkpoint_interval`
  // processed pairs (plus one at completion), and Finalize() resumes from a
  // valid manifest instead of starting over — a run killed at any point and
  // rerun with the same inputs and work_dir produces byte-identical
  // results. 0 disables.
  uint32_t checkpoint_interval = 0;
  // Wall-clock throttle on interval-triggered manifests: once the pair
  // interval is reached, the checkpoint still waits until this many seconds
  // have passed since the last manifest. Bounds checkpoint overhead at
  // roughly (manifest cost / spacing) regardless of how fast pairs drain —
  // without it, cheap pairs at a small interval can spend >20% of the run
  // re-encoding manifests. Completion manifests are never throttled. 0 =
  // checkpoint on every interval hit.
  double checkpoint_min_spacing_seconds = 1.0;
};

// Receives base edges from graph generators. GraphEngine is the production
// sink; baselines (src/baseline) provide in-memory sinks.
class EdgeSink {
 public:
  virtual ~EdgeSink() = default;
  virtual void AddBaseEdge(VertexId src, VertexId dst, Label label, const PathEncoding& enc) = 0;
};

// Buffers base edges in memory (for baselines and tests).
struct CollectedEdge {
  VertexId src;
  VertexId dst;
  Label label;
  PathEncoding enc;
};

class CollectingSink : public EdgeSink {
 public:
  void AddBaseEdge(VertexId src, VertexId dst, Label label, const PathEncoding& enc) override {
    edges_.push_back({src, dst, label, enc});
  }
  const std::vector<CollectedEdge>& edges() const { return edges_; }

 private:
  std::vector<CollectedEdge> edges_;
};

struct GraphEngineIndexHolder;

class GraphEngine : public EdgeSink {
 public:
  // `grammar` and `oracle` must outlive the engine, and the grammar must be
  // complete (every label and rule added) by Finalize(). The engine names
  // payloads by ids in the oracle's payload table, so an oracle serves one
  // engine.
  GraphEngine(const Grammar* grammar, ConstraintOracle* oracle, EngineOptions options);
  ~GraphEngine();

  // --- graph ingestion (before Run) ---
  void AddBaseEdge(VertexId src, VertexId dst, Label label, const PathEncoding& enc) override;
  // Declares the vertex count, expands unary/mirror closures over base
  // edges, and spills the initial partitions. Ingestion ends here.
  void Finalize(VertexId num_vertices);

  // Runs the dynamic transitive closure to fixpoint.
  void Run();

  // --- result access (after Run; streams partitions from disk) ---
  void ForEachEdge(const std::function<void(const EdgeRecord&)>& fn);
  void ForEachEdgeWithLabel(Label label, const std::function<void(const EdgeRecord&)>& fn);

  size_t NumPartitions() const { return store_.NumPartitions(); }

  // Derivation provenance (when EngineOptions.record_provenance). The log
  // is complete (flushed) once Run() returns.
  bool has_provenance() const { return provenance_ != nullptr; }
  std::string provenance_path() const { return store_.ProvenancePath(); }
  // Feeds the "witness_decode_ns" histogram / "witnesses_decoded_total" counter;
  // called by the checker so decode cost lands in this engine's phase
  // report alongside the recording-side counters.
  void ObserveWitnessDecode(uint64_t nanos);

  // Merged metrics snapshot: engine registry (counters, io_*, gauges,
  // "phase_<name>_ns" timers) + the oracle's snapshot.
  // Valid any time; complete after Run().
  obs::MetricsSnapshot Metrics() const;

 private:
  class LoadedPair;

  void ProcessPair(size_t pi, size_t pj);
  // The pair the Run() scheduler would pick next if processing (pi, pj)
  // produces no writes: the first stale pair after it in scan order.
  // Feeds the store's prefetcher; returns false when no such pair exists.
  bool PredictNextPair(size_t pi, size_t pj, size_t* next_i, size_t* next_j) const;
  // True when pair (i, j) has never been processed or either partition has
  // more edges than the prefix its pair_done_ entry covers.
  bool Stale(size_t i, size_t j) const;
  // Rewrites pair_done_ after partition p, which held the resident edges of
  // `pair` with sources in [lo, hi), was split into partitions
  // p..p+pieces-1: (p, q) becomes (p_k, q) and (p, p) becomes (p_k, p_l),
  // each piece counting how many of p's first n_p edges it received.
  void RemapProgressAfterSplit(size_t p, size_t pieces, const LoadedPair& pair, VertexId lo,
                               VertexId hi);
  // An edge's identity without its payload.
  struct Triple {
    VertexId src;
    VertexId dst;
    Label label;
  };
  // One record of an edge's unary-production and mirror closure: its label,
  // whether it runs dst -> src of the closed edge, and the index of the
  // record it was rewritten from (-1 for the edge itself, at index 0). Every
  // record carries the edge's payload.
  struct ClosureStep {
    Label label;
    bool reversed;
    int parent;
  };
  // The closure of an edge depends only on its label and on whether it is
  // a self-loop, so it is computed once per (label, self-loop) in
  // Finalize().
  void BuildClosures();
  const std::vector<ClosureStep>& ClosureOf(const Triple& edge) const {
    return closures_[edge.label][edge.src == edge.dst ? 1 : 0];
  }
  static Triple StepTriple(const Triple& edge, const ClosureStep& step) {
    return step.reversed ? Triple{edge.dst, edge.src, step.label}
                         : Triple{edge.src, edge.dst, step.label};
  }
  // Attempts to restore scheduler/dedup/store/provenance state from the
  // work dir's checkpoint manifest. False (with the engine still pristine)
  // when no manifest exists, it fails validation, or it was produced by a
  // different input (fingerprint mismatch) — the caller starts fresh.
  bool TryResume(VertexId num_vertices);
  // Quiesces the I/O worker, publishes a manifest of the current state
  // (atomic temp + fsync + rename), then deletes retired partition files.
  void WriteCheckpoint();

  const Grammar* grammar_;
  ConstraintOracle* oracle_;
  EngineOptions options_;
  obs::MetricsRegistry metrics_;
  obs::MetricId c_base_edges_;
  obs::MetricId c_final_edges_;
  obs::MetricId c_pair_loads_;
  obs::MetricId c_join_rounds_;
  obs::MetricId c_joins_attempted_;
  obs::MetricId c_edges_added_;
  obs::MetricId c_unsat_pruned_;
  obs::MetricId c_widened_triples_;
  obs::MetricId c_partition_splits_;
  obs::MetricId c_preprocess_ns_;
  obs::MetricId c_compute_ns_;
  obs::MetricId h_join_round_joins_;
  obs::MetricId c_witnesses_decoded_;
  obs::MetricId h_witness_decode_ns_;
  obs::MetricId c_ckpt_written_;
  obs::MetricId c_ckpt_bytes_;
  obs::MetricId c_runs_resumed_;
  obs::MetricId c_phase_join_ns_;
  // Join stages: LoadedPair build, candidate generation and the round's
  // solve step (summed over tasks), integration.
  obs::MetricId c_index_build_ns_;
  obs::MetricId c_candidates_ns_;
  obs::MetricId c_integrate_ns_;
  // Registered only when checkpointing is on.
  obs::MetricId c_phase_ckpt_ns_ = obs::kInvalidMetric;
  // Scheduling. `owned_runtime_` is only set when the caller injected none;
  // `runtime_` is the one in use either way. Declared before store_ so the
  // store (whose strands run on the runtime) is destroyed first.
  std::unique_ptr<TaskRuntime> owned_runtime_;
  TaskRuntime* runtime_;
  // Deterministic shard count for the join loop (see EngineOptions).
  size_t join_shards_;
  PartitionStore store_;
  std::unique_ptr<obs::ProvenanceWriter> provenance_;
  // Base edges after closure expansion (or restored from a manifest); the
  // checkpoint manifest pins it.
  uint64_t base_edges_ = 0;

  std::vector<EdgeRecord> pending_base_;
  // Id of the always-true payload (widening) in the oracle's payload table.
  uint32_t true_payload_;
  // Per label: the closure of a plain edge [0] and of a self-loop [1].
  std::vector<std::array<std::vector<ClosureStep>, 2>> closures_;
  std::unique_ptr<GraphEngineIndexHolder> index_;
  bool finalized_ = false;

  // Pair progress (i <= j): the edge-prefix counts (n_i, n_j) whose joins
  // are done. See the header comment.
  std::map<std::pair<size_t, size_t>, std::pair<uint64_t, uint64_t>> pair_done_;

  // Checkpoint bookkeeping (only used when options_.checkpoint_interval>0).
  uint64_t base_fingerprint_ = 0;  // identifies the input; pinned in manifests
  uint32_t pairs_since_checkpoint_ = 0;
  WallTimer since_last_checkpoint_;

  // Live cursor for /statusz, written by the Run() thread with relaxed
  // stores and read by the scrape thread. kNoLivePair = idle.
  static constexpr uint64_t kNoLivePair = UINT64_MAX;
  std::atomic<uint64_t> live_pair_{kNoLivePair};  // pi << 32 | pj
  std::atomic<uint64_t> live_pairs_done_{0};
  std::atomic<uint64_t> live_ckpts_published_{0};

  // Introspection registrations. Declared last on purpose: destroyed (and
  // therefore unregistered) before any member their callbacks read.
  obs::Introspection::Handle introspect_metrics_;
  obs::Introspection::Handle introspect_status_;
};

}  // namespace grapple

#endif  // GRAPPLE_SRC_GRAPH_ENGINE_H_
