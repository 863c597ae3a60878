#include "src/graph/engine.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

#include "src/graph/checkpoint.h"
#include "src/obs/event_log.h"
#include "src/obs/json.h"
#include "src/obs/profiler.h"
#include "src/obs/report.h"
#include "src/support/byte_io.h"
#include "src/support/event_hook.h"
#include "src/support/fault_injection.h"
#include "src/support/logging.h"

namespace grapple {

namespace {

struct Candidate {
  VertexId src = 0;
  VertexId dst = 0;
  Label label = kNoLabel;
  std::vector<uint8_t> payload;
  // Provenance (only filled when recording): content hashes + identities of
  // the two parent edges the join consumed.
  uint64_t parent_a = 0;
  uint64_t parent_b = 0;
  obs::ProvEdge a_edge;
  obs::ProvEdge b_edge;
};

obs::ProvEdge ProvEdgeOf(const EdgeRecord& record) {
  obs::ProvEdge edge;
  edge.src = record.src;
  edge.dst = record.dst;
  edge.label = record.label;
  return edge;
}

}  // namespace

// In-memory view of the two loaded partitions plus everything induced while
// they are resident.
class GraphEngine::LoadedPair {
 public:
  struct MemEdge {
    VertexId src;
    VertexId dst;
    Label label;
    uint32_t payload_off;
    uint32_t payload_len;
  };

  LoadedPair(VertexId lo1, VertexId hi1, VertexId lo2, VertexId hi2)
      : lo1_(lo1), hi1_(hi1), lo2_(lo2), hi2_(hi2) {}

  bool Owns(VertexId v) const {
    return (v >= lo1_ && v < hi1_) || (v >= lo2_ && v < hi2_);
  }

  size_t NumEdges() const { return edges_.size(); }
  const MemEdge& EdgeAt(size_t i) const { return edges_[i]; }
  const uint8_t* PayloadOf(const MemEdge& e) const { return arena_.data() + e.payload_off; }
  uint64_t arena_bytes() const { return arena_.size(); }

  const std::vector<uint32_t>& OutOf(VertexId v) const {
    auto it = out_.find(v);
    return it == out_.end() ? empty_ : it->second;
  }
  const std::vector<uint32_t>& InOf(VertexId v) const {
    auto it = in_.find(v);
    return it == in_.end() ? empty_ : it->second;
  }

  // Appends without any checks (caller already dedup'd globally).
  uint32_t Insert(VertexId src, VertexId dst, Label label, const uint8_t* payload, size_t len) {
    uint32_t idx = static_cast<uint32_t>(edges_.size());
    MemEdge e;
    e.src = src;
    e.dst = dst;
    e.label = label;
    e.payload_off = static_cast<uint32_t>(arena_.size());
    e.payload_len = static_cast<uint32_t>(len);
    arena_.insert(arena_.end(), payload, payload + len);
    edges_.push_back(e);
    out_[src].push_back(idx);
    in_[dst].push_back(idx);
    return idx;
  }

  EdgeRecord ToRecord(const MemEdge& e) const {
    EdgeRecord record;
    record.src = e.src;
    record.dst = e.dst;
    record.label = e.label;
    record.payload.assign(PayloadOf(e), PayloadOf(e) + e.payload_len);
    return record;
  }

 private:
  VertexId lo1_, hi1_, lo2_, hi2_;
  std::vector<MemEdge> edges_;
  std::vector<uint8_t> arena_;
  std::unordered_map<VertexId, std::vector<uint32_t>> out_;
  std::unordered_map<VertexId, std::vector<uint32_t>> in_;
  std::vector<uint32_t> empty_;
};

GraphEngine::GraphEngine(const Grammar* grammar, ConstraintOracle* oracle, EngineOptions options)
    : grammar_(grammar),
      oracle_(oracle),
      options_(std::move(options)),
      // Canonical snake_case + unit-suffix names (DESIGN.md §8).
      c_base_edges_(metrics_.Counter("engine_base_edges_total")),
      c_final_edges_(metrics_.Counter("engine_final_edges_total")),
      c_pair_loads_(metrics_.Counter("engine_pair_loads_total")),
      c_join_rounds_(metrics_.Counter("engine_join_rounds_total")),
      c_joins_attempted_(metrics_.Counter("engine_joins_attempted_total")),
      c_edges_added_(metrics_.Counter("engine_edges_added_total")),
      c_unsat_pruned_(metrics_.Counter("engine_unsat_pruned_total")),
      c_widened_triples_(metrics_.Counter("engine_widened_triples_total")),
      c_partition_splits_(metrics_.Counter("engine_partition_splits_total")),
      c_budget_borrows_(metrics_.Counter("engine_budget_borrows_total")),
      c_preprocess_ns_(metrics_.Counter("engine_preprocess_ns")),
      c_compute_ns_(metrics_.Counter("engine_compute_ns")),
      h_join_round_joins_(metrics_.Histogram("engine_join_round_joins")),
      c_witnesses_decoded_(metrics_.Counter("witnesses_decoded_total")),
      h_witness_decode_ns_(metrics_.Histogram("witness_decode_ns")),
      c_ckpt_written_(metrics_.Counter("ckpt_written_total")),
      c_ckpt_bytes_(metrics_.Counter("ckpt_bytes")),
      c_runs_resumed_(metrics_.Counter("runs_resumed_total")),
      c_phase_join_ns_(metrics_.Counter("phase_join_ns")),
      owned_runtime_(options_.runtime != nullptr
                         ? nullptr
                         : std::make_unique<TaskRuntime>(
                               // One worker per join shard, plus one to
                               // service the background I/O lanes when the
                               // pipeline is on (mirrors the dedicated I/O
                               // worker the legacy two-pool layout had).
                               ResolveThreadCount(options_.num_threads) +
                               (options_.io_pipeline ? 1 : 0))),
      runtime_(options_.runtime != nullptr ? options_.runtime : owned_runtime_.get()),
      join_shards_(ResolveThreadCount(options_.num_threads)),
      store_(options_.work_dir, &metrics_,
             PartitionStorePipeline{options_.io_pipeline,
                                    options_.budget_lease, options_.memory_budget_bytes,
                                    runtime_}) {
  obs::EventLogInstall();
  // Propose this engine's work dir as the crash-dump target; the Grapple
  // facade (when present) has already claimed the run work dir.
  obs::EventLogSetCrashDumpPath(options_.work_dir + "/flightrec.bin", /*only_if_unset=*/true);
  metrics_.SetGauge("engine_budget_bytes", static_cast<double>(BudgetBytes()));
  live_budget_bytes_.store(BudgetBytes(), std::memory_order_relaxed);
  if (options_.record_provenance) {
    provenance_ = std::make_unique<obs::ProvenanceWriter>(store_.ProvenancePath(), &metrics_);
  }
  if (options_.checkpoint_interval > 0) {
    c_phase_ckpt_ns_ = metrics_.Counter("phase_ckpt_ns");
    store_.SetCheckpointMode(true);
  }
  introspect_metrics_ = obs::Introspection::RegisterMetricsSource(
      "engine", [this] { return metrics_.Snapshot(); });
  introspect_status_ = obs::Introspection::RegisterStatusSource("engine", [this] {
    obs::JsonWriter w;
    w.BeginObject();
    w.Key("work_dir").String(options_.work_dir);
    uint64_t pair = live_pair_.load(std::memory_order_relaxed);
    if (pair == kNoLivePair) {
      w.Key("pair_cursor").Null();
    } else {
      w.Key("pair_cursor").BeginArray();
      w.UInt(pair >> 32).UInt(pair & 0xffffffffu);
      w.EndArray();
    }
    w.Key("pairs_done").UInt(live_pairs_done_.load(std::memory_order_relaxed));
    w.Key("checkpoints_published").UInt(live_ckpts_published_.load(std::memory_order_relaxed));
    w.Key("budget_bytes").UInt(live_budget_bytes_.load(std::memory_order_relaxed));
    w.EndObject();
    return w.Take();
  });
}

uint64_t GraphEngine::BudgetBytes() const {
  return options_.budget_lease != nullptr ? options_.budget_lease->bytes()
                                          : options_.memory_budget_bytes;
}

void GraphEngine::ObserveWitnessDecode(uint64_t nanos) {
  metrics_.Add(c_witnesses_decoded_);
  metrics_.Observe(h_witness_decode_ns_, nanos);
}

void GraphEngine::AddBaseEdge(VertexId src, VertexId dst, Label label, const PathEncoding& enc) {
  GRAPPLE_CHECK(!finalized_) << "AddBaseEdge after Finalize";
  EdgeRecord edge;
  edge.src = src;
  edge.dst = dst;
  edge.label = label;
  edge.payload = oracle_->BasePayload(enc);
  pending_base_.push_back(std::move(edge));
}

void GraphEngine::ExpandEdge(const EdgeRecord& edge, std::vector<EdgeRecord>* out,
                             std::vector<int>* parent_of) const {
  // Closure over unary productions and mirror labels; payload shared. Each
  // queued record remembers which `out` slot its source record will occupy,
  // so the closure forms a forest rooted at the input edge.
  struct Item {
    EdgeRecord record;
    int parent;
  };
  std::vector<Item> queue;
  queue.push_back({edge, -1});
  std::unordered_set<uint64_t> seen;
  seen.insert(EdgeTripleHash(edge.src, edge.dst, edge.label));
  while (!queue.empty()) {
    Item item = std::move(queue.back());
    queue.pop_back();
    const EdgeRecord& cur = item.record;
    int my_index = static_cast<int>(out->size());
    for (Label result : grammar_->UnaryResults(cur.label)) {
      uint64_t key = EdgeTripleHash(cur.src, cur.dst, result);
      if (seen.insert(key).second) {
        EdgeRecord derived = cur;
        derived.label = result;
        queue.push_back({std::move(derived), my_index});
      }
    }
    Label mirror = grammar_->MirrorOf(cur.label);
    if (mirror != kNoLabel) {
      uint64_t key = EdgeTripleHash(cur.dst, cur.src, mirror);
      if (seen.insert(key).second) {
        EdgeRecord derived;
        derived.src = cur.dst;
        derived.dst = cur.src;
        derived.label = mirror;
        derived.payload = cur.payload;
        queue.push_back({std::move(derived), my_index});
      }
    }
    out->push_back(std::move(item.record));
    if (parent_of != nullptr) {
      parent_of->push_back(item.parent);
    }
  }
}

// Global dedup and per-triple variant bookkeeping, kept out of the header.
// Hash-based: a 64-bit collision silently drops an edge, with negligible
// probability at the scales this engine targets.
struct GraphEngineIndexHolder {
  std::unordered_set<uint64_t> content;
  std::unordered_map<uint64_t, uint32_t> variants;
};

GraphEngine::~GraphEngine() = default;

void EngineStats::SyncFromMetrics() {
  base_edges = metrics.CounterOr("engine_base_edges_total");
  final_edges = metrics.CounterOr("engine_final_edges_total");
  pair_loads = metrics.CounterOr("engine_pair_loads_total");
  join_rounds = metrics.CounterOr("engine_join_rounds_total");
  joins_attempted = metrics.CounterOr("engine_joins_attempted_total");
  edges_added = metrics.CounterOr("engine_edges_added_total");
  unsat_pruned = metrics.CounterOr("engine_unsat_pruned_total");
  widened_triples = metrics.CounterOr("engine_widened_triples_total");
  partition_splits = metrics.CounterOr("engine_partition_splits_total");
  timed_out = metrics.GaugeOr("engine_timed_out") > 0;
  num_partitions = static_cast<size_t>(metrics.GaugeOr("engine_num_partitions"));
  peak_partitions = static_cast<size_t>(metrics.GaugeOr("engine_peak_partitions"));
  preprocess_seconds = metrics.SecondsOf("engine_preprocess_ns");
  compute_seconds = metrics.SecondsOf("engine_compute_ns");
  oracle.merges = metrics.CounterOr("oracle_merges_total");
  oracle.constraints_checked = metrics.CounterOr("oracle_constraints_checked_total");
  oracle.cache_hits = metrics.CounterOr("oracle_cache_hits_total");
  oracle.unsat = metrics.CounterOr("oracle_unsat_total");
  oracle.unknown = metrics.CounterOr("oracle_unknown_total");
  oracle.lookup_seconds = metrics.SecondsOf("oracle_lookup_ns");
  oracle.solve_seconds = metrics.SecondsOf("oracle_solve_ns");
  phase_seconds.clear();
  const std::string prefix = obs::kPhaseNsPrefix;
  const std::string suffix = obs::kPhaseNsSuffix;
  for (const auto& [name, nanos] : metrics.counters) {
    if (name.size() > prefix.size() + suffix.size() && name.compare(0, prefix.size(), prefix) == 0 &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      std::string phase = name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
      phase_seconds[phase] = static_cast<double>(nanos) / 1e9;
    }
  }
}

std::string EngineStats::ToString() const { return obs::RenderEngineSummary(metrics); }

void GraphEngine::Finalize(VertexId num_vertices) {
  GRAPPLE_CHECK(!finalized_);
  finalized_ = true;
  WallTimer timer;
  index_ = std::make_unique<GraphEngineIndexHolder>();
  if (options_.checkpoint_interval > 0) {
    // Fingerprint the input (base edges + vertex count) so a manifest left
    // behind by a run over *different* inputs is rejected, not resumed.
    uint64_t fp = 1469598103934665603ULL;
    auto mix = [&fp](uint64_t v) {
      fp ^= v;
      fp *= 1099511628211ULL;
    };
    mix(num_vertices);
    for (const auto& edge : pending_base_) {
      mix(EdgeContentHash(edge.src, edge.dst, edge.label, edge.payload.data(),
                          edge.payload.size()));
    }
    base_fingerprint_ = fp;
    if (TryResume(num_vertices)) {
      pending_base_.clear();
      pending_base_.shrink_to_fit();
      metrics_.AddNanos(c_preprocess_ns_, timer.ElapsedNanos());
      stats_.preprocess_seconds = timer.ElapsedSeconds();
      stats_.num_partitions = store_.NumPartitions();
      stats_.peak_partitions = store_.NumPartitions();
      metrics_.SetGauge("engine_num_partitions", static_cast<double>(store_.NumPartitions()));
      metrics_.MaxGauge("engine_peak_partitions", static_cast<double>(store_.NumPartitions()));
      fault::CrashPoint("finalize_done");
      return;
    }
    // No usable manifest: scrub any leftovers of a dead run from the work
    // dir so stale partition bytes cannot leak into this run's state.
    store_.CleanWorkDirForFreshStart();
  }
  // Expand unary/mirror closures and dedup.
  std::vector<EdgeRecord> expanded;
  expanded.reserve(pending_base_.size() * 2);
  for (const auto& edge : pending_base_) {
    std::vector<EdgeRecord> closure;
    std::vector<int> parents;
    ExpandEdge(edge, &closure, provenance_ != nullptr ? &parents : nullptr);
    std::vector<uint64_t> hashes(provenance_ != nullptr ? closure.size() : 0, 0);
    for (size_t k = 0; k < closure.size(); ++k) {
      auto& derived = closure[k];
      uint64_t hash = EdgeContentHash(derived.src, derived.dst, derived.label,
                                      derived.payload.data(), derived.payload.size());
      if (provenance_ != nullptr) {
        hashes[k] = hash;
      }
      if (index_->content.insert(hash).second) {
        ++index_->variants[EdgeTripleHash(derived.src, derived.dst, derived.label)];
        if (provenance_ != nullptr) {
          if (parents[k] < 0) {
            provenance_->RecordBase(hash, ProvEdgeOf(derived), derived.payload.data(),
                                    derived.payload.size());
          } else {
            // closure[parents[k]] may have moved to `expanded` already; its
            // scalar identity fields survive the move.
            provenance_->RecordRewrite(hash, ProvEdgeOf(derived), derived.payload.data(),
                                       derived.payload.size(), hashes[parents[k]],
                                       ProvEdgeOf(closure[static_cast<size_t>(parents[k])]));
          }
        }
        expanded.push_back(std::move(derived));
      }
    }
  }
  pending_base_.clear();
  pending_base_.shrink_to_fit();
  stats_.base_edges = expanded.size();
  metrics_.Add(c_base_edges_, expanded.size());
  store_.Initialize(std::move(expanded), num_vertices, BudgetBytes() / 4);
  metrics_.AddNanos(c_preprocess_ns_, timer.ElapsedNanos());
  stats_.preprocess_seconds = timer.ElapsedSeconds();
  stats_.num_partitions = store_.NumPartitions();
  stats_.peak_partitions = store_.NumPartitions();
  metrics_.SetGauge("engine_num_partitions", static_cast<double>(store_.NumPartitions()));
  metrics_.MaxGauge("engine_peak_partitions", static_cast<double>(store_.NumPartitions()));
  fault::CrashPoint("finalize_done");
}

bool GraphEngine::TryResume(VertexId num_vertices) {
  CheckpointManifest manifest;
  std::string error;
  if (!LoadCheckpointManifest(options_.work_dir, &manifest, &error)) {
    if (!error.empty()) {
      GRAPPLE_LOG(WARNING) << "ignoring checkpoint in " << options_.work_dir << ": " << error
                           << "; starting fresh";
    }
    return false;
  }
  if (manifest.num_vertices != num_vertices || manifest.base_fingerprint != base_fingerprint_) {
    GRAPPLE_LOG(WARNING) << "checkpoint in " << options_.work_dir
                         << " was produced by a different input; starting fresh";
    return false;
  }
  if (manifest.has_provenance != (provenance_ != nullptr)) {
    GRAPPLE_LOG(WARNING) << "checkpoint in " << options_.work_dir
                         << " was recorded with provenance "
                         << (manifest.has_provenance ? "on" : "off")
                         << " but this run has it " << (provenance_ != nullptr ? "on" : "off")
                         << "; starting fresh";
    return false;
  }
  // Validate the provenance log up front, before any state is mutated, so
  // most failures leave the engine pristine for the fresh-start path.
  const std::string prov_path = store_.ProvenancePath();
  if (manifest.has_provenance && manifest.provenance_bytes > 0) {
    int64_t on_disk = FileSizeBytes(prov_path);
    if (on_disk < 0 || static_cast<uint64_t>(on_disk) < manifest.provenance_bytes) {
      GRAPPLE_LOG(WARNING) << "provenance log " << prov_path << " is "
                           << (on_disk < 0 ? "missing" : "shorter than the checkpoint recorded")
                           << "; starting fresh";
      return false;
    }
  }
  if (!store_.RestoreFromCheckpoint(manifest.partitions, manifest.file_counter, num_vertices,
                                    &error)) {
    GRAPPLE_LOG(WARNING) << "checkpoint restore failed: " << error << "; starting fresh";
    return false;
  }
  if (manifest.has_provenance) {
    // Drop log bytes the dead run appended past the manifest's high-water
    // mark; the resumed run re-derives (and re-records) everything after it.
    if (FileExists(prov_path) && !TruncateFile(prov_path, manifest.provenance_bytes, &error)) {
      GRAPPLE_LOG(WARNING) << "could not truncate provenance log: " << error
                           << "; starting fresh";
      return false;  // caller scrubs the work dir; Initialize() rebuilds the store
    }
    provenance_->ResumeAt(manifest.provenance_bytes, manifest.provenance_records);
  }
  index_->content.reserve(manifest.dedup_hashes.size());
  index_->content.insert(manifest.dedup_hashes.begin(), manifest.dedup_hashes.end());
  index_->variants.reserve(manifest.variants.size());
  for (const auto& [triple, count] : manifest.variants) {
    index_->variants[triple] = count;
  }
  for (const CheckpointManifest::PairDone& pd : manifest.pair_done) {
    pair_done_[{static_cast<size_t>(pd.i), static_cast<size_t>(pd.j)}] = {pd.vi, pd.vj};
  }
  stats_.base_edges = manifest.base_edges;
  metrics_.Add(c_base_edges_, manifest.base_edges);
  metrics_.Add(c_runs_resumed_);
  GRAPPLE_LOG(INFO) << "resumed from checkpoint in " << options_.work_dir << " ("
                    << manifest.partitions.size() << " partitions, "
                    << manifest.dedup_hashes.size() << " unique edges)";
  return true;
}

void GraphEngine::WriteCheckpoint() {
  fault::CrashPoint("ckpt_begin");
  obs::ProfPhase ckpt_phase("ckpt", &metrics_, c_phase_ckpt_ns_);
  // Quiesce: every queued write must be on disk (well, in the page cache —
  // the threat model is process death, see checkpoint.h) before the
  // manifest that references those bytes is published.
  store_.Sync();
  if (provenance_ != nullptr) {
    provenance_->Flush();
  }
  CheckpointManifest manifest;
  manifest.num_vertices = store_.num_vertices();
  manifest.base_fingerprint = base_fingerprint_;
  manifest.base_edges = stats_.base_edges;
  manifest.file_counter = store_.file_counter();
  manifest.partitions = store_.SnapshotForCheckpoint();
  manifest.pair_done.reserve(pair_done_.size());
  for (const auto& [pair, versions] : pair_done_) {
    manifest.pair_done.push_back({pair.first, pair.second, versions.first, versions.second});
  }
  manifest.dedup_hashes.assign(index_->content.begin(), index_->content.end());
  std::sort(manifest.dedup_hashes.begin(), manifest.dedup_hashes.end());
  manifest.variants.assign(index_->variants.begin(), index_->variants.end());
  std::sort(manifest.variants.begin(), manifest.variants.end());
  if (provenance_ != nullptr) {
    manifest.has_provenance = true;
    manifest.provenance_bytes = provenance_->bytes_written();
    manifest.provenance_records = provenance_->records_written();
  }
  uint64_t bytes = 0;
  std::string error;
  if (!SaveCheckpointManifest(options_.work_dir, manifest, &bytes, &error)) {
    throw IoError("checkpoint publish failed: " + error);
  }
  metrics_.Add(c_ckpt_written_);
  metrics_.Add(c_ckpt_bytes_, bytes);
  live_ckpts_published_.fetch_add(1, std::memory_order_relaxed);
  since_last_checkpoint_.Reset();
  store_.MarkCheckpointPublished();
  // The files retired since the previous manifest are no longer referenced
  // by anything on disk; now they can actually go.
  store_.CollectGarbage();
  fault::CrashPoint("ckpt_gc_done");
}

void GraphEngine::Run() {
  GRAPPLE_CHECK(finalized_) << "call Finalize before Run";
  evt::Emit(evt::kRunStart, store_.NumPartitions());
  bool timed_out = false;
  WallTimer timer;
  for (;;) {
    if (options_.max_seconds > 0 && timer.ElapsedSeconds() > options_.max_seconds) {
      timed_out = true;
      break;
    }
    // Pick the next stale pair (i <= j).
    bool found = false;
    size_t pick_i = 0;
    size_t pick_j = 0;
    size_t n = store_.NumPartitions();
    for (size_t i = 0; i < n && !found; ++i) {
      for (size_t j = i; j < n && !found; ++j) {
        auto versions = std::make_pair(store_.Info(i).version, store_.Info(j).version);
        auto it = pair_done_.find({i, j});
        if (it == pair_done_.end() || it->second != versions) {
          pick_i = i;
          pick_j = j;
          found = true;
        }
      }
    }
    if (!found) {
      break;
    }
    // Read ahead: prefetch the pair the scan would pick next (exact when
    // this pair converges without writes — the common case during the final
    // fixpoint sweep) so its partitions load from cache.
    size_t next_i = 0;
    size_t next_j = 0;
    if (store_.pipeline_enabled() && PredictNextPair(pick_i, pick_j, &next_i, &next_j)) {
      store_.Hint({next_i, next_j});
    }
    live_pair_.store((static_cast<uint64_t>(pick_i) << 32) | static_cast<uint64_t>(pick_j),
                     std::memory_order_relaxed);
    evt::Emit(evt::kPairStart, pick_i, pick_j);
    {
      obs::ProfPair prof_pair(static_cast<uint32_t>(pick_i), static_cast<uint32_t>(pick_j));
      ProcessPair(pick_i, pick_j);
    }
    evt::Emit(evt::kPairEnd, pick_i, pick_j);
    live_pair_.store(kNoLivePair, std::memory_order_relaxed);
    live_pairs_done_.fetch_add(1, std::memory_order_relaxed);
    fault::CrashPoint("run_pair_done");
    // Interval reached AND the spacing window elapsed; otherwise the
    // counter stays saturated and the next pair re-checks the clock.
    if (options_.checkpoint_interval > 0 &&
        ++pairs_since_checkpoint_ >= options_.checkpoint_interval &&
        since_last_checkpoint_.ElapsedSeconds() >= options_.checkpoint_min_spacing_seconds) {
      WriteCheckpoint();
      pairs_since_checkpoint_ = 0;
    }
  }
  // Write-behind barrier: the on-disk state must be complete when Run()
  // returns (result iteration, witness decoding, external readers).
  store_.Sync();
  if (provenance_ != nullptr) {
    provenance_->Flush();
  }
  if (options_.checkpoint_interval > 0) {
    // Final manifest: a kill between here and the caller consuming results
    // resumes into an already-converged fixpoint (the scheduler finds no
    // stale pair) and regenerates identical reports.
    WriteCheckpoint();
    fault::CrashPoint("run_complete");
  }
  evt::Emit(evt::kRunEnd, live_pairs_done_.load(std::memory_order_relaxed));
  metrics_.AddNanos(c_compute_ns_, timer.ElapsedNanos());
  metrics_.Add(c_final_edges_, store_.TotalEdges());
  metrics_.SetGauge("engine_num_partitions", static_cast<double>(store_.NumPartitions()));
  metrics_.MaxGauge("engine_peak_partitions", static_cast<double>(store_.NumPartitions()));
  metrics_.SetGauge("engine_timed_out", timed_out ? 1.0 : 0.0);
  // The registry (merged with the oracle's) is the source of truth; the
  // legacy named fields become a view over it.
  stats_.metrics = Metrics();
  stats_.SyncFromMetrics();
}

bool GraphEngine::PredictNextPair(size_t pi, size_t pj, size_t* next_i, size_t* next_j) const {
  // Mirror the Run() scan, starting just past (pi, pj): assuming that pair
  // converges (no version bumps, no splits), the first stale pair after it
  // is exactly what the scheduler picks next.
  size_t n = store_.NumPartitions();
  size_t i = pi;
  size_t j = pj + 1;
  for (; i < n; ++i, j = i) {
    for (; j < n; ++j) {
      auto versions = std::make_pair(store_.Info(i).version, store_.Info(j).version);
      auto it = pair_done_.find({i, j});
      if (it == pair_done_.end() || it->second != versions) {
        *next_i = i;
        *next_j = j;
        return true;
      }
    }
  }
  return false;
}

obs::MetricsSnapshot GraphEngine::Metrics() const {
  obs::MetricsSnapshot snapshot = metrics_.Snapshot();
  snapshot.Merge(oracle_->Metrics());
  // Process-wide robustness gauges (byte_io retries, fault shim). Gauges,
  // not counters: several engines in one process observe the same totals,
  // and snapshot merges take the max rather than double-counting.
  snapshot.gauges["io_retries"] = static_cast<double>(IoRetriesTotal());
  snapshot.gauges["faults_injected"] = static_cast<double>(fault::InjectedCount());
  return snapshot;
}

void GraphEngine::ProcessPair(size_t pi, size_t pj) {
  metrics_.Add(c_pair_loads_);
  const PartitionInfo& info_i = store_.Info(pi);
  const PartitionInfo& info_j = store_.Info(pj);
  LoadedPair pair(info_i.lo, info_i.hi, pi == pj ? info_i.lo : info_j.lo,
                  pi == pj ? info_i.hi : info_j.hi);

  std::vector<EdgeRecord> loaded = store_.Load(pi);
  size_t count_i = loaded.size();
  if (pi != pj) {
    std::vector<EdgeRecord> more = store_.Load(pj);
    loaded.insert(loaded.end(), std::make_move_iterator(more.begin()),
                  std::make_move_iterator(more.end()));
  }
  for (const auto& edge : loaded) {
    pair.Insert(edge.src, edge.dst, edge.label, edge.payload.data(), edge.payload.size());
  }
  size_t total_loaded = loaded.size();
  loaded.clear();
  loaded.shrink_to_fit();

  obs::ProfPhase join_phase("join", &metrics_, c_phase_join_ns_);
  GraphEngineIndexHolder& index = *index_;
  const bool record_prov = provenance_ != nullptr;
  auto prov_edge_of = [](const LoadedPair::MemEdge& e) {
    obs::ProvEdge pe;
    pe.src = e.src;
    pe.dst = e.dst;
    pe.label = e.label;
    return pe;
  };

  // Delta frontier: if this pair previously reached a local fixpoint at
  // versions (vi, vj), the old x old joins are already done — only edges
  // recorded after those versions seed the frontier. Edge files are append
  // ordered and rewrites preserve prefix order, so "new" is a suffix of
  // each partition's load.
  size_t old_i = 0;
  size_t old_j = 0;
  auto prev_done = pair_done_.find({pi, pj});
  if (prev_done != pair_done_.end()) {
    old_i = store_.EdgesAtVersion(pi, prev_done->second.first);
    if (pi != pj) {
      old_j = store_.EdgesAtVersion(pj, prev_done->second.second);
    }
  }
  std::vector<uint32_t> frontier;
  std::vector<uint8_t> in_frontier(pair.NumEdges(), 0);
  for (size_t e = 0; e < total_loaded; ++e) {
    bool is_new = (e < count_i) ? e >= old_i : (e - count_i) >= old_j;
    if (is_new) {
      frontier.push_back(static_cast<uint32_t>(e));
      in_frontier[e] = 1;
    }
  }
  std::vector<EdgeRecord> external;
  bool changed_i = false;
  bool changed_j = false;
  bool complete = true;

  while (!frontier.empty()) {
    metrics_.Add(c_join_rounds_);
    // --- parallel candidate generation ---
    // Shard count is pinned to the configured join parallelism, not to the
    // runtime's worker count: shards cover contiguous frontier ranges and
    // are integrated in index order below, so the result is identical for
    // any worker count and any steal order.
    size_t shards = join_shards_;
    std::vector<std::vector<Candidate>> shard_candidates(shards);
    std::atomic<uint64_t> joins{0};
    std::atomic<uint64_t> unsat{0};
    auto join_shard = [&](size_t shard, size_t begin, size_t end) {
      auto& out = shard_candidates[shard];
      uint64_t local_joins = 0;
      uint64_t local_unsat = 0;
      for (size_t f = begin; f < end; ++f) {
        uint32_t idx = frontier[f];
        const auto& e1 = pair.EdgeAt(idx);
        // Forward: e1 as the first edge of the pair.
        if (pair.Owns(e1.dst)) {
          for (uint32_t idx2 : pair.OutOf(e1.dst)) {
            const auto& e2 = pair.EdgeAt(idx2);
            const auto& results = grammar_->BinaryResults(e1.label, e2.label);
            if (results.empty()) {
              continue;
            }
            ++local_joins;
            auto payload = oracle_->MergeAndCheck(pair.PayloadOf(e1), e1.payload_len,
                                                  pair.PayloadOf(e2), e2.payload_len);
            if (!payload.has_value()) {
              ++local_unsat;
              continue;
            }
            uint64_t hash_a = 0;
            uint64_t hash_b = 0;
            if (record_prov) {
              hash_a = EdgeContentHash(e1.src, e1.dst, e1.label, pair.PayloadOf(e1),
                                       e1.payload_len);
              hash_b = EdgeContentHash(e2.src, e2.dst, e2.label, pair.PayloadOf(e2),
                                       e2.payload_len);
            }
            for (Label result : results) {
              Candidate c;
              c.src = e1.src;
              c.dst = e2.dst;
              c.label = result;
              c.payload = *payload;
              if (record_prov) {
                c.parent_a = hash_a;
                c.parent_b = hash_b;
                c.a_edge = prov_edge_of(e1);
                c.b_edge = prov_edge_of(e2);
              }
              out.push_back(std::move(c));
            }
          }
        }
        // Backward: e1 as the second edge; skip first edges that are in the
        // frontier themselves (their forward pass covers the pair).
        for (uint32_t idx0 : pair.InOf(e1.src)) {
          if (in_frontier[idx0]) {
            continue;
          }
          const auto& e0 = pair.EdgeAt(idx0);
          const auto& results = grammar_->BinaryResults(e0.label, e1.label);
          if (results.empty()) {
            continue;
          }
          ++local_joins;
          auto payload = oracle_->MergeAndCheck(pair.PayloadOf(e0), e0.payload_len,
                                                pair.PayloadOf(e1), e1.payload_len);
          if (!payload.has_value()) {
            ++local_unsat;
            continue;
          }
          uint64_t hash_a = 0;
          uint64_t hash_b = 0;
          if (record_prov) {
            hash_a = EdgeContentHash(e0.src, e0.dst, e0.label, pair.PayloadOf(e0),
                                     e0.payload_len);
            hash_b = EdgeContentHash(e1.src, e1.dst, e1.label, pair.PayloadOf(e1),
                                     e1.payload_len);
          }
          for (Label result : results) {
            Candidate c;
            c.src = e0.src;
            c.dst = e1.dst;
            c.label = result;
            c.payload = *payload;
            if (record_prov) {
              c.parent_a = hash_a;
              c.parent_b = hash_b;
              c.a_edge = prov_edge_of(e0);
              c.b_edge = prov_edge_of(e1);
            }
            out.push_back(std::move(c));
          }
        }
      }
      joins.fetch_add(local_joins, std::memory_order_relaxed);
      unsat.fetch_add(local_unsat, std::memory_order_relaxed);
    };
    size_t frontier_size = frontier.size();
    size_t shards_used = std::min(frontier_size, shards);
    if (shards_used <= 1) {
      if (frontier_size > 0) {
        join_shard(0, 0, frontier_size);
      }
    } else {
      // Explicit task objects on the unified runtime: one foreground task
      // per contiguous shard, tagged with this pair's locality key so
      // locality-aware stealing prefers to leave them where the pair's
      // Hint()ed partitions are warm. The group wait help-executes
      // unclaimed shards, so this cannot deadlock even when every runtime
      // worker is occupied by a checker task.
      uint32_t checker = obs::ProfCurrentChecker();
      uint64_t pair_key =
          (static_cast<uint64_t>(pi + 1) << 32) | static_cast<uint64_t>(pj + 1);
      size_t chunk = (frontier_size + shards_used - 1) / shards_used;
      TaskGroup group(runtime_);
      for (size_t shard = 0; shard < shards_used; ++shard) {
        size_t begin = shard * chunk;
        size_t end = std::min(frontier_size, begin + chunk);
        if (begin >= end) {
          continue;
        }
        group.Submit(TaskLane::kForeground, pair_key + shard,
                     [&, shard, begin, end, checker] {
                       obs::ProfChecker prof_checker(checker);
                       obs::ProfPair prof_pair(static_cast<uint32_t>(pi),
                                               static_cast<uint32_t>(pj));
                       obs::ProfPhase prof_phase("join");
                       join_shard(shard, begin, end);
                     });
      }
      group.Wait();
    }
    metrics_.Add(c_joins_attempted_, joins.load());
    metrics_.Add(c_unsat_pruned_, unsat.load());
    metrics_.Observe(h_join_round_joins_, joins.load());

    // --- sequential integration ---
    std::fill(in_frontier.begin(), in_frontier.end(), 0);
    std::vector<uint32_t> next_frontier;
    // `out_hash` (when recording) receives the content hash the record ended
    // up stored under — post-widening, and also on dedup (where it names the
    // already-recorded edge) — so closure rewrites can reference it.
    auto integrate = [&](EdgeRecord&& record, uint64_t parent_a, const obs::ProvEdge& a_edge,
                         uint64_t parent_b, const obs::ProvEdge& b_edge, bool is_rewrite,
                         uint64_t* out_hash) {
      uint64_t triple = EdgeTripleHash(record.src, record.dst, record.label);
      uint64_t content = EdgeContentHash(record.src, record.dst, record.label,
                                         record.payload.data(), record.payload.size());
      if (out_hash != nullptr) {
        *out_hash = content;
      }
      if (index.content.count(content) != 0) {
        return;
      }
      bool widened = false;
      uint32_t& variant_count = index.variants[triple];
      if (variant_count >= options_.max_variants_per_triple) {
        // Widen: replace further variants by the always-true payload.
        record.payload = oracle_->TruePayload();
        content = EdgeContentHash(record.src, record.dst, record.label, record.payload.data(),
                                  record.payload.size());
        if (out_hash != nullptr) {
          *out_hash = content;
        }
        if (index.content.count(content) != 0) {
          return;
        }
        widened = true;
        metrics_.Add(c_widened_triples_);
      }
      index.content.insert(content);
      ++variant_count;
      metrics_.Add(c_edges_added_);
      if (record_prov) {
        if (is_rewrite) {
          provenance_->RecordRewrite(content, ProvEdgeOf(record), record.payload.data(),
                                     record.payload.size(), parent_a, a_edge);
        } else {
          provenance_->RecordJoin(content, ProvEdgeOf(record), record.payload.data(),
                                  record.payload.size(), parent_a, a_edge, parent_b, b_edge,
                                  widened);
        }
      }
      if (pair.Owns(record.src)) {
        uint32_t idx = pair.Insert(record.src, record.dst, record.label, record.payload.data(),
                                   record.payload.size());
        next_frontier.push_back(idx);
        in_frontier.push_back(1);
        VertexId src = record.src;
        if (src >= store_.Info(pi).lo && src < store_.Info(pi).hi) {
          changed_i = true;
        } else {
          changed_j = true;
        }
      } else {
        external.push_back(std::move(record));
      }
    };
    const obs::ProvEdge no_edge;
    for (auto& shard : shard_candidates) {
      for (auto& candidate : shard) {
        EdgeRecord record;
        record.src = candidate.src;
        record.dst = candidate.dst;
        record.label = candidate.label;
        record.payload = std::move(candidate.payload);
        std::vector<EdgeRecord> closure;
        std::vector<int> parents;
        ExpandEdge(record, &closure, record_prov ? &parents : nullptr);
        std::vector<uint64_t> hashes(record_prov ? closure.size() : 0, 0);
        for (size_t k = 0; k < closure.size(); ++k) {
          if (!record_prov) {
            integrate(std::move(closure[k]), 0, no_edge, 0, no_edge, false, nullptr);
          } else if (parents[k] < 0) {
            // The join result itself.
            integrate(std::move(closure[k]), candidate.parent_a, candidate.a_edge,
                      candidate.parent_b, candidate.b_edge, false, &hashes[k]);
          } else {
            // Unary/mirror rewrite of an earlier closure record (whose
            // scalar identity fields survive its move).
            size_t p = static_cast<size_t>(parents[k]);
            integrate(std::move(closure[k]), hashes[p], ProvEdgeOf(closure[p]), 0, no_edge,
                      true, &hashes[k]);
          }
        }
      }
    }
    frontier = std::move(next_frontier);
    for (uint32_t idx : frontier) {
      in_frontier[idx] = 1;
    }
    // Eager memory guard: when the resident pair has outgrown the budget,
    // first try to borrow headroom from the shared arbiter (released by
    // engines that already finished); only if that fails stop the local
    // fixpoint early, write back (splitting), and reschedule.
    metrics_.MaxGauge("engine_peak_resident_bytes", static_cast<double>(pair.arena_bytes()));
    if (pair.arena_bytes() > BudgetBytes()) {
      uint64_t want = pair.arena_bytes() + pair.arena_bytes() / 2;
      if (options_.budget_lease != nullptr && options_.budget_lease->TryGrowTo(want)) {
        metrics_.Add(c_budget_borrows_);
        metrics_.SetGauge("engine_budget_bytes", static_cast<double>(BudgetBytes()));
        live_budget_bytes_.store(BudgetBytes(), std::memory_order_relaxed);
      } else {
        complete = false;
        break;
      }
    }
  }

  // --- write back ---
  uint64_t target = BudgetBytes() / 4;
  auto writeback = [&](size_t index_p, bool changed, VertexId lo, VertexId hi) {
    if (!changed) {
      return false;
    }
    std::vector<EdgeRecord> edges;
    uint64_t bytes = 0;
    for (size_t e = 0; e < pair.NumEdges(); ++e) {
      const auto& mem = pair.EdgeAt(e);
      if (mem.src >= lo && mem.src < hi) {
        edges.push_back(pair.ToRecord(mem));
        bytes += 16 + mem.payload_len;
      }
    }
    if (bytes > target * 2 && hi - lo > 1) {
      size_t pieces = store_.SplitAndRewrite(index_p, std::move(edges), target);
      if (pieces > 1) {
        metrics_.Add(c_partition_splits_, pieces - 1);
        return true;  // layout changed
      }
      return false;
    }
    store_.Rewrite(index_p, edges);
    return false;
  };

  // Write the higher-indexed partition first so index pi stays valid if pj
  // splits.
  bool layout_changed = false;
  if (pi != pj) {
    layout_changed |= writeback(pj, changed_j, store_.Info(pj).lo, store_.Info(pj).hi);
  }
  layout_changed |= writeback(pi, changed_i || (pi == pj && changed_j), store_.Info(pi).lo,
                              store_.Info(pi).hi);

  // Flush externals grouped by owner.
  if (!external.empty()) {
    std::sort(external.begin(), external.end(),
              [](const EdgeRecord& a, const EdgeRecord& b) { return a.src < b.src; });
    size_t begin = 0;
    while (begin < external.size()) {
      size_t owner = store_.PartitionOf(external[begin].src);
      size_t end = begin;
      while (end < external.size() &&
             external[end].src < store_.Info(owner).hi) {
        ++end;
      }
      std::vector<EdgeRecord> chunk(external.begin() + static_cast<ptrdiff_t>(begin),
                                    external.begin() + static_cast<ptrdiff_t>(end));
      store_.Append(owner, chunk);
      begin = end;
    }
  }

  metrics_.MaxGauge("engine_peak_partitions", static_cast<double>(store_.NumPartitions()));

  if (layout_changed) {
    // Partition indices shifted; all bookkeeping is stale.
    pair_done_.clear();
    return;
  }
  if (complete) {
    pair_done_[{pi, pj}] = {store_.Info(pi).version, store_.Info(pj).version};
  } else {
    pair_done_.erase({pi, pj});
  }
}

void GraphEngine::ForEachEdge(const std::function<void(const EdgeRecord&)>& fn) {
  for (size_t p = 0; p < store_.NumPartitions(); ++p) {
    std::vector<EdgeRecord> edges = store_.Load(p);
    for (const auto& edge : edges) {
      fn(edge);
    }
  }
}

void GraphEngine::ForEachEdgeWithLabel(Label label,
                                       const std::function<void(const EdgeRecord&)>& fn) {
  ForEachEdge([&](const EdgeRecord& edge) {
    if (edge.label == label) {
      fn(edge);
    }
  });
}

}  // namespace grapple
