#include "src/graph/engine.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <unordered_map>

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

// A join result waiting for integration. `payload` is the oracle's Merge
// token: a payload id, or (for a pair that missed the memo this round) a
// pending token that Resolve turns into a payload id or kUnsat once the
// round commits.
struct Candidate {
  VertexId src;
  VertexId dst;
  Label label;
  uint32_t payload;
};
static_assert(sizeof(Candidate) == 16, "candidates stay 16 bytes");

// Provenance of a candidate (only kept when recording): content hashes and
// identities of the two parent edges the join consumed.
struct CandidateProvenance {
  uint64_t parent_a = 0;
  uint64_t parent_b = 0;
  obs::ProvEdge a_edge;
  obs::ProvEdge b_edge;
};

obs::ProvEdge ProvEdgeOf(VertexId src, VertexId dst, Label label) {
  obs::ProvEdge edge;
  edge.src = src;
  edge.dst = dst;
  edge.label = label;
  return edge;
}

uint64_t ContentHashOf(VertexId src, VertexId dst, Label label, PayloadBytes payload) {
  return EdgeContentHash(src, dst, label, payload.data, payload.size);
}

}  // namespace

// In-memory view of the two loaded partitions plus everything induced while
// they are resident. Edges name their payloads by id. Adjacency is grouped
// by label: each owned vertex keeps one bucket per label among its out-
// (resp. in-) edges, and each bucket chains its edges in ascending index
// through the edges themselves, so a join visits only the buckets whose
// label the grammar can pair with, with no per-vertex allocation. In-edges
// are kept only for owned targets: joins look up owned vertices only.
class GraphEngine::LoadedPair {
 public:
  static constexpr uint32_t kNil = UINT32_MAX;

  struct MemEdge {
    VertexId src;
    VertexId dst;
    Label label;
    uint32_t payload;   // id in the oracle's payload table
    uint32_t next_out;  // next edge in src's bucket for this label
    uint32_t next_in;   // next edge in dst's bucket for this label
  };

  LoadedPair(VertexId lo1, VertexId hi1, VertexId lo2, VertexId hi2)
      : lo1_(lo1), hi1_(hi1), lo2_(lo2), hi2_(hi2) {
    size_t slots = (hi1 - lo1) + (lo2 == lo1 ? 0 : hi2 - lo2);
    out_head_.assign(slots, kNil);
    in_head_.assign(slots, kNil);
  }

  bool Owns(VertexId v) const {
    return (v >= lo1_ && v < hi1_) || (v >= lo2_ && v < hi2_);
  }

  size_t NumEdges() const { return edges_.size(); }
  const MemEdge& EdgeAt(size_t i) const { return edges_[i]; }
  // Payload bytes held by the resident edges: what the memory budget meters.
  uint64_t resident_bytes() const { return resident_bytes_; }

  // Appends without any checks (caller already dedup'd globally).
  uint32_t Insert(VertexId src, VertexId dst, Label label, uint32_t payload, size_t payload_len) {
    uint32_t idx = static_cast<uint32_t>(edges_.size());
    edges_.push_back({src, dst, label, payload, kNil, kNil});
    resident_bytes_ += payload_len;
    Link(&out_head_[SlotOf(src)], label, idx, &MemEdge::next_out);
    if (Owns(dst)) {
      Link(&in_head_[SlotOf(dst)], label, idx, &MemEdge::next_in);
    }
    return idx;
  }

  // Calls fn(index, results) for every edge out of owned vertex `v` whose
  // label can follow `first` (results = the rule heads), in ascending index.
  template <typename Fn>
  void ForEachSecond(VertexId v, Label first, const Grammar& grammar, Fn&& fn) const {
    Visit(
        out_head_[SlotOf(v)],
        [&](Label second) -> const std::vector<Label>& {
          return grammar.BinaryResults(first, second);
        },
        &MemEdge::next_out, fn);
  }
  // Calls fn(index, results) for every edge into owned vertex `v` whose
  // label can precede `second`, in ascending index.
  template <typename Fn>
  void ForEachFirst(VertexId v, Label second, const Grammar& grammar, Fn&& fn) const {
    Visit(
        in_head_[SlotOf(v)],
        [&](Label first) -> const std::vector<Label>& {
          return grammar.BinaryResults(first, second);
        },
        &MemEdge::next_in, fn);
  }

 private:
  struct Bucket {
    Label label;
    uint32_t head;
    uint32_t tail;
    uint32_t next;  // the vertex's next bucket
  };
  struct Cursor {
    uint32_t at;
    const std::vector<Label>* results;
  };

  size_t SlotOf(VertexId v) const {
    return v >= lo1_ && v < hi1_ ? v - lo1_ : (hi1_ - lo1_) + (v - lo2_);
  }

  void Link(uint32_t* vertex_head, Label label, uint32_t idx, uint32_t MemEdge::*next) {
    for (uint32_t b = *vertex_head; b != kNil; b = buckets_[b].next) {
      Bucket& bucket = buckets_[b];
      if (bucket.label == label) {
        edges_[bucket.tail].*next = idx;
        bucket.tail = idx;
        return;
      }
    }
    buckets_.push_back({label, idx, idx, *vertex_head});
    *vertex_head = static_cast<uint32_t>(buckets_.size() - 1);
  }

  // Merges the chains of the matching buckets in ascending edge index, so
  // joins (and with them candidates) come out in the order a scan of the
  // vertex's whole adjacency would produce.
  template <typename Match, typename Fn>
  void Visit(uint32_t bucket, Match&& match, uint32_t MemEdge::*next, Fn& fn) const {
    constexpr size_t kInline = 8;
    Cursor inline_cursors[kInline];
    std::vector<Cursor> spilled;
    size_t n = 0;
    for (; bucket != kNil; bucket = buckets_[bucket].next) {
      const std::vector<Label>& results = match(buckets_[bucket].label);
      if (results.empty()) {
        continue;
      }
      Cursor cursor{buckets_[bucket].head, &results};
      if (n < kInline) {
        inline_cursors[n] = cursor;
      } else {
        if (spilled.empty()) {
          spilled.assign(inline_cursors, inline_cursors + kInline);
        }
        spilled.push_back(cursor);
      }
      ++n;
    }
    if (n == 0) {
      return;
    }
    if (n == 1) {
      for (uint32_t idx = inline_cursors[0].at; idx != kNil; idx = edges_[idx].*next) {
        fn(idx, *inline_cursors[0].results);
      }
      return;
    }
    Cursor* cursors = n > kInline ? spilled.data() : inline_cursors;
    for (;;) {
      size_t best = 0;
      for (size_t i = 1; i < n; ++i) {
        if (cursors[i].at < cursors[best].at) {
          best = i;
        }
      }
      uint32_t idx = cursors[best].at;
      if (idx == kNil) {
        return;
      }
      fn(idx, *cursors[best].results);
      cursors[best].at = edges_[idx].*next;
    }
  }

  VertexId lo1_, hi1_, lo2_, hi2_;
  std::vector<MemEdge> edges_;
  uint64_t resident_bytes_ = 0;
  std::vector<uint32_t> out_head_;  // per owned vertex: first bucket
  std::vector<uint32_t> in_head_;
  std::vector<Bucket> buckets_;
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
      c_preprocess_ns_(metrics_.Counter("engine_preprocess_ns")),
      c_compute_ns_(metrics_.Counter("engine_compute_ns")),
      h_join_round_joins_(metrics_.Histogram("engine_join_round_joins")),
      c_witnesses_decoded_(metrics_.Counter("witnesses_decoded_total")),
      h_witness_decode_ns_(metrics_.Histogram("witness_decode_ns")),
      c_ckpt_written_(metrics_.Counter("ckpt_written_total")),
      c_ckpt_bytes_(metrics_.Counter("ckpt_bytes")),
      c_runs_resumed_(metrics_.Counter("runs_resumed_total")),
      c_phase_join_ns_(metrics_.Counter("phase_join_ns")),
      c_index_build_ns_(metrics_.Counter("engine_index_build_ns")),
      c_candidates_ns_(metrics_.Counter("engine_candidates_ns")),
      c_integrate_ns_(metrics_.Counter("engine_integrate_ns")),
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
             options_.io_pipeline ? runtime_ : nullptr, options_.memory_budget_bytes),
      true_payload_(oracle_->Intern(oracle_->TruePayload())) {
  obs::EventLogInstall();
  // Propose this engine's work dir as the crash-dump target; the Grapple
  // facade (when present) has already claimed the run work dir.
  obs::EventLogSetCrashDumpPath(options_.work_dir + "/flightrec.bin", /*only_if_unset=*/true);
  metrics_.SetGauge("engine_budget_bytes", static_cast<double>(options_.memory_budget_bytes));
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
    w.Key("budget_bytes").UInt(options_.memory_budget_bytes);
    w.EndObject();
    return w.Take();
  });
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

void GraphEngine::BuildClosures() {
  // Closure over unary productions and mirror labels, on a symbolic edge
  // 0 -> 1 (or the self-loop 0 -> 0). A depth-first walk: each queued
  // triple remembers which slot its source triple will occupy, so the
  // closure forms a forest rooted at the edge. A triple is derived once.
  struct Item {
    Triple triple;
    int parent;
  };
  closures_.assign(grammar_->NumLabels(), {});
  for (size_t label = 0; label < grammar_->NumLabels(); ++label) {
    for (int self_loop = 0; self_loop < 2; ++self_loop) {
      const Triple edge{0, self_loop != 0 ? 0u : 1u, static_cast<Label>(label)};
      std::vector<Triple> done;
      std::vector<Item> queue{{edge, -1}};
      auto seen = [&](const Triple& t) {
        auto same = [&](const Triple& o) {
          return o.src == t.src && o.dst == t.dst && o.label == t.label;
        };
        return std::any_of(done.begin(), done.end(), same) ||
               std::any_of(queue.begin(), queue.end(),
                           [&](const Item& item) { return same(item.triple); });
      };
      std::vector<ClosureStep>& steps = closures_[label][self_loop];
      while (!queue.empty()) {
        Item item = queue.back();
        queue.pop_back();
        const Triple cur = item.triple;
        int my_index = static_cast<int>(done.size());
        done.push_back(cur);
        steps.push_back({cur.label, cur.src != edge.src, item.parent});
        for (Label result : grammar_->UnaryResults(cur.label)) {
          Triple derived{cur.src, cur.dst, result};
          if (!seen(derived)) {
            queue.push_back({derived, my_index});
          }
        }
        Label mirror = grammar_->MirrorOf(cur.label);
        if (mirror != kNoLabel) {
          Triple derived{cur.dst, cur.src, mirror};
          if (!seen(derived)) {
            queue.push_back({derived, my_index});
          }
        }
      }
    }
  }
}

namespace {

// Open-addressing set of 64-bit edge content hashes. Zero, the free-slot
// marker, is kept out of band.
class HashSet64 {
 public:
  bool Contains(uint64_t key) const {
    if (key == 0) {
      return has_zero_;
    }
    size_t mask = slots_.size() - 1;
    for (size_t i = SlotHash(key) & mask;; i = (i + 1) & mask) {
      if (slots_[i] == key) {
        return true;
      }
      if (slots_[i] == 0) {
        return false;
      }
    }
  }

  // False when `key` was already present.
  bool Insert(uint64_t key) {
    if (key == 0) {
      bool inserted = !has_zero_;
      has_zero_ = true;
      return inserted;
    }
    size_t mask = slots_.size() - 1;
    size_t i = SlotHash(key) & mask;
    for (; slots_[i] != 0; i = (i + 1) & mask) {
      if (slots_[i] == key) {
        return false;
      }
    }
    slots_[i] = key;
    if (++size_ * 4 > slots_.size() * 3) {
      Rehash(slots_.size() * 2);
    }
    return true;
  }

  void Reserve(size_t n) {
    size_t want = slots_.size();
    while (n * 4 > want * 3) {
      want *= 2;
    }
    if (want != slots_.size()) {
      Rehash(want);
    }
  }

  size_t size() const { return size_ + (has_zero_ ? 1 : 0); }

  std::vector<uint64_t> Sorted() const {
    std::vector<uint64_t> keys;
    keys.reserve(size());
    if (has_zero_) {
      keys.push_back(0);
    }
    for (uint64_t key : slots_) {
      if (key != 0) {
        keys.push_back(key);
      }
    }
    std::sort(keys.begin(), keys.end());
    return keys;
  }

 private:
  static size_t SlotHash(uint64_t key) {
    return static_cast<size_t>((key * 0x9E3779B97F4A7C15ULL) >> 20);
  }

  void Rehash(size_t slots) {
    std::vector<uint64_t> old(slots, 0);
    old.swap(slots_);
    size_t mask = slots_.size() - 1;
    for (uint64_t key : old) {
      if (key != 0) {
        size_t i = SlotHash(key) & mask;
        while (slots_[i] != 0) {
          i = (i + 1) & mask;
        }
        slots_[i] = key;
      }
    }
  }

  std::vector<uint64_t> slots_ = std::vector<uint64_t>(64, 0);
  size_t size_ = 0;
  bool has_zero_ = false;
};

// Exact open-addressing set of (src, dst, label) triples.
class TripleSet {
 public:
  bool Contains(VertexId src, VertexId dst, Label label) const {
    size_t mask = slots_.size() - 1;
    for (size_t i = SlotHash(src, dst, label) & mask;; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (slot.label == kFree) {
        return false;
      }
      if (slot.src == src && slot.dst == dst && slot.label == label) {
        return true;
      }
    }
  }

  void Insert(VertexId src, VertexId dst, Label label) {
    size_t mask = slots_.size() - 1;
    size_t i = SlotHash(src, dst, label) & mask;
    for (; slots_[i].label != kFree; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (slot.src == src && slot.dst == dst && slot.label == label) {
        return;
      }
    }
    slots_[i] = {src, dst, label};
    if (++size_ * 4 > slots_.size() * 3) {
      std::vector<Slot> old(slots_.size() * 2);
      old.swap(slots_);
      size_ = 0;
      for (const Slot& slot : old) {
        if (slot.label != kFree) {
          Insert(slot.src, slot.dst, static_cast<Label>(slot.label));
        }
      }
    }
  }

 private:
  static constexpr uint32_t kFree = UINT32_MAX;
  struct Slot {
    VertexId src = 0;
    VertexId dst = 0;
    uint32_t label = kFree;
  };

  static size_t SlotHash(VertexId src, VertexId dst, Label label) {
    uint64_t key = ((uint64_t{src} << 32) | dst) ^ (uint64_t{label} << 48);
    return static_cast<size_t>((key * 0x9E3779B97F4A7C15ULL) >> 20);
  }

  std::vector<Slot> slots_ = std::vector<Slot>(64);
  size_t size_ = 0;
};

}  // namespace

// Global dedup and per-triple variant bookkeeping, kept out of the header.
// Hash-based: a 64-bit collision silently drops an edge, with negligible
// probability at the scales this engine targets.
struct GraphEngineIndexHolder {
  HashSet64 content;
  std::unordered_map<uint64_t, uint32_t> variants;
  // Triples at the variant cap whose widened edge is indexed: any further
  // variant of them widens into that edge, so integrating one changes
  // nothing. Derived from the two sets above (not checkpointed; a resumed
  // run refills it as triples widen again).
  TripleSet saturated;
};

GraphEngine::~GraphEngine() = default;

void GraphEngine::Finalize(VertexId num_vertices) {
  GRAPPLE_CHECK(!finalized_);
  finalized_ = true;
  WallTimer timer;
  index_ = std::make_unique<GraphEngineIndexHolder>();
  BuildClosures();
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
  std::vector<uint64_t> hashes;
  for (auto& edge : pending_base_) {
    const Triple base{edge.src, edge.dst, edge.label};
    const std::vector<ClosureStep>& closure = ClosureOf(base);
    hashes.assign(provenance_ != nullptr ? closure.size() : 0, 0);
    for (size_t k = 0; k < closure.size(); ++k) {
      const Triple derived = StepTriple(base, closure[k]);
      uint64_t hash = EdgeContentHash(derived.src, derived.dst, derived.label,
                                      edge.payload.data(), edge.payload.size());
      if (provenance_ != nullptr) {
        hashes[k] = hash;
      }
      if (index_->content.Insert(hash)) {
        ++index_->variants[EdgeTripleHash(derived.src, derived.dst, derived.label)];
        obs::ProvEdge prov_edge = ProvEdgeOf(derived.src, derived.dst, derived.label);
        if (provenance_ != nullptr) {
          int parent_index = closure[k].parent;
          if (parent_index < 0) {
            provenance_->RecordBase(hash, prov_edge, edge.payload.data(), edge.payload.size());
          } else {
            const Triple parent = StepTriple(base, closure[static_cast<size_t>(parent_index)]);
            provenance_->RecordRewrite(hash, prov_edge, edge.payload.data(), edge.payload.size(),
                                       hashes[static_cast<size_t>(parent_index)],
                                       ProvEdgeOf(parent.src, parent.dst, parent.label));
          }
        }
        EdgeRecord record;
        record.src = derived.src;
        record.dst = derived.dst;
        record.label = derived.label;
        record.payload = edge.payload;
        expanded.push_back(std::move(record));
      }
    }
  }
  pending_base_.clear();
  pending_base_.shrink_to_fit();
  base_edges_ = expanded.size();
  metrics_.Add(c_base_edges_, expanded.size());
  store_.Initialize(std::move(expanded), num_vertices, options_.memory_budget_bytes / 4);
  metrics_.AddNanos(c_preprocess_ns_, timer.ElapsedNanos());
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
  index_->content.Reserve(manifest.dedup_hashes.size());
  for (uint64_t hash : manifest.dedup_hashes) {
    index_->content.Insert(hash);
  }
  index_->variants.reserve(manifest.variants.size());
  for (const auto& [triple, count] : manifest.variants) {
    index_->variants[triple] = count;
  }
  for (const CheckpointManifest::PairDone& pd : manifest.pair_done) {
    pair_done_[{static_cast<size_t>(pd.i), static_cast<size_t>(pd.j)}] = {pd.ni, pd.nj};
  }
  base_edges_ = manifest.base_edges;
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
  manifest.base_edges = base_edges_;
  manifest.file_counter = store_.file_counter();
  manifest.partitions = store_.SnapshotForCheckpoint();
  manifest.pair_done.reserve(pair_done_.size());
  for (const auto& [pair, counts] : pair_done_) {
    manifest.pair_done.push_back({pair.first, pair.second, counts.first, counts.second});
  }
  manifest.dedup_hashes = index_->content.Sorted();
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
        if (Stale(i, j)) {
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
}

bool GraphEngine::PredictNextPair(size_t pi, size_t pj, size_t* next_i, size_t* next_j) const {
  // Mirror the Run() scan, starting just past (pi, pj): assuming that pair
  // converges (no new edges, no splits), the first stale pair after it is
  // exactly what the scheduler picks next.
  size_t n = store_.NumPartitions();
  size_t i = pi;
  size_t j = pj + 1;
  for (; i < n; ++i, j = i) {
    for (; j < n; ++j) {
      if (Stale(i, j)) {
        *next_i = i;
        *next_j = j;
        return true;
      }
    }
  }
  return false;
}

bool GraphEngine::Stale(size_t i, size_t j) const {
  auto it = pair_done_.find({i, j});
  return it == pair_done_.end() || store_.Info(i).edges > it->second.first ||
         store_.Info(j).edges > it->second.second;
}

void GraphEngine::RemapProgressAfterSplit(size_t p, size_t pieces, const LoadedPair& pair,
                                          VertexId lo, VertexId hi) {
  // The prefix lengths the entries name for p, ascending, and for each the
  // number of p's first n edges that went to every piece. p's file listed
  // the resident edges of [lo, hi) in pair order, and each piece kept that
  // order, so one walk over the pair counts them all.
  std::vector<uint64_t> prefixes;
  for (const auto& [key, counts] : pair_done_) {
    if (key.first == p) {
      prefixes.push_back(counts.first);
    }
    if (key.second == p) {
      prefixes.push_back(counts.second);
    }
  }
  std::sort(prefixes.begin(), prefixes.end());
  prefixes.erase(std::unique(prefixes.begin(), prefixes.end()), prefixes.end());
  std::vector<uint64_t> per_piece(prefixes.size() * pieces, 0);
  std::vector<uint64_t> running(pieces, 0);
  size_t next = 0;
  uint64_t seen = 0;
  auto record = [&] {
    for (; next < prefixes.size() && prefixes[next] <= seen; ++next) {
      std::copy(running.begin(), running.end(), per_piece.begin() + next * pieces);
    }
  };
  record();
  for (size_t e = 0; e < pair.NumEdges() && next < prefixes.size(); ++e) {
    VertexId src = pair.EdgeAt(e).src;
    if (src >= lo && src < hi) {
      ++running[store_.PartitionOf(src) - p];
      ++seen;
      record();
    }
  }
  seen = UINT64_MAX;
  record();
  auto count_in = [&](uint64_t prefix, size_t piece) {
    size_t at = std::lower_bound(prefixes.begin(), prefixes.end(), prefix) - prefixes.begin();
    return per_piece[at * pieces + piece];
  };

  // (p, q) becomes (p_k, q), and (p, p) becomes (p_k, p_l); indices past p
  // shift by the pieces added.
  auto shifted = [&](size_t index) { return index > p ? index + pieces - 1 : index; };
  std::map<std::pair<size_t, size_t>, std::pair<uint64_t, uint64_t>> remapped;
  for (const auto& [key, counts] : pair_done_) {
    const auto [a, b] = key;
    if (a != p && b != p) {
      remapped[{shifted(a), shifted(b)}] = counts;
    } else if (a == p && b == p) {
      for (size_t k = 0; k < pieces; ++k) {
        for (size_t l = k; l < pieces; ++l) {
          remapped[{p + k, p + l}] = {count_in(counts.first, k), count_in(counts.second, l)};
        }
      }
    } else if (a == p) {
      for (size_t k = 0; k < pieces; ++k) {
        remapped[{p + k, shifted(b)}] = {count_in(counts.first, k), counts.second};
      }
    } else {
      for (size_t k = 0; k < pieces; ++k) {
        remapped[{a, p + k}] = {counts.first, count_in(counts.second, k)};
      }
    }
  }
  pair_done_.swap(remapped);
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
  WallTimer index_timer;
  for (const auto& edge : loaded) {
    pair.Insert(edge.src, edge.dst, edge.label, oracle_->Intern(edge.payload),
                edge.payload.size());
  }
  metrics_.AddNanos(c_index_build_ns_, index_timer.ElapsedNanos());
  size_t total_loaded = loaded.size();
  loaded.clear();
  loaded.shrink_to_fit();

  obs::ProfPhase join_phase("join", &metrics_, c_phase_join_ns_);
  GraphEngineIndexHolder& index = *index_;
  const bool record_prov = provenance_ != nullptr;

  // Delta frontier: the joins among the first (n_i, n_j) edges this pair
  // recorded as done are not redone; only the edges after those prefixes
  // seed the frontier. Edge files keep their order (partition_store.h), so
  // "new" is a suffix of each partition's load.
  size_t old_i = 0;
  size_t old_j = 0;
  auto prev_done = pair_done_.find({pi, pj});
  if (prev_done != pair_done_.end()) {
    old_i = prev_done->second.first;
    if (pi != pj) {
      old_j = prev_done->second.second;
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

  // Shard count is pinned to the configured join parallelism, not to the
  // runtime's worker count: shards cover contiguous frontier ranges and
  // are integrated in index order below, so the result is identical for
  // any worker count and any steal order.
  const size_t shards = join_shards_;
  std::vector<std::vector<Candidate>> shard_candidates(shards);
  std::vector<std::vector<CandidateProvenance>> shard_provenance(record_prov ? shards : 0);
  std::vector<uint64_t> hashes;
  // True when integrating `edge` with `payload` would change nothing: every
  // record of its closure is indexed exactly, or belongs to a saturated
  // triple. The index only grows, so a settled candidate stays settled.
  // Read-only: safe in the shards of a round.
  auto settled = [&](const Triple& edge, PayloadBytes payload) {
    for (const ClosureStep& step : ClosureOf(edge)) {
      Triple t = StepTriple(edge, step);
      if (!index.saturated.Contains(t.src, t.dst, t.label) &&
          !index.content.Contains(ContentHashOf(t.src, t.dst, t.label, payload))) {
        return false;
      }
    }
    return true;
  };

  // Runs fn(task) for task in [0, tasks) as foreground tasks on the
  // runtime, tagged with this pair's locality key so locality-aware
  // stealing prefers to leave them where the pair's Hint()ed partitions are
  // warm. The group wait help-executes unclaimed tasks, so this cannot
  // deadlock even when every runtime worker is occupied by a checker task.
  // One task runs inline.
  auto run_tasks = [&](size_t tasks, auto&& fn) {
    if (tasks <= 1) {
      fn(0);
      return;
    }
    uint32_t checker = obs::ProfCurrentChecker();
    uint64_t pair_key = (static_cast<uint64_t>(pi + 1) << 32) | static_cast<uint64_t>(pj + 1);
    TaskGroup group(runtime_);
    for (size_t task = 0; task < tasks; ++task) {
      group.Submit(TaskLane::kForeground, pair_key + task, [&, task, checker] {
        obs::ProfChecker prof_checker(checker);
        obs::ProfPair prof_pair(static_cast<uint32_t>(pi), static_cast<uint32_t>(pj));
        obs::ProfPhase prof_phase("join");
        fn(task);
      });
    }
    group.Wait();
  };

  while (!frontier.empty()) {
    metrics_.Add(c_join_rounds_);
    // --- parallel candidate generation ---
    // The round is read-only on everything shared: the pair, the dedup
    // index, and the oracle's payload table and memo. A memo miss is only
    // recorded; the solve step below settles every distinct one.
    size_t frontier_size = frontier.size();
    size_t shards_used = std::min(frontier_size, shards);
    oracle_->BeginRound(shards_used);
    std::atomic<uint64_t> joins{0};
    std::atomic<uint64_t> unsat{0};
    auto join_shard = [&](size_t shard, size_t begin, size_t end) {
      WallTimer shard_timer;
      auto& out = shard_candidates[shard];
      out.clear();
      std::vector<CandidateProvenance>* prov_out =
          record_prov ? &shard_provenance[shard] : nullptr;
      if (prov_out != nullptr) {
        prov_out->clear();
      }
      uint64_t local_joins = 0;
      uint64_t local_unsat = 0;
      // Joins a -> b (consecutive edges) into candidates a.src -> b.dst.
      auto join = [&](const LoadedPair::MemEdge& a, const LoadedPair::MemEdge& b,
                      const std::vector<Label>& results) {
        ++local_joins;
        uint32_t token = oracle_->Merge(shard, a.payload, b.payload);
        if (token == ConstraintOracle::kUnsat) {
          ++local_unsat;
          return;
        }
        // A pending miss has no bytes yet: its candidates skip the settled
        // pre-filter, and integration drops them if the pair proves unsat.
        const bool pending = ConstraintOracle::IsPending(token);
        PayloadBytes merged = pending ? PayloadBytes{} : oracle_->Bytes(token);
        CandidateProvenance prov;
        bool prov_ready = false;
        for (Label result : results) {
          if (!pending && settled({a.src, b.dst, result}, merged)) {
            continue;
          }
          out.push_back({a.src, b.dst, result, token});
          if (prov_out != nullptr) {
            if (!prov_ready) {
              prov.parent_a = ContentHashOf(a.src, a.dst, a.label, oracle_->Bytes(a.payload));
              prov.parent_b = ContentHashOf(b.src, b.dst, b.label, oracle_->Bytes(b.payload));
              prov.a_edge = ProvEdgeOf(a.src, a.dst, a.label);
              prov.b_edge = ProvEdgeOf(b.src, b.dst, b.label);
              prov_ready = true;
            }
            prov_out->push_back(prov);
          }
        }
      };
      for (size_t f = begin; f < end; ++f) {
        const auto& e1 = pair.EdgeAt(frontier[f]);
        // Forward: e1 as the first edge of the pair.
        if (pair.Owns(e1.dst) && grammar_->CanBeginBinary(e1.label)) {
          pair.ForEachSecond(e1.dst, e1.label, *grammar_,
                             [&](uint32_t idx2, const std::vector<Label>& results) {
                               join(e1, pair.EdgeAt(idx2), results);
                             });
        }
        // Backward: e1 as the second edge; skip first edges that are in the
        // frontier themselves (their forward pass covers the pair).
        if (!grammar_->FirstsBefore(e1.label).empty()) {
          pair.ForEachFirst(e1.src, e1.label, *grammar_,
                            [&](uint32_t idx0, const std::vector<Label>& results) {
                              if (!in_frontier[idx0]) {
                                join(pair.EdgeAt(idx0), e1, results);
                              }
                            });
        }
      }
      joins.fetch_add(local_joins, std::memory_order_relaxed);
      unsat.fetch_add(local_unsat, std::memory_order_relaxed);
      metrics_.AddNanos(c_candidates_ns_, shard_timer.ElapsedNanos());
    };
    // Contiguous frontier chunks, one per shard.
    size_t chunk = (frontier_size + shards_used - 1) / shards_used;
    run_tasks(shards_used, [&](size_t shard) {
      join_shard(shard, std::min(frontier_size, shard * chunk),
                 std::min(frontier_size, (shard + 1) * chunk));
    });
    // --- solve step ---
    // Each distinct pair the shards missed is merged and solved once, the
    // pairs split evenly over the shards' decoders and solvers.
    size_t misses = oracle_->CollectMisses();
    if (misses > 0) {
      size_t solvers = std::min(misses, shards_used);
      size_t per_solver = (misses + solvers - 1) / solvers;
      run_tasks(solvers, [&](size_t solver) {
        WallTimer solve_timer;
        oracle_->SolveMisses(solver, std::min(misses, solver * per_solver),
                             std::min(misses, (solver + 1) * per_solver));
        metrics_.AddNanos(c_candidates_ns_, solve_timer.ElapsedNanos());
      });
    }
    // --- sequential integration ---
    WallTimer integrate_timer;
    // Interns this round's solved results, in collection order.
    uint64_t unsat_misses = oracle_->CommitRound();
    metrics_.Add(c_joins_attempted_, joins.load());
    metrics_.Add(c_unsat_pruned_, unsat.load() + unsat_misses);
    metrics_.Observe(h_join_round_joins_, joins.load());
    std::fill(in_frontier.begin(), in_frontier.end(), 0);
    std::vector<uint32_t> next_frontier;
    // `out_hash` (when recording) receives the content hash the record ended
    // up stored under — post-widening, and also on dedup (where it names the
    // already-recorded edge) — so closure rewrites can reference it.
    auto integrate = [&](const Triple& edge, uint32_t payload,
                         const CandidateProvenance* join_prov, uint64_t rewrite_parent,
                         const obs::ProvEdge& rewrite_edge, uint64_t* out_hash) {
      if (out_hash == nullptr && index.saturated.Contains(edge.src, edge.dst, edge.label)) {
        return;
      }
      uint64_t triple = EdgeTripleHash(edge.src, edge.dst, edge.label);
      PayloadBytes bytes = oracle_->Bytes(payload);
      uint64_t content = ContentHashOf(edge.src, edge.dst, edge.label, bytes);
      if (out_hash != nullptr) {
        *out_hash = content;
      }
      if (index.content.Contains(content)) {
        return;
      }
      bool widened = false;
      uint32_t& variant_count = index.variants[triple];
      if (variant_count >= options_.max_variants_per_triple) {
        // Widen: replace further variants by the always-true payload.
        payload = true_payload_;
        bytes = oracle_->Bytes(payload);
        content = ContentHashOf(edge.src, edge.dst, edge.label, bytes);
        if (out_hash != nullptr) {
          *out_hash = content;
        }
        index.saturated.Insert(edge.src, edge.dst, edge.label);
        if (index.content.Contains(content)) {
          return;
        }
        widened = true;
        metrics_.Add(c_widened_triples_);
      }
      index.content.Insert(content);
      ++variant_count;
      metrics_.Add(c_edges_added_);
      if (record_prov) {
        obs::ProvEdge prov_edge = ProvEdgeOf(edge.src, edge.dst, edge.label);
        if (join_prov == nullptr) {
          provenance_->RecordRewrite(content, prov_edge, bytes.data, bytes.size, rewrite_parent,
                                     rewrite_edge);
        } else {
          provenance_->RecordJoin(content, prov_edge, bytes.data, bytes.size,
                                  join_prov->parent_a, join_prov->a_edge, join_prov->parent_b,
                                  join_prov->b_edge, widened);
        }
      }
      if (pair.Owns(edge.src)) {
        uint32_t idx = pair.Insert(edge.src, edge.dst, edge.label, payload, bytes.size);
        next_frontier.push_back(idx);
        in_frontier.push_back(1);
        if (edge.src >= store_.Info(pi).lo && edge.src < store_.Info(pi).hi) {
          changed_i = true;
        } else {
          changed_j = true;
        }
      } else {
        EdgeRecord record;
        record.src = edge.src;
        record.dst = edge.dst;
        record.label = edge.label;
        record.payload.assign(bytes.data, bytes.data + bytes.size);
        external.push_back(std::move(record));
      }
    };
    const obs::ProvEdge no_edge;
    for (size_t shard = 0; shard < shards_used; ++shard) {
      const std::vector<Candidate>& candidates = shard_candidates[shard];
      for (size_t c = 0; c < candidates.size(); ++c) {
        const Candidate& candidate = candidates[c];
        uint32_t payload = oracle_->Resolve(shard, candidate.payload);
        if (payload == ConstraintOracle::kUnsat) {
          continue;  // its join was counted in engine_unsat_pruned_total
        }
        const Triple edge{candidate.src, candidate.dst, candidate.label};
        // Settled by what this round integrated before it.
        if (settled(edge, oracle_->Bytes(payload))) {
          continue;
        }
        const std::vector<ClosureStep>& closure = ClosureOf(edge);
        hashes.assign(record_prov ? closure.size() : 0, 0);
        for (size_t k = 0; k < closure.size(); ++k) {
          const Triple derived = StepTriple(edge, closure[k]);
          int parent_index = closure[k].parent;
          if (!record_prov) {
            integrate(derived, payload, nullptr, 0, no_edge, nullptr);
          } else if (parent_index < 0) {
            // The join result itself.
            integrate(derived, payload, &shard_provenance[shard][c], 0, no_edge, &hashes[k]);
          } else {
            // Unary/mirror rewrite of an earlier closure record.
            const Triple parent = StepTriple(edge, closure[static_cast<size_t>(parent_index)]);
            integrate(derived, payload, nullptr, hashes[static_cast<size_t>(parent_index)],
                      ProvEdgeOf(parent.src, parent.dst, parent.label), &hashes[k]);
          }
        }
      }
    }
    frontier = std::move(next_frontier);
    for (uint32_t idx : frontier) {
      in_frontier[idx] = 1;
    }
    metrics_.AddNanos(c_integrate_ns_, integrate_timer.ElapsedNanos());
    // Eager memory guard: when the resident pair has outgrown the budget
    // with joins still pending, stop the local fixpoint early, write back
    // (splitting), and reschedule; the pair's progress entry keeps the
    // joins done so far. An empty frontier is the local fixpoint, whatever
    // the resident size.
    metrics_.MaxGauge("engine_peak_resident_bytes", static_cast<double>(pair.resident_bytes()));
    if (!frontier.empty() && pair.resident_bytes() > options_.memory_budget_bytes) {
      break;
    }
  }

  // Progress: every join among the resident edges that are not in the
  // pending frontier is done. The frontier holds the edges inserted by the
  // last integration, the tail of the pair, so the done edges are a prefix
  // of each partition's written order. A complete pair has an empty
  // frontier; an early stop keeps the joins it did.
  const size_t done_edges = pair.NumEdges() - frontier.size();
  uint64_t done_i = count_i;
  uint64_t done_j = total_loaded - count_i;
  const PartitionInfo& first = store_.Info(pi);
  for (size_t e = total_loaded; e < done_edges; ++e) {
    VertexId src = pair.EdgeAt(e).src;
    if (src >= first.lo && src < first.hi) {
      ++done_i;
    } else {
      ++done_j;
    }
  }
  pair_done_[{pi, pj}] = pi == pj ? std::make_pair(done_i, done_i) : std::make_pair(done_i, done_j);

  // --- write back ---
  uint64_t target = options_.memory_budget_bytes / 4;
  auto writeback = [&](size_t index_p, bool changed) {
    if (!changed) {
      return;
    }
    const VertexId lo = store_.Info(index_p).lo;
    const VertexId hi = store_.Info(index_p).hi;
    std::vector<EdgeRecord> edges;
    uint64_t bytes = 0;
    for (size_t e = 0; e < pair.NumEdges(); ++e) {
      const auto& mem = pair.EdgeAt(e);
      if (mem.src >= lo && mem.src < hi) {
        PayloadBytes payload = oracle_->Bytes(mem.payload);
        EdgeRecord record;
        record.src = mem.src;
        record.dst = mem.dst;
        record.label = mem.label;
        record.payload.assign(payload.data, payload.data + payload.size);
        edges.push_back(std::move(record));
        bytes += 16 + payload.size;
      }
    }
    if (bytes > target * 2 && hi - lo > 1) {
      size_t pieces = store_.SplitAndRewrite(index_p, std::move(edges), target);
      if (pieces > 1) {
        metrics_.Add(c_partition_splits_, pieces - 1);
        RemapProgressAfterSplit(index_p, pieces, pair, lo, hi);
      }
      return;
    }
    store_.Rewrite(index_p, edges);
  };

  // Write the higher-indexed partition first so index pi stays valid if pj
  // splits.
  if (pi != pj) {
    writeback(pj, changed_j);
  }
  writeback(pi, changed_i || (pi == pj && changed_j));

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
