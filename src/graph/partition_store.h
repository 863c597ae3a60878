// On-disk edge partitions (§4.3, "Graph Engine").
//
// The vertex space is split into logical intervals; a partition holds every
// edge whose source vertex falls in its interval, as one append-friendly
// binary file under the engine's work directory. New edges destined for a
// partition that is not loaded are appended as deltas; rewriting a partition
// compacts base + deltas. Oversized partitions are split ("repartitioning")
// so that any two partitions still fit the memory budget together.
//
// Every file is written in one format (the block codec,
// src/graph/partition_codec.h) by one routine, WriteOrQueue. Whether that
// routine runs inline or in the background is the store's only mode, and it
// is fixed by whether the constructor got a TaskRuntime:
//
//  * No runtime: each write encodes and hits the file system on the
//    caller's thread, charged to the "io" phase; a failure throws IoError
//    at the call. No cache, no read-ahead.
//  * With a runtime (see DESIGN.md, "Pipelined partition I/O"): every disk
//    operation runs as a task on the runtime's per-file serial strand
//    (SubmitSerial keyed by path, DESIGN.md §14). Rewrite/Append/
//    SplitAndRewrite hand their edges to a write-behind task; Hint() queues
//    prefetch-lane read-ahead into a budget-bounded cache, the same cache
//    that retains just-written partition images (write-back), so a Load of
//    recently written or hinted data never touches disk. A cold miss waits
//    out the file's own strand (a no-op when it is idle) and reads in the
//    foreground. Per-file order is submission order, so a queued read
//    always observes every earlier queued write to the same file; different
//    files proceed in parallel.
//
// Both modes write byte-identical files. Metadata (bytes/edges/version) is
// updated on the caller's thread at the call, charged by LayoutChargeBytes,
// and is never touched by background tasks.
//
// Edge order is part of the contract: a partition's file lists its edges in
// the order they were written, Append adds at the end, and the engine
// rewrites a partition as its loaded edges followed by the new ones. So the
// first n edges of a partition stay its first n edges, and the engine keeps
// pair progress as edge-prefix counts (engine.h). SplitAndRewrite keeps the
// caller's order inside each piece for the same reason.
#ifndef GRAPPLE_SRC_GRAPH_PARTITION_STORE_H_
#define GRAPPLE_SRC_GRAPH_PARTITION_STORE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/graph/checkpoint.h"
#include "src/graph/edge.h"
#include "src/obs/metrics.h"
#include "src/obs/statusz.h"
#include "src/support/task_runtime.h"

namespace grapple {

struct PartitionInfo {
  VertexId lo = 0;  // interval [lo, hi)
  VertexId hi = 0;
  std::string path;
  uint64_t bytes = 0;
  uint64_t edges = 0;
  uint64_t version = 0;  // bumped on every write/append (cache validity)
};

class PartitionStore {
 public:
  // `dir` must exist; `metrics` (optional) receives io_* counters (bytes
  // and operation counts) and "phase_io_ns" (foreground blocking time only —
  // background worker time is deliberately excluded). `runtime` (optional,
  // non-owning, must outlive the store) runs the store's I/O in the
  // background; null runs it inline. `budget_bytes` is the engine's memory
  // budget: the cache is sized at budget/4, one partition-target's worth of
  // read-ahead.
  explicit PartitionStore(std::string dir, obs::MetricsRegistry* metrics = nullptr,
                          TaskRuntime* runtime = nullptr,
                          uint64_t budget_bytes = uint64_t{64} << 20);
  ~PartitionStore();

  // Creates the initial layout from base edges, targeting `target_bytes`
  // per partition. Consumes `edges`.
  void Initialize(std::vector<EdgeRecord> edges, VertexId num_vertices, uint64_t target_bytes);

  size_t NumPartitions() const { return partitions_.size(); }
  const PartitionInfo& Info(size_t index) const { return partitions_[index]; }
  VertexId num_vertices() const { return num_vertices_; }
  bool pipeline_enabled() const { return runtime_ != nullptr; }

  // Where the engine's derivation-provenance log lives: next to the
  // partition files, so one work dir holds a run's full on-disk state.
  std::string ProvenancePath() const { return dir_ + "/provenance.bin"; }

  // Index of the partition owning vertex `v`.
  size_t PartitionOf(VertexId v) const;

  // Reads a partition (base file including appended deltas). In pipelined
  // mode the cache is consulted first; a miss waits out the file's own
  // strand (so pending writes and reads of it land) and reads in the
  // foreground.
  std::vector<EdgeRecord> Load(size_t index);

  // Rewrites a partition's file with exactly `edges`.
  void Rewrite(size_t index, const std::vector<EdgeRecord>& edges);

  // Appends delta edges (already owned by this partition).
  void Append(size_t index, const std::vector<EdgeRecord>& edges);

  // Replaces partition `index` with >= 2 partitions of roughly
  // `target_bytes` each, redistributing `edges` (which must all belong to
  // the partition's interval). Piece intervals are cut from the edges'
  // (source, charge) sizes; each edge then moves into its piece in the
  // caller's order. No-op (plain rewrite) when the interval has a single
  // vertex or the data fits. Returns the number of partitions the interval
  // now spans (at indices index..index+n-1).
  size_t SplitAndRewrite(size_t index, std::vector<EdgeRecord> edges, uint64_t target_bytes);

  // Read-ahead hint: the engine expects to Load these partitions soon.
  // Queues prefetch-lane reads (behind each file's pending writes, so they
  // see current data) into the cache, as capacity allows. No-op when
  // pipelining is off.
  void Hint(const std::vector<size_t>& next_indices);

  // Barrier: blocks until every queued write/read has hit the filesystem
  // or the cache. Cheap when the queue is empty. No-op when pipelining is
  // off. Counted as foreground "io" time. Throws IoError if any background
  // write failed since the last barrier (see also Load).
  void Sync();

  // --- checkpoint / recovery support (DESIGN.md §11) ---

  // Must be called before Initialize()/RestoreFromCheckpoint(). In
  // checkpoint mode, Rewrite and SplitAndRewrite never mutate or delete a
  // file the last published manifest references (see
  // MarkCheckpointPublished): such files are replaced by fresh generations
  // and retired, deleted only by CollectGarbage() once the next manifest —
  // which no longer references them — has been published. Files no
  // manifest points at are rewritten in place: a crash can only corrupt
  // state recovery never reads (restore deletes unreferenced strays), and
  // skipping the generation churn keeps checkpoint-mode rewrites at
  // non-checkpoint cost between manifests.
  void SetCheckpointMode(bool enabled) { checkpoint_mode_ = enabled; }

  // Pins the current partition files as "referenced by a published
  // manifest". The engine calls this right after a manifest naming exactly
  // these files lands on disk (no mutations happen between the snapshot
  // and the publish). RestoreFromCheckpoint pins the restored files for
  // the same reason: the manifest that described them is still live.
  void MarkCheckpointPublished();

  uint64_t file_counter() const { return file_counter_; }

  // Captures the current layout for a manifest, including each file's
  // on-disk size (the truncation point for recovery). Caller must Sync()
  // first so the sizes are final.
  std::vector<CheckpointPartition> SnapshotForCheckpoint() const;

  // Rebuilds the layout from a manifest: truncates every referenced file
  // back to its recorded size (dropping bytes a crashed run appended past
  // the manifest), deletes unreferenced part-*.edges strays, and restores
  // the counters. On failure (referenced file missing or shorter than
  // recorded) the store is left empty and *error describes the problem —
  // the caller falls back to a clean start.
  bool RestoreFromCheckpoint(const std::vector<CheckpointPartition>& partitions,
                             uint64_t file_counter, VertexId num_vertices, std::string* error);

  // Deletes files retired since the last call. Only valid right after a
  // Sync() + manifest publish: retired paths must have no queued writes,
  // and must no longer be referenced by the on-disk manifest.
  void CollectGarbage();

  // Removes all engine-owned state from the work dir (partition files,
  // manifest + temp, provenance log) so a fresh run cannot be confused by
  // a dead run's leftovers. The fresh-start path when no usable manifest
  // exists.
  void CleanWorkDirForFreshStart();

  uint64_t TotalBytes() const;
  uint64_t TotalEdges() const;

 private:
  // A cached partition image, keyed by file path. Two origins: write-back
  // (Rewrite/Initialize/Split install the just-written content, sharing the
  // vector with the queued encode+write — no copy) and prefetch (Hint
  // queues a read; the worker fills `edges` and flips `ready`). The
  // foreground invalidates entries whose source file is mutated or
  // replaced; the shared_ptr keeps a vector alive for an in-flight encode
  // even after its entry is gone.
  struct CacheEntry {
    uint64_t version = 0;        // partition version captured at insert
    uint64_t charge = 0;         // bytes charged against the cache budget
    bool ready = false;          // content present (always true: write-back)
    bool failed = false;         // prefetch read/decode failed; Load falls back
    bool from_prefetch = false;  // attributes hits/waste to the right counter
    uint64_t hits = 0;
    std::shared_ptr<const std::vector<EdgeRecord>> edges;
  };

  std::string FileFor(VertexId lo) const;
  // Encodes `edges` as one block and writes it to the file (`rewrite`
  // truncates and writes the file header first, else appends). Inline with
  // no runtime, throwing IoError on failure; else queued on the file's
  // strand in the write-behind lane, a failure surfacing at the next
  // Sync()/Load(). Returns the LayoutChargeBytes charge either way.
  // `content` (optional) receives shared ownership of the written edges,
  // for the caller to install as a write-back cache entry once it knows the
  // new partition version.
  uint64_t WriteOrQueue(const std::string& path, std::vector<EdgeRecord> edges, bool rewrite,
                        std::shared_ptr<const std::vector<EdgeRecord>>* content = nullptr);
  void WriteEdges(const std::string& path, std::vector<EdgeRecord> edges, uint64_t* bytes,
                  std::shared_ptr<const std::vector<EdgeRecord>>* content = nullptr);
  // Installs a ready write-back entry for `path` at `version`, if the cache
  // has room. No-op without a runtime or when `content` is null.
  void CachePut(const std::string& path, uint64_t version, uint64_t charge,
                std::shared_ptr<const std::vector<EdgeRecord>> content);
  // Runs `fn` for `path`: inline under the foreground "io" phase when there
  // is no runtime, else queued on `path`'s serial strand in `lane`,
  // maintaining the queue-depth gauge and the per-path pending-op count
  // Sync() drains. The queued body re-installs the submitting thread's
  // checker context plus an "io" profiler phase so samples taken on a
  // shared worker attribute to the right (checker, io) bucket.
  void RunOrQueue(const std::string& path, TaskLane lane, std::function<void()> fn);
  // Blocks until `path`'s strand is empty (no-op when it already is).
  // Blocked time is bracketed as kWaitIoQueue — the Load() wait.
  void WaitForPath(const std::string& path);
  // Waits out every path with queued work (bracketed as kWaitIoBarrier).
  // The Sync()/destructor drain.
  void DrainAll();
  // Drops the cache entry for `path` (if any), counting it as wasted when
  // it was never consumed. Caller holds no locks.
  void InvalidateCache(const std::string& path);
  // Decodes partition bytes, throwing IoError with the decoded diagnostic
  // on corruption.
  std::vector<EdgeRecord> DecodeOrThrow(const std::string& path,
                                        const std::vector<uint8_t>& bytes,
                                        uint64_t edges_hint) const;
  uint64_t CacheCapacity() const;
  // Records the first background write failure; surfaced by Sync()/Load().
  void RecordIoError(const std::string& message);
  // Throws IoError carrying the first recorded background failure, if any.
  void ThrowIfIoError();

  std::string dir_;
  obs::MetricsRegistry* metrics_;
  obs::MetricId c_phase_io_ns_ = obs::kInvalidMetric;
  obs::MetricId c_bytes_read_ = obs::kInvalidMetric;
  obs::MetricId c_bytes_written_ = obs::kInvalidMetric;
  obs::MetricId c_loads_ = obs::kInvalidMetric;
  obs::MetricId c_writes_ = obs::kInvalidMetric;
  obs::MetricId c_appends_ = obs::kInvalidMetric;
  obs::MetricId c_splits_ = obs::kInvalidMetric;
  obs::MetricId c_prefetch_hits_ = obs::kInvalidMetric;
  obs::MetricId c_write_cache_hits_ = obs::kInvalidMetric;
  obs::MetricId c_prefetch_wasted_ = obs::kInvalidMetric;
  obs::MetricId c_prefetch_issued_ = obs::kInvalidMetric;
  // Strand executor (non-owning). Null means inline I/O.
  TaskRuntime* const runtime_;
  const uint64_t budget_bytes_;
  VertexId num_vertices_ = 0;
  std::vector<PartitionInfo> partitions_;  // sorted by lo, contiguous
  uint64_t file_counter_ = 0;
  bool checkpoint_mode_ = false;
  // Paths replaced while in checkpoint mode, awaiting CollectGarbage().
  std::vector<std::string> retired_;
  // Paths the last published manifest references (foreground-only, like
  // all partition metadata). Only these need copy-on-write rewrites.
  std::unordered_set<std::string> pinned_;
  // First background-write failure message, surfaced at the next barrier
  // instead of being dropped on the worker thread. Guarded by its mutex
  // (the worker writes, the foreground reads).
  std::mutex io_error_mutex_;
  std::string io_error_;

  // --- pipelined-mode state. `cache_mutex_` guards `cache_` and
  // `pending_ops_`; everything else below is foreground-only. The
  // destructor drains every strand (DrainAll) while the rest of the store is
  // alive.
  std::mutex cache_mutex_;
  std::unordered_map<std::string, CacheEntry> cache_;
  // Count of queued-but-unfinished tasks of any kind (write, prefetch read,
  // deferred delete) per file: the work list Sync() and the destructor
  // drain.
  std::unordered_map<std::string, uint64_t> pending_ops_;
  uint64_t cache_bytes_ = 0;  // foreground-only: sum of charges
  std::atomic<int64_t> queue_depth_{0};
  // Mirror of cache_bytes_ for the /statusz scrape thread: cache_bytes_
  // itself is foreground-only, so scrapes read this relaxed copy instead.
  std::atomic<uint64_t> live_cache_bytes_{0};
  // Introspection registrations. Declared after the atomics they read, so
  // they unregister first in reverse destruction order.
  obs::Introspection::Handle introspect_queue_depth_;
  obs::Introspection::Handle introspect_cache_bytes_;
};

}  // namespace grapple

#endif  // GRAPPLE_SRC_GRAPH_PARTITION_STORE_H_
