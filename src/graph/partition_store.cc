#include "src/graph/partition_store.h"

#include <algorithm>
#include <filesystem>
#include <unordered_set>
#include <utility>

#include "src/graph/partition_codec.h"
#include "src/obs/profiler.h"
#include "src/support/byte_io.h"
#include "src/support/event_hook.h"
#include "src/support/logging.h"

namespace grapple {

namespace {

// Floor for the prefetch cache so tiny budgets still allow one read-ahead.
constexpr uint64_t kMinCacheBytes = uint64_t{1} << 20;

}  // namespace

PartitionStore::PartitionStore(std::string dir, obs::MetricsRegistry* metrics,
                               TaskRuntime* runtime, uint64_t budget_bytes)
    : dir_(std::move(dir)), metrics_(metrics), runtime_(runtime), budget_bytes_(budget_bytes) {
  if (metrics_ != nullptr) {
    c_phase_io_ns_ = metrics_->Counter("phase_io_ns");
    c_bytes_read_ = metrics_->Counter("io_bytes_read");
    c_bytes_written_ = metrics_->Counter("io_bytes_written");
    c_loads_ = metrics_->Counter("io_partition_loads_total");
    c_writes_ = metrics_->Counter("io_partition_writes_total");
    c_appends_ = metrics_->Counter("io_partition_appends_total");
    c_splits_ = metrics_->Counter("io_partition_splits_total");
    c_prefetch_hits_ = metrics_->Counter("io_prefetch_hits_total");
    c_write_cache_hits_ = metrics_->Counter("io_write_cache_hits_total");
    c_prefetch_wasted_ = metrics_->Counter("io_prefetch_wasted_total");
    c_prefetch_issued_ = metrics_->Counter("io_prefetch_issued_total");
  }
  introspect_queue_depth_ = obs::Introspection::RegisterGaugeSource(
      "io_queue_depth", [this] { return static_cast<double>(queue_depth_.load(std::memory_order_relaxed)); });
  introspect_cache_bytes_ = obs::Introspection::RegisterGaugeSource(
      "write_cache_bytes",
      [this] { return static_cast<double>(live_cache_bytes_.load(std::memory_order_relaxed)); });
}

PartitionStore::~PartitionStore() {
  // Drain write-behind so the on-disk state is complete before the store is
  // torn down. The shared runtime outlives the store, so queued tasks that
  // capture `this` must finish here, not in the runtime's destructor.
  DrainAll();
}

std::string PartitionStore::FileFor(VertexId lo) const {
  return dir_ + "/part-" + std::to_string(lo) + "-" + std::to_string(file_counter_) + ".edges";
}

uint64_t PartitionStore::CacheCapacity() const {
  return std::max(budget_bytes_ / 4, kMinCacheBytes);
}

void PartitionStore::RunOrQueue(const std::string& path, TaskLane lane,
                                std::function<void()> fn) {
  if (runtime_ == nullptr) {
    // Inline I/O blocks the caller, so it is charged to the foreground "io"
    // phase. A queued task is only queue bookkeeping here (plus the wake of
    // a parked worker) and stays in whatever phase the caller is in.
    obs::ProfPhase phase("io", metrics_, c_phase_io_ns_);
    fn();
    return;
  }
  int64_t depth = queue_depth_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (metrics_ != nullptr) {
    metrics_->MaxGauge("io_queue_depth_peak", static_cast<double>(depth));
  }
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    ++pending_ops_[path];
  }
  // Capture the submitting thread's checker so samples taken while this
  // task runs on a shared worker still attribute to the checker whose
  // mutation queued the I/O.
  uint32_t checker = obs::ProfCurrentChecker();
  runtime_->SubmitSerial(path, lane, [this, path, checker, fn = std::move(fn)] {
    obs::ProfChecker prof_checker(checker);
    obs::ProfPhase prof_phase("io");
    fn();
    queue_depth_.fetch_sub(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(cache_mutex_);
    auto it = pending_ops_.find(path);
    if (it != pending_ops_.end() && --it->second == 0) {
      pending_ops_.erase(it);
    }
  });
}

void PartitionStore::WaitForPath(const std::string& path) {
  runtime_->WaitSerial(path, evt::kWaitIoQueue);
}

void PartitionStore::DrainAll() {
  if (runtime_ == nullptr) {
    return;
  }
  // Strands retire their own pending_ops_ entry, so waiting out whichever
  // path is first until the map empties visits every strand exactly once
  // (new work is only ever queued by the foreground thread — this one).
  while (true) {
    std::string path;
    {
      std::lock_guard<std::mutex> lock(cache_mutex_);
      if (pending_ops_.empty()) {
        return;
      }
      path = pending_ops_.begin()->first;
    }
    runtime_->WaitSerial(path, evt::kWaitIoBarrier);
  }
}

void PartitionStore::Sync() {
  if (runtime_ != nullptr) {
    obs::ProfPhase phase("io", metrics_, c_phase_io_ns_);
    DrainAll();
  }
  ThrowIfIoError();
}

void PartitionStore::RecordIoError(const std::string& message) {
  std::lock_guard<std::mutex> lock(io_error_mutex_);
  if (io_error_.empty()) {
    io_error_ = message;
  }
  GRAPPLE_LOG(ERROR) << message;
}

void PartitionStore::ThrowIfIoError() {
  std::string message;
  {
    std::lock_guard<std::mutex> lock(io_error_mutex_);
    message = io_error_;
  }
  if (!message.empty()) {
    throw IoError(message);
  }
}

void PartitionStore::InvalidateCache(const std::string& path) {
  if (runtime_ == nullptr) {
    return;
  }
  std::lock_guard<std::mutex> lock(cache_mutex_);
  auto it = cache_.find(path);
  if (it == cache_.end()) {
    return;
  }
  // Only a hint-initiated read that was never consumed counts as wasted
  // prefetch work; write-back entries cost nothing extra to install.
  if (it->second.from_prefetch && it->second.hits == 0) {
    if (metrics_ != nullptr) {
      metrics_->Add(c_prefetch_wasted_);
    }
    evt::Emit(evt::kPrefetchWaste, it->second.charge);
  }
  evt::Emit(evt::kPartitionEvict, it->second.charge);
  cache_bytes_ -= it->second.charge;
  live_cache_bytes_.store(cache_bytes_, std::memory_order_relaxed);
  cache_.erase(it);
}

void PartitionStore::CachePut(const std::string& path, uint64_t version, uint64_t charge,
                              std::shared_ptr<const std::vector<EdgeRecord>> content) {
  if (runtime_ == nullptr || content == nullptr) {
    return;
  }
  charge = std::max<uint64_t>(charge, 1);
  if (cache_bytes_ + charge > CacheCapacity()) {
    return;  // no room: the partition stays disk-only until hinted
  }
  std::lock_guard<std::mutex> lock(cache_mutex_);
  // The caller invalidated any previous entry for this path, so this insert
  // is fresh.
  CacheEntry& entry = cache_[path];
  entry.version = version;
  entry.charge = charge;
  entry.ready = true;
  entry.failed = false;
  entry.from_prefetch = false;
  entry.hits = 0;
  entry.edges = std::move(content);
  cache_bytes_ += charge;
  live_cache_bytes_.store(cache_bytes_, std::memory_order_relaxed);
}

std::vector<EdgeRecord> PartitionStore::DecodeOrThrow(const std::string& path,
                                                      const std::vector<uint8_t>& bytes,
                                                      uint64_t edges_hint) const {
  std::vector<EdgeRecord> edges;
  edges.reserve(edges_hint);
  PartitionDecodeStatus status = DecodePartitionBytes(path, bytes, &edges);
  if (!status.ok) {
    throw IoError("partition file corrupt: " + status.error);
  }
  return edges;
}

uint64_t PartitionStore::WriteOrQueue(const std::string& path, std::vector<EdgeRecord> edges,
                                      bool rewrite,
                                      std::shared_ptr<const std::vector<EdgeRecord>>* content) {
  // Queued, the caller only pays for handing the edges over; the block
  // encode and the file write both run on the file's strand. Ownership is
  // shared between the task and the caller's write-back cache entry, so no
  // copy is made on either side.
  uint64_t charge = LayoutChargeBytes(edges);
  auto shared = std::make_shared<const std::vector<EdgeRecord>>(std::move(edges));
  if (content != nullptr) {
    *content = shared;
  }
  RunOrQueue(path, TaskLane::kWriteBehind, [this, path, rewrite, edges = std::move(shared)] {
    std::vector<uint8_t> buffer;
    if (rewrite) {
      AppendBlockFileHeader(&buffer);
    }
    AppendEdgeBlock(*edges, &buffer);
    if (metrics_ != nullptr) {
      // Thread-sharded counters; safe off the foreground thread.
      metrics_->Add(c_bytes_written_, buffer.size());
    }
    std::string error;
    bool ok = rewrite ? WriteFileBytes(path, buffer, &error) : AppendFileBytes(path, buffer, &error);
    if (ok) {
      return;
    }
    std::string message =
        "partition " + std::string(rewrite ? "write" : "append") + " failed: " + error;
    if (runtime_ == nullptr) {
      throw IoError(message);
    }
    // Worker thread: aborting here would take down the whole process for
    // one checker's disk problem, and silently dropping the failure would
    // let the run "complete" against missing bytes. Record it; the next
    // foreground barrier (Sync/Load) rethrows it on the engine's thread.
    RecordIoError("background " + message);
  });
  return charge;
}

void PartitionStore::WriteEdges(const std::string& path, std::vector<EdgeRecord> edges,
                                uint64_t* bytes,
                                std::shared_ptr<const std::vector<EdgeRecord>>* content) {
  *bytes = WriteOrQueue(path, std::move(edges), /*rewrite=*/true, content);
  if (metrics_ != nullptr) {
    metrics_->Add(c_writes_);
  }
}

void PartitionStore::Initialize(std::vector<EdgeRecord> edges, VertexId num_vertices,
                                uint64_t target_bytes) {
  num_vertices_ = num_vertices;
  partitions_.clear();
  std::sort(edges.begin(), edges.end(), [](const EdgeRecord& a, const EdgeRecord& b) {
    if (a.src != b.src) {
      return a.src < b.src;
    }
    return a.dst < b.dst;
  });

  // Greedy fill: cut a partition when its serialized size would exceed the
  // target (never splitting one source vertex across partitions).
  size_t begin = 0;
  VertexId interval_lo = 0;
  while (begin < edges.size() || interval_lo < num_vertices || partitions_.empty()) {
    uint64_t size_estimate = 0;
    size_t end = begin;
    VertexId last_src = interval_lo;
    while (end < edges.size()) {
      uint64_t edge_size = 16 + edges[end].payload.size();
      if (end > begin && size_estimate + edge_size > target_bytes &&
          edges[end].src != last_src) {
        break;
      }
      size_estimate += edge_size;
      last_src = edges[end].src;
      ++end;
    }
    PartitionInfo info;
    info.lo = interval_lo;
    info.hi = (end == edges.size()) ? num_vertices : edges[end].src;
    if (info.hi <= info.lo) {
      info.hi = info.lo + 1;
    }
    ++file_counter_;
    info.path = FileFor(info.lo);
    std::vector<EdgeRecord> chunk(edges.begin() + static_cast<ptrdiff_t>(begin),
                                  edges.begin() + static_cast<ptrdiff_t>(end));
    info.edges = chunk.size();
    std::shared_ptr<const std::vector<EdgeRecord>> content;
    WriteEdges(info.path, std::move(chunk), &info.bytes, &content);
    info.version = 1;
    info.segments = {{1, info.edges}};
    CachePut(info.path, info.version, info.bytes, std::move(content));
    partitions_.push_back(std::move(info));
    begin = end;
    interval_lo = partitions_.back().hi;
    if (begin >= edges.size() && interval_lo >= num_vertices) {
      break;
    }
  }
  // Make the final partition cover the tail of the vertex space.
  if (!partitions_.empty()) {
    partitions_.back().hi = std::max(partitions_.back().hi, num_vertices);
  }
}

size_t PartitionStore::PartitionOf(VertexId v) const {
  // Binary search over sorted, contiguous intervals.
  size_t lo = 0;
  size_t hi = partitions_.size();
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (v < partitions_[mid].lo) {
      hi = mid;
    } else if (v >= partitions_[mid].hi) {
      lo = mid + 1;
    } else {
      return mid;
    }
  }
  GRAPPLE_LOG(FATAL) << "vertex " << v << " outside partitioned space";
  return 0;
}

void PartitionStore::Hint(const std::vector<size_t>& next_indices) {
  if (runtime_ == nullptr) {
    return;
  }
  for (size_t index : next_indices) {
    if (index >= partitions_.size()) {
      continue;
    }
    const PartitionInfo& info = partitions_[index];
    uint64_t need = std::max<uint64_t>(info.bytes, 1);
    {
      std::lock_guard<std::mutex> lock(cache_mutex_);
      auto it = cache_.find(info.path);
      if (it != cache_.end() && it->second.version == info.version) {
        continue;  // already cached or in flight
      }
    }
    if (cache_bytes_ + need > CacheCapacity()) {
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(cache_mutex_);
      CacheEntry& entry = cache_[info.path];
      entry.version = info.version;
      entry.charge = need;
      entry.ready = false;
      entry.failed = false;
      entry.from_prefetch = true;
      entry.hits = 0;
      entry.edges.reset();
      cache_bytes_ += need;
      live_cache_bytes_.store(cache_bytes_, std::memory_order_relaxed);
    }
    if (metrics_ != nullptr) {
      metrics_->Add(c_prefetch_issued_);
    }
    // The read runs on the file's strand, behind every pending write to
    // that file, so it observes the partition exactly as a foreground load
    // would. Prefetch lane: workers serve it after foreground joins but
    // ahead of write-behind backlog.
    RunOrQueue(info.path, TaskLane::kPrefetch,
               [this, path = info.path, version = info.version, edges_hint = info.edges] {
      std::vector<uint8_t> bytes;
      bool read_ok = ReadFileBytes(path, &bytes);
      if (read_ok && metrics_ != nullptr) {
        metrics_->Add(c_bytes_read_, bytes.size());
      }
      std::vector<EdgeRecord> edges;
      edges.reserve(edges_hint);
      bool decode_ok =
          read_ok && DecodePartitionBytes(path, bytes, &edges).ok;
      std::lock_guard<std::mutex> lock(cache_mutex_);
      auto it = cache_.find(path);
      if (it == cache_.end() || it->second.version != version) {
        return;  // invalidated while in flight; drop the result
      }
      it->second.ready = true;
      if (decode_ok) {
        it->second.edges = std::make_shared<const std::vector<EdgeRecord>>(std::move(edges));
      } else {
        // Leave diagnosis to the foreground fallback, which re-reads and
        // fails with the full decode error.
        it->second.failed = true;
      }
    });
  }
}

std::vector<EdgeRecord> PartitionStore::Load(size_t index) {
  obs::ProfPhase phase("io", metrics_, c_phase_io_ns_);
  ThrowIfIoError();
  const PartitionInfo& info = partitions_[index];
  if (runtime_ != nullptr) {
    // The current image, if the cache holds a ready one; the vector is
    // copied out after the lock is released.
    auto ready_image = [&]() -> std::shared_ptr<const std::vector<EdgeRecord>> {
      std::lock_guard<std::mutex> lock(cache_mutex_);
      auto it = cache_.find(info.path);
      if (it == cache_.end() || it->second.version != info.version || !it->second.ready ||
          it->second.failed) {
        return nullptr;
      }
      ++it->second.hits;
      if (metrics_ != nullptr) {
        metrics_->Add(it->second.from_prefetch ? c_prefetch_hits_ : c_write_cache_hits_);
        metrics_->Add(c_loads_);
      }
      if (it->second.from_prefetch) {
        evt::Emit(evt::kPrefetchHit, it->second.charge);
      }
      evt::Emit(evt::kPartitionLoad, index, info.bytes);
      return it->second.edges;  // the entry stays until stale
    };
    if (auto hit = ready_image()) {
      return *hit;
    }
    // Miss: wait out this file's strand (a no-op when it is idle), so its
    // queued writes land and a queued prefetch read finishes instead of
    // being duplicated. Other files' pending work cannot affect what this
    // read returns, and does not delay it either.
    WaitForPath(info.path);
    if (auto hit = ready_image()) {
      return *hit;
    }
    ThrowIfIoError();
  }
  std::vector<uint8_t> bytes;
  std::string error;
  if (!ReadFileBytes(info.path, &bytes, &error)) {
    throw IoError("partition load failed: " + error);
  }
  if (metrics_ != nullptr) {
    metrics_->Add(c_loads_);
    metrics_->Add(c_bytes_read_, bytes.size());
  }
  evt::Emit(evt::kPartitionLoad, index, bytes.size());
  return DecodeOrThrow(info.path, bytes, info.edges);
}

void PartitionStore::Rewrite(size_t index, const std::vector<EdgeRecord>& edges) {
  PartitionInfo& info = partitions_[index];
  InvalidateCache(info.path);
  if (checkpoint_mode_ && pinned_.count(info.path) > 0) {
    // Never overwrite a file the last published manifest references:
    // rewrite into a fresh generation and retire the old file until the
    // next manifest (which references the new path) is published.
    // Unpinned files rewrite in place — a crash can only corrupt state no
    // manifest describes, which recovery deletes unread.
    retired_.push_back(info.path);
    ++file_counter_;
    info.path = FileFor(info.lo);
  }
  std::shared_ptr<const std::vector<EdgeRecord>> content;
  WriteEdges(info.path, edges, &info.bytes, &content);
  info.edges = edges.size();
  ++info.version;
  // Rewrites preserve the prefix order of previously recorded edges (the
  // engine serializes its loaded set in load order), so older segment
  // boundaries stay valid.
  info.segments.emplace_back(info.version, info.edges);
  evt::Emit(evt::kPartitionSpill, index, info.bytes);
  CachePut(info.path, info.version, info.bytes, std::move(content));
}

void PartitionStore::Append(size_t index, const std::vector<EdgeRecord>& edges) {
  if (edges.empty()) {
    return;
  }
  PartitionInfo& info = partitions_[index];
  InvalidateCache(info.path);
  uint64_t bytes = WriteOrQueue(info.path, edges, /*rewrite=*/false);
  if (metrics_ != nullptr) {
    metrics_->Add(c_appends_);
  }
  info.bytes += bytes;
  info.edges += edges.size();
  ++info.version;
  info.segments.emplace_back(info.version, info.edges);
  evt::Emit(evt::kPartitionSpill, index, bytes, /*a0=*/1);
}

size_t PartitionStore::SplitAndRewrite(size_t index, std::vector<EdgeRecord> edges,
                                       uint64_t target_bytes) {
  PartitionInfo original = partitions_[index];
  if (original.hi - original.lo <= 1) {
    Rewrite(index, edges);
    return 1;
  }
  std::sort(edges.begin(), edges.end(), [](const EdgeRecord& a, const EdgeRecord& b) {
    if (a.src != b.src) {
      return a.src < b.src;
    }
    return a.dst < b.dst;
  });

  std::vector<PartitionInfo> pieces;
  std::vector<std::vector<EdgeRecord>> piece_edges;
  size_t begin = 0;
  VertexId interval_lo = original.lo;
  while (interval_lo < original.hi) {
    uint64_t size_estimate = 0;
    size_t end = begin;
    VertexId last_src = interval_lo;
    while (end < edges.size()) {
      uint64_t edge_size = 16 + edges[end].payload.size();
      if (end > begin && size_estimate + edge_size > target_bytes &&
          edges[end].src != last_src && edges[end].src > interval_lo) {
        break;
      }
      size_estimate += edge_size;
      last_src = edges[end].src;
      ++end;
    }
    PartitionInfo info;
    info.lo = interval_lo;
    info.hi = (end == edges.size()) ? original.hi : edges[end].src;
    if (info.hi <= info.lo) {
      info.hi = info.lo + 1;
    }
    info.hi = std::min(info.hi, original.hi);
    pieces.push_back(info);
    piece_edges.emplace_back(edges.begin() + static_cast<ptrdiff_t>(begin),
                             edges.begin() + static_cast<ptrdiff_t>(end));
    begin = end;
    interval_lo = info.hi;
  }
  pieces.back().hi = original.hi;

  if (pieces.size() == 1) {
    Rewrite(index, edges);
    return 1;
  }

  if (metrics_ != nullptr) {
    metrics_->Add(c_splits_);
  }
  evt::Emit(evt::kPartitionSplit, index, pieces.size());
  InvalidateCache(original.path);
  if (checkpoint_mode_ && pinned_.count(original.path) > 0) {
    // Deferred: the last published manifest still references this file.
    retired_.push_back(original.path);
  } else {
    // On the file's own strand when queued, so the removal happens after
    // any pending append to it.
    RunOrQueue(original.path, TaskLane::kWriteBehind,
               [path = original.path] { RemoveFile(path); });
  }
  for (size_t i = 0; i < pieces.size(); ++i) {
    ++file_counter_;
    pieces[i].path = FileFor(pieces[i].lo);
    pieces[i].edges = piece_edges[i].size();
    std::shared_ptr<const std::vector<EdgeRecord>> content;
    WriteEdges(pieces[i].path, std::move(piece_edges[i]), &pieces[i].bytes, &content);
    pieces[i].version = original.version + 1;
    pieces[i].segments = {{pieces[i].version, pieces[i].edges}};
    CachePut(pieces[i].path, pieces[i].version, pieces[i].bytes, std::move(content));
  }
  partitions_.erase(partitions_.begin() + static_cast<ptrdiff_t>(index));
  partitions_.insert(partitions_.begin() + static_cast<ptrdiff_t>(index), pieces.begin(),
                     pieces.end());
  return pieces.size();
}

uint64_t PartitionStore::EdgesAtVersion(size_t index, uint64_t version) const {
  const PartitionInfo& info = partitions_[index];
  uint64_t count = 0;
  for (const auto& [seg_version, seg_count] : info.segments) {
    if (seg_version <= version) {
      count = seg_count;
    } else {
      break;
    }
  }
  return count;
}

std::vector<CheckpointPartition> PartitionStore::SnapshotForCheckpoint() const {
  std::vector<CheckpointPartition> snapshot;
  snapshot.reserve(partitions_.size());
  for (const PartitionInfo& info : partitions_) {
    CheckpointPartition cp;
    cp.lo = info.lo;
    cp.hi = info.hi;
    size_t slash = info.path.rfind('/');
    cp.file = slash == std::string::npos ? info.path : info.path.substr(slash + 1);
    cp.bytes = info.bytes;
    cp.edges = info.edges;
    cp.version = info.version;
    int64_t disk = FileSizeBytes(info.path);
    cp.disk_bytes = disk < 0 ? 0 : static_cast<uint64_t>(disk);
    cp.segments = info.segments;
    snapshot.push_back(std::move(cp));
  }
  return snapshot;
}

bool PartitionStore::RestoreFromCheckpoint(const std::vector<CheckpointPartition>& partitions,
                                           uint64_t file_counter, VertexId num_vertices,
                                           std::string* error) {
  partitions_.clear();
  num_vertices_ = num_vertices;
  file_counter_ = file_counter;
  retired_.clear();
  std::unordered_set<std::string> referenced;
  for (const CheckpointPartition& cp : partitions) {
    std::string path = dir_ + "/" + cp.file;
    int64_t size = FileSizeBytes(path);
    if (size < 0 || static_cast<uint64_t>(size) < cp.disk_bytes) {
      partitions_.clear();
      if (error != nullptr) {
        *error = "checkpointed partition " + path + " is " +
                 (size < 0 ? "missing" : "shorter than the recorded " +
                                             std::to_string(cp.disk_bytes) + " bytes");
      }
      return false;
    }
    // Generation truncation: bytes past the manifest's recorded size were
    // written by the dead run after the manifest published; drop them so
    // the file is exactly the state the manifest describes.
    if (static_cast<uint64_t>(size) > cp.disk_bytes &&
        !TruncateFile(path, cp.disk_bytes, error)) {
      partitions_.clear();
      return false;
    }
    PartitionInfo info;
    info.lo = cp.lo;
    info.hi = cp.hi;
    info.path = path;
    info.bytes = cp.bytes;
    info.edges = cp.edges;
    info.version = cp.version;
    info.segments = cp.segments;
    partitions_.push_back(std::move(info));
    referenced.insert(cp.file);
  }
  // The manifest that described these files is still the live one on disk;
  // until the next publish supersedes it, they must stay byte-stable.
  MarkCheckpointPublished();
  // Strays: partition files the dead run created after the manifest (new
  // generations, split pieces) or retired files it never got to delete.
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    std::string name = entry.path().filename().string();
    if (name.rfind("part-", 0) == 0 && name.size() > 6 &&
        name.compare(name.size() - 6, 6, ".edges") == 0 && referenced.count(name) == 0) {
      RemoveFile(entry.path().string());
    }
  }
  return true;
}

void PartitionStore::MarkCheckpointPublished() {
  pinned_.clear();
  for (const PartitionInfo& info : partitions_) {
    pinned_.insert(info.path);
  }
}

void PartitionStore::CollectGarbage() {
  for (const std::string& path : retired_) {
    RemoveFile(path);
  }
  retired_.clear();
}

void PartitionStore::CleanWorkDirForFreshStart() {
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    std::string name = entry.path().filename().string();
    bool stale = (name.rfind("part-", 0) == 0 && name.size() > 6 &&
                  name.compare(name.size() - 6, 6, ".edges") == 0) ||
                 name == "checkpoint.manifest" || name == "checkpoint.manifest.tmp" ||
                 name == "provenance.bin";
    if (stale) {
      RemoveFile(entry.path().string());
    }
  }
}

uint64_t PartitionStore::TotalBytes() const {
  uint64_t total = 0;
  for (const auto& info : partitions_) {
    total += info.bytes;
  }
  return total;
}

uint64_t PartitionStore::TotalEdges() const {
  uint64_t total = 0;
  for (const auto& info : partitions_) {
    total += info.edges;
  }
  return total;
}

}  // namespace grapple
