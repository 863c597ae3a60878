// Crash-safe checkpoint manifests for the out-of-core fixpoint (DESIGN.md
// §11).
//
// A manifest is one small, versioned, checksummed file
// (<work_dir>/checkpoint.manifest) that pins everything the engine needs to
// re-enter Run() as if the process had never died:
//
//   * the partition table, including each file's on-disk byte size at
//     publish time — the "generation number" recovery truncates back to,
//     dropping any bytes appended after the manifest;
//   * the pair-scheduling progress (pair_done_: per processed partition
//     pair, the edge-prefix counts whose joins are done);
//   * the global unique-edge dedup state (content hashes + per-triple
//     variant counts), so a resumed run re-derives exactly the edges the
//     dead run had not yet derived — and records no duplicate provenance;
//   * the provenance-log high-water mark (bytes, records), truncated to on
//     recovery;
//   * a fingerprint of the base edge set, so a manifest left behind by a
//     different program or configuration is rejected instead of resumed.
//
// Publish protocol: encode → write <manifest>.tmp → fsync → rename. The
// rename is the commit point; a crash on either side leaves the previous
// manifest (or none) intact. Partition data itself is deliberately NOT
// fsynced: the threat model is process death (kill -9, OOM), where the
// page cache survives, not power loss.
#ifndef GRAPPLE_SRC_GRAPH_CHECKPOINT_H_
#define GRAPPLE_SRC_GRAPH_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/graph/edge.h"

namespace grapple {

// v3: pair progress is kept as edge-prefix counts and the partition table
// has no segment maps. An older manifest (v2 keyed pair progress by
// partition versions; v1 could name raw record files) is refused as version
// skew and the run starts fresh.
inline constexpr uint32_t kCheckpointFormatVersion = 3;

// Snapshot of one PartitionInfo plus the on-disk size recovery truncates
// the file back to. `file` is the basename; the work dir is implicit so a
// work dir can be relocated between runs.
struct CheckpointPartition {
  VertexId lo = 0;
  VertexId hi = 0;
  std::string file;
  uint64_t bytes = 0;  // LayoutChargeBytes charge (layout decisions)
  uint64_t edges = 0;
  uint64_t version = 0;
  uint64_t disk_bytes = 0;  // actual file size at publish time
};

struct CheckpointManifest {
  uint64_t num_vertices = 0;
  // FNV-1a over the expanded base edge set; guards against resuming state
  // from a different program / grammar / oracle configuration.
  uint64_t base_fingerprint = 0;
  uint64_t base_edges = 0;
  uint64_t file_counter = 0;
  std::vector<CheckpointPartition> partitions;
  // (i, j) -> (n_i, n_j), flattened from the engine's map: every join
  // among the first n_i edges of partition i and the first n_j of j is done.
  struct PairDone {
    uint64_t i = 0;
    uint64_t j = 0;
    uint64_t ni = 0;
    uint64_t nj = 0;
  };
  std::vector<PairDone> pair_done;
  std::vector<uint64_t> dedup_hashes;  // sorted ascending
  // (triple hash, variant count), sorted by hash.
  std::vector<std::pair<uint64_t, uint32_t>> variants;
  bool has_provenance = false;
  uint64_t provenance_bytes = 0;
  uint64_t provenance_records = 0;
};

std::string CheckpointManifestPath(const std::string& work_dir);

void EncodeCheckpointManifest(const CheckpointManifest& manifest, std::vector<uint8_t>* out);

// Strict decode: any truncation, checksum mismatch, bad magic, or format
// version skew fails with a description — the caller falls back to a clean
// restart, never to partially restored state.
bool DecodeCheckpointManifest(const std::vector<uint8_t>& bytes, CheckpointManifest* manifest,
                              std::string* error);

// Atomically publishes the manifest (temp + fsync + rename), passing the
// ckpt_temp_written / ckpt_published crash points. `bytes_out` (optional)
// receives the encoded size. Returns false + error on I/O failure.
bool SaveCheckpointManifest(const std::string& work_dir, const CheckpointManifest& manifest,
                            uint64_t* bytes_out, std::string* error);

// Returns false when the manifest is missing (empty *error) or invalid
// (*error describes why). Never returns partially filled state.
bool LoadCheckpointManifest(const std::string& work_dir, CheckpointManifest* manifest,
                            std::string* error);

}  // namespace grapple

#endif  // GRAPPLE_SRC_GRAPH_CHECKPOINT_H_
