// Derivation provenance for induced edges (bug-witness support).
//
// The graph engine's transitive closure induces edges by joining two parent
// edges against a grammar production. When witness recording is enabled,
// every *new* edge (one record per unique content hash) appends a compact
// derivation record to an out-of-core log that lives alongside the engine's
// partition files: memory stays bounded during the run, and the full
// derivation DAG is only materialized at decode time — which happens per
// reported bug, not per edge.
//
// Record kinds:
//   * base    — an edge fed into the engine before the closure (leaf);
//   * join    — induced by a binary production from parents (a, b);
//   * rewrite — derived from a single parent by a unary production or a
//               mirror label.
//
// Edges are identified by their 64-bit content hash (src, dst, label,
// payload) — the same hash the engine's global dedup index uses, so exactly
// one record exists per materialized edge and parent references are stable.
// Records inline the child's payload (the interval path encoding) plus both
// parents' (src, dst, label) identities, so a decoder can walk the chain
// backwards and recover the per-step path constraints without re-reading
// partitions.
//
// This layer is deliberately typeless about the graph: vertices are raw
// uint32s and labels raw uint16s, so src/obs keeps depending only on
// src/support.
#ifndef GRAPPLE_SRC_OBS_PROVENANCE_H_
#define GRAPPLE_SRC_OBS_PROVENANCE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/obs/metrics.h"

namespace grapple {
namespace obs {

// How much derivation provenance a run records (the facade maps modes onto
// phases).
enum class WitnessMode : uint8_t {
  kOff = 0,   // record nothing; bug reports carry no witnesses
  kBugs = 1,  // record during bug-finding (typestate) phases only [default]
  kFull = 2,  // as kBugs, and replay each witness step
};

const char* WitnessModeName(WitnessMode mode);
// Parses "off" (also "0", "none"), "bugs", or "full". False on anything
// else, leaving *out untouched.
bool ParseWitnessMode(const std::string& text, WitnessMode* out);

enum class ProvKind : uint8_t {
  kBase = 0,
  kJoin = 1,
  kRewrite = 2,
};

// Raw edge identity as the provenance layer sees it.
struct ProvEdge {
  uint32_t src = 0;
  uint32_t dst = 0;
  uint16_t label = 0;
};

struct ProvRecord {
  ProvKind kind = ProvKind::kBase;
  bool widened = false;  // payload was replaced by the always-true payload
  uint64_t hash = 0;     // content hash of the recorded edge
  ProvEdge edge;
  std::vector<uint8_t> payload;  // the edge's (possibly widened) payload
  // kJoin: both parents; kRewrite: parent_a only.
  uint64_t parent_a = 0;
  uint64_t parent_b = 0;
  ProvEdge a_edge;
  ProvEdge b_edge;
};

// Append-only, buffered writer for one engine run's provenance log. Not
// thread-safe: the engine only records from its sequential integration and
// finalize paths. Counters ("provenance_records_total", "provenance_bytes")
// register in `metrics` when provided.
class ProvenanceWriter {
 public:
  ProvenanceWriter(std::string path, MetricsRegistry* metrics);
  ~ProvenanceWriter();  // flushes

  const std::string& path() const { return path_; }

  void RecordBase(uint64_t hash, const ProvEdge& edge, const uint8_t* payload, size_t len);
  void RecordJoin(uint64_t hash, const ProvEdge& edge, const uint8_t* payload, size_t len,
                  uint64_t parent_a, const ProvEdge& a_edge, uint64_t parent_b,
                  const ProvEdge& b_edge, bool widened);
  void RecordRewrite(uint64_t hash, const ProvEdge& edge, const uint8_t* payload, size_t len,
                     uint64_t parent, const ProvEdge& parent_edge);

  // Appends the buffered tail to the log file. Returns false on I/O failure
  // (also logged; recording continues best-effort).
  bool Flush();

  // Checkpoint-resume support: declares that `bytes`/`records` of log are
  // already on disk (the caller truncated the file to that high-water mark),
  // so subsequent flushes append after them instead of truncating. Must be
  // called before the first Record*.
  void ResumeAt(uint64_t bytes, uint64_t records);

  uint64_t records_written() const { return records_; }
  uint64_t bytes_written() const { return bytes_; }

 private:
  void Put(ProvKind kind, uint64_t hash, const ProvEdge& edge, const uint8_t* payload,
           size_t len, uint64_t parent_a, const ProvEdge& a_edge, uint64_t parent_b,
           const ProvEdge& b_edge, bool widened);

  std::string path_;
  MetricsRegistry* metrics_;
  MetricId c_records_ = kInvalidMetric;
  MetricId c_bytes_ = kInvalidMetric;
  std::vector<uint8_t> buffer_;
  uint64_t records_ = 0;
  uint64_t bytes_ = 0;
  bool file_started_ = false;
};

// Loads a provenance log and indexes it by edge hash. Built at decode time
// (per phase with reported bugs), not during the run.
class ProvenanceReader {
 public:
  // Returns false when the file is missing or corrupt past the first
  // readable prefix (records read so far are kept).
  bool Open(const std::string& path);

  const ProvRecord* Lookup(uint64_t hash) const;
  size_t NumRecords() const { return records_.size(); }
  uint64_t FileBytes() const { return file_bytes_; }

 private:
  std::unordered_map<uint64_t, ProvRecord> records_;
  uint64_t file_bytes_ = 0;
};

}  // namespace obs
}  // namespace grapple

#endif  // GRAPPLE_SRC_OBS_PROVENANCE_H_
