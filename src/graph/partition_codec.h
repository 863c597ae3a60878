// The on-disk format of edge-partition files (format v1). Every partition
// file is written in it, whether the store runs its I/O in the background
// or inline.
//
// A file is a 5-byte header ("GRPB" magic + format version) followed by a
// sequence of self-checking blocks. Every write (initial layout, rewrite,
// append) emits exactly one block:
//
//   varint edge_count               (> 0; empty writes emit no block)
//   varint payload_count            (unique payloads referenced by the block)
//   varint body_len                 (bytes of the body that follows)
//   body:
//     payload table, payload_count entries, each
//       varint shared_prefix_len    (bytes shared with the previous entry)
//       varint suffix_len, suffix bytes
//     edge list, edge_count entries, each
//       zigzag varint src delta     (vs. the previous edge's src; base 0)
//       zigzag varint dst - src
//       varint label
//       varint payload table index
//   fixed64 FNV-1a checksum of the body bytes
//
// Payloads are deduplicated per block (edges routinely share identical path
// encodings — e.g. every widened triple carries the always-true payload) and
// the table is sorted so prefix compression bites on near-identical
// encodings; that is where most of the size reduction comes from. The delta
// varint edge fields shave the fixed per-record overhead on top.
//
// All decode failures — a missing header included — are reported as
// descriptive errors naming the file, the byte offset, and the nature of the
// corruption (truncation, checksum mismatch, implausible structure) instead
// of producing garbage edges.
#ifndef GRAPPLE_SRC_GRAPH_PARTITION_CODEC_H_
#define GRAPPLE_SRC_GRAPH_PARTITION_CODEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/graph/edge.h"

namespace grapple {

inline constexpr uint8_t kBlockFormatVersion = 1;
inline constexpr size_t kBlockFileHeaderSize = 5;  // 4-byte magic + version

// Outcome of decoding a partition file. When !ok, `error` is a full
// diagnostic (path, offset, cause) suitable for a fatal log.
struct PartitionDecodeStatus {
  bool ok = true;
  std::string error;
};

// Appends the block-format file header (magic + version).
void AppendBlockFileHeader(std::vector<uint8_t>* out);

// Encodes `edges` as one block appended to `*out`. No-op for empty input.
void AppendEdgeBlock(const std::vector<EdgeRecord>& edges, std::vector<uint8_t>* out);

// The byte charge partition metadata records for `edges`: per edge, the
// varint lengths of src, dst, label and payload size, plus the payload
// bytes. It is independent of the on-disk encoding, so budgets, splits and
// the partition count do not depend on how well a block compresses.
uint64_t LayoutChargeBytes(const std::vector<EdgeRecord>& edges);

// Decodes a whole partition file, appending to `*edges`. `path` is used
// only for error messages. On failure `*edges` may hold a decoded prefix;
// callers should treat the file as unusable.
PartitionDecodeStatus DecodePartitionBytes(const std::string& path,
                                           const std::vector<uint8_t>& bytes,
                                           std::vector<EdgeRecord>* edges);

}  // namespace grapple

#endif  // GRAPPLE_SRC_GRAPH_PARTITION_CODEC_H_
