// Edge records for the out-of-core engine.
//
// Edge payloads are variable-length byte strings (the serialized path
// encoding, or — for the Table-5 baseline codec — an explicit constraint).
// Records are inlined into partition files (src/graph/partition_codec.h)
// as §4.3 describes: no out-of-line constraint objects, sequential access
// only.
#ifndef GRAPPLE_SRC_GRAPH_EDGE_H_
#define GRAPPLE_SRC_GRAPH_EDGE_H_

#include <cstdint>
#include <vector>

#include "src/grammar/grammar.h"

namespace grapple {

using VertexId = uint32_t;

struct EdgeRecord {
  VertexId src = 0;
  VertexId dst = 0;
  Label label = kNoLabel;
  std::vector<uint8_t> payload;
};

// 64-bit content hash of the full record (used for dedup indexing).
uint64_t EdgeContentHash(VertexId src, VertexId dst, Label label, const uint8_t* payload,
                         size_t payload_len);

// Hash of the (src, dst, label) triple only (used for the per-triple
// payload-variant cap).
uint64_t EdgeTripleHash(VertexId src, VertexId dst, Label label);

}  // namespace grapple

#endif  // GRAPPLE_SRC_GRAPH_EDGE_H_
