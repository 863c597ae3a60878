#include "src/graph/edge.h"

namespace grapple {

namespace {

inline uint64_t Fnv1a(uint64_t h, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((value >> (8 * i)) & 0xFF)) * 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

uint64_t EdgeContentHash(VertexId src, VertexId dst, Label label, const uint8_t* payload,
                         size_t payload_len) {
  uint64_t h = 0xcbf29ce484222325ULL;
  h = Fnv1a(h, src);
  h = Fnv1a(h, dst);
  h = Fnv1a(h, label);
  for (size_t i = 0; i < payload_len; ++i) {
    h = (h ^ payload[i]) * 0x100000001b3ULL;
  }
  return h;
}

uint64_t EdgeTripleHash(VertexId src, VertexId dst, Label label) {
  uint64_t h = 0x84222325cbf29ce4ULL;
  h = Fnv1a(h, src);
  h = Fnv1a(h, dst);
  h = Fnv1a(h, label);
  return h;
}

}  // namespace grapple
