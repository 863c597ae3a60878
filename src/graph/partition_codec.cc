#include "src/graph/partition_codec.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <unordered_map>

#include "src/support/byte_io.h"

namespace grapple {

namespace {

constexpr char kBlockMagic[4] = {'G', 'R', 'P', 'B'};

size_t VarintLen(uint64_t value) {
  size_t len = 1;
  while (value >= 0x80) {
    value >>= 7;
    ++len;
  }
  return len;
}

std::string At(const std::string& path, size_t offset) {
  return path + " at offset " + std::to_string(offset);
}

PartitionDecodeStatus Corrupt(std::string message) {
  PartitionDecodeStatus status;
  status.ok = false;
  status.error = std::move(message);
  return status;
}

// Hash/equality over payload byte spans so dedup avoids copying payloads
// into map keys.
struct SpanRef {
  const uint8_t* data;
  size_t len;
};
struct SpanHash {
  size_t operator()(const SpanRef& s) const {
    return static_cast<size_t>(Fnv1a64(s.data, s.len));
  }
};
struct SpanEq {
  bool operator()(const SpanRef& a, const SpanRef& b) const {
    return a.len == b.len && (a.len == 0 || std::memcmp(a.data, b.data, a.len) == 0);
  }
};

size_t SharedPrefix(const SpanRef& a, const SpanRef& b) {
  size_t n = std::min(a.len, b.len);
  size_t i = 0;
  while (i < n && a.data[i] == b.data[i]) {
    ++i;
  }
  return i;
}

}  // namespace

PartitionDecodeStatus DecodePartitionBytes(const std::string& path,
                                           const std::vector<uint8_t>& bytes,
                                           std::vector<EdgeRecord>* edges) {
  if (bytes.size() < kBlockFileHeaderSize || std::memcmp(bytes.data(), kBlockMagic, 4) != 0) {
    return Corrupt("missing block-file header in " + At(path, 0) + " (" +
                   std::to_string(bytes.size()) + " bytes, no GRPB magic)");
  }
  uint8_t version = bytes[4];
  if (version != kBlockFormatVersion) {
    return Corrupt("unsupported block format version " + std::to_string(version) + " in " +
                   At(path, 4) + " (this build reads v" +
                   std::to_string(kBlockFormatVersion) + ")");
  }
  ByteReader reader(bytes);
  reader.Skip(kBlockFileHeaderSize);
  while (!reader.AtEnd()) {
    size_t block_offset = reader.position();
    uint64_t edge_count = reader.GetVarint64();
    uint64_t payload_count = reader.GetVarint64();
    uint64_t body_len = reader.GetVarint64();
    if (!reader.ok()) {
      return Corrupt("truncated block header in " + At(path, block_offset));
    }
    // Every payload entry takes at least 2 body bytes and every edge entry
    // at least 4, so counts the body cannot hold are rejected here, before
    // they size any allocation.
    if (edge_count == 0 || payload_count == 0 || payload_count > edge_count ||
        edge_count > body_len / 4 || payload_count > (body_len - edge_count * 4) / 2) {
      return Corrupt("implausible block header in " + At(path, block_offset) + " (" +
                     std::to_string(edge_count) + " edges, " + std::to_string(payload_count) +
                     " payloads)");
    }
    if (body_len > reader.remaining() || reader.remaining() - body_len < 8) {
      return Corrupt("truncated block body in " + At(path, block_offset) + " (need " +
                     std::to_string(body_len) + "+8 bytes, " +
                     std::to_string(reader.remaining()) + " remain)");
    }
    const uint8_t* body = bytes.data() + reader.position();
    size_t body_offset = reader.position();
    reader.Skip(body_len);
    uint64_t stored_sum = reader.GetFixed64();
    uint64_t actual_sum = Fnv1a64(body, body_len);
    if (stored_sum != actual_sum) {
      char expected[24];
      char actual[24];
      std::snprintf(expected, sizeof(expected), "%016llx",
                    static_cast<unsigned long long>(stored_sum));
      std::snprintf(actual, sizeof(actual), "%016llx",
                    static_cast<unsigned long long>(actual_sum));
      return Corrupt("block checksum mismatch in " + At(path, block_offset) + " (stored " +
                     expected + ", computed " + actual + " over " + std::to_string(body_len) +
                     " body bytes)");
    }
    // The body is checksum-verified; remaining failures are structural.
    ByteReader body_reader(body, body_len);
    std::vector<std::vector<uint8_t>> payloads;
    payloads.reserve(payload_count);
    for (uint64_t p = 0; p < payload_count; ++p) {
      size_t entry_offset = body_offset + body_reader.position();
      uint64_t prefix_len = body_reader.GetVarint64();
      uint64_t suffix_len = body_reader.GetVarint64();
      if (!body_reader.ok() || suffix_len > body_reader.remaining() ||
          prefix_len > (payloads.empty() ? 0 : payloads.back().size())) {
        return Corrupt("corrupt payload-table entry in " + At(path, entry_offset));
      }
      std::vector<uint8_t> payload;
      payload.reserve(prefix_len + suffix_len);
      if (prefix_len > 0) {
        payload.insert(payload.end(), payloads.back().begin(),
                       payloads.back().begin() + static_cast<ptrdiff_t>(prefix_len));
      }
      size_t old_size = payload.size();
      payload.resize(old_size + suffix_len);
      if (suffix_len > 0 && !body_reader.GetRaw(payload.data() + old_size, suffix_len)) {
        return Corrupt("corrupt payload-table entry in " + At(path, entry_offset));
      }
      payloads.push_back(std::move(payload));
    }
    uint64_t prev_src = 0;
    for (uint64_t e = 0; e < edge_count; ++e) {
      size_t entry_offset = body_offset + body_reader.position();
      int64_t src_delta = body_reader.GetVarintSigned64();
      int64_t dst_delta = body_reader.GetVarintSigned64();
      uint64_t label = body_reader.GetVarint64();
      uint64_t payload_index = body_reader.GetVarint64();
      int64_t src = static_cast<int64_t>(prev_src) + src_delta;
      int64_t dst = src + dst_delta;
      if (!body_reader.ok() || src < 0 || src > UINT32_MAX || dst < 0 || dst > UINT32_MAX ||
          payload_index >= payloads.size()) {
        return Corrupt("corrupt edge entry in " + At(path, entry_offset));
      }
      EdgeRecord record;
      record.src = static_cast<VertexId>(src);
      record.dst = static_cast<VertexId>(dst);
      record.label = static_cast<Label>(label);
      record.payload = payloads[payload_index];
      prev_src = record.src;
      edges->push_back(std::move(record));
    }
    if (!body_reader.AtEnd()) {
      return Corrupt("trailing garbage in block body in " +
                     At(path, body_offset + body_reader.position()));
    }
  }
  return PartitionDecodeStatus();
}

void AppendBlockFileHeader(std::vector<uint8_t>* out) {
  out->insert(out->end(), kBlockMagic, kBlockMagic + 4);
  out->push_back(kBlockFormatVersion);
}

uint64_t LayoutChargeBytes(const std::vector<EdgeRecord>& edges) {
  uint64_t total = 0;
  for (const auto& edge : edges) {
    total += VarintLen(edge.src) + VarintLen(edge.dst) + VarintLen(edge.label) +
             VarintLen(edge.payload.size()) + edge.payload.size();
  }
  return total;
}

void AppendEdgeBlock(const std::vector<EdgeRecord>& edges, std::vector<uint8_t>* out) {
  if (edges.empty()) {
    return;
  }
  // Per-block payload dedup: collect unique payloads, sort them so that
  // near-identical encodings sit next to each other (maximizing the shared
  // prefix), then reference them by table index from each edge.
  std::unordered_map<SpanRef, uint32_t, SpanHash, SpanEq> unique;
  std::vector<SpanRef> table;
  std::vector<uint32_t> edge_payload(edges.size());
  for (size_t i = 0; i < edges.size(); ++i) {
    SpanRef span{edges[i].payload.data(), edges[i].payload.size()};
    auto [it, inserted] = unique.emplace(span, static_cast<uint32_t>(table.size()));
    if (inserted) {
      table.push_back(span);
    }
    edge_payload[i] = it->second;
  }
  std::vector<uint32_t> order(table.size());
  for (uint32_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    const SpanRef& sa = table[a];
    const SpanRef& sb = table[b];
    return std::lexicographical_compare(sa.data, sa.data + sa.len, sb.data, sb.data + sb.len);
  });
  std::vector<uint32_t> rank(table.size());
  for (uint32_t pos = 0; pos < order.size(); ++pos) {
    rank[order[pos]] = pos;
  }

  std::vector<uint8_t> body;
  body.reserve(edges.size() * 4);
  for (uint32_t pos = 0; pos < order.size(); ++pos) {
    const SpanRef& span = table[order[pos]];
    size_t prefix = pos == 0 ? 0 : SharedPrefix(table[order[pos - 1]], span);
    PutVarint64(&body, prefix);
    PutVarint64(&body, span.len - prefix);
    body.insert(body.end(), span.data + prefix, span.data + span.len);
  }
  uint64_t prev_src = 0;
  for (size_t i = 0; i < edges.size(); ++i) {
    const EdgeRecord& edge = edges[i];
    PutVarintSigned64(&body, static_cast<int64_t>(edge.src) - static_cast<int64_t>(prev_src));
    PutVarintSigned64(&body, static_cast<int64_t>(edge.dst) - static_cast<int64_t>(edge.src));
    PutVarint64(&body, edge.label);
    PutVarint64(&body, rank[edge_payload[i]]);
    prev_src = edge.src;
  }

  PutVarint64(out, edges.size());
  PutVarint64(out, table.size());
  PutVarint64(out, body.size());
  out->insert(out->end(), body.begin(), body.end());
  PutFixed64(out, Fnv1a64(body.data(), body.size()));
}

}  // namespace grapple
