#include "src/graph/checkpoint.h"

#include <cstring>

#include "src/support/byte_io.h"
#include "src/support/event_hook.h"
#include "src/support/fault_injection.h"

namespace grapple {

namespace {

// File layout: magic(8) | format version(fixed32) | payload length(fixed64)
// | payload | FNV-1a(payload)(fixed64). The checksum covers the payload
// only; magic/version corruption is caught by their own strict checks.
constexpr char kMagic[8] = {'G', 'R', 'P', 'L', 'C', 'K', 'P', 'T'};

// The manifest checksum starts from this basis (one digit short of the
// standard FNV offset) in every published manifest; kept so they verify.
constexpr uint64_t kChecksumBasis = 1469598103934665603ULL;

void PutString(std::vector<uint8_t>* out, const std::string& s) {
  PutVarint64(out, s.size());
  out->insert(out->end(), s.begin(), s.end());
}

bool GetString(ByteReader* reader, std::string* s) {
  uint64_t len = reader->GetVarint64();
  if (!reader->ok() || len > reader->remaining()) {
    return false;
  }
  s->resize(static_cast<size_t>(len));
  return len == 0 ||
         reader->GetRaw(reinterpret_cast<uint8_t*>(s->data()), static_cast<size_t>(len));
}

bool Fail(std::string* error, const std::string& why) {
  if (error != nullptr) {
    *error = "checkpoint manifest invalid: " + why;
  }
  return false;
}

}  // namespace

std::string CheckpointManifestPath(const std::string& work_dir) {
  return work_dir + "/checkpoint.manifest";
}

void EncodeCheckpointManifest(const CheckpointManifest& manifest, std::vector<uint8_t>* out) {
  std::vector<uint8_t> payload;
  PutVarint64(&payload, manifest.num_vertices);
  PutFixed64(&payload, manifest.base_fingerprint);
  PutVarint64(&payload, manifest.base_edges);
  PutVarint64(&payload, manifest.file_counter);

  PutVarint64(&payload, manifest.partitions.size());
  for (const CheckpointPartition& p : manifest.partitions) {
    PutVarint64(&payload, p.lo);
    PutVarint64(&payload, p.hi);
    PutString(&payload, p.file);
    PutVarint64(&payload, p.bytes);
    PutVarint64(&payload, p.edges);
    PutVarint64(&payload, p.version);
    PutVarint64(&payload, p.disk_bytes);
  }

  PutVarint64(&payload, manifest.pair_done.size());
  for (const CheckpointManifest::PairDone& pd : manifest.pair_done) {
    PutVarint64(&payload, pd.i);
    PutVarint64(&payload, pd.j);
    PutVarint64(&payload, pd.ni);
    PutVarint64(&payload, pd.nj);
  }

  // Sorted hashes delta-encode well: the varint of a gap between uniform
  // random 64-bit values at count n is ~ (64 - log2 n) bits.
  PutVarint64(&payload, manifest.dedup_hashes.size());
  uint64_t prev = 0;
  for (uint64_t hash : manifest.dedup_hashes) {
    PutVarint64(&payload, hash - prev);
    prev = hash;
  }

  PutVarint64(&payload, manifest.variants.size());
  prev = 0;
  for (const auto& [triple, count] : manifest.variants) {
    PutVarint64(&payload, triple - prev);
    PutVarint64(&payload, count);
    prev = triple;
  }

  payload.push_back(manifest.has_provenance ? 1 : 0);
  PutVarint64(&payload, manifest.provenance_bytes);
  PutVarint64(&payload, manifest.provenance_records);

  out->clear();
  out->reserve(sizeof(kMagic) + 4 + 8 + payload.size() + 8);
  out->insert(out->end(), kMagic, kMagic + sizeof(kMagic));
  PutFixed32(out, kCheckpointFormatVersion);
  PutFixed64(out, payload.size());
  out->insert(out->end(), payload.begin(), payload.end());
  PutFixed64(out, Fnv1a64(payload.data(), payload.size(), kChecksumBasis));
}

bool DecodeCheckpointManifest(const std::vector<uint8_t>& bytes, CheckpointManifest* manifest,
                              std::string* error) {
  ByteReader header(bytes);
  uint8_t magic[sizeof(kMagic)];
  if (!header.GetRaw(magic, sizeof(magic)) || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Fail(error, "bad magic");
  }
  uint32_t version = header.GetFixed32();
  if (!header.ok()) {
    return Fail(error, "truncated header");
  }
  if (version != kCheckpointFormatVersion) {
    return Fail(error, "format version skew: file has v" + std::to_string(version) +
                           ", this binary expects v" + std::to_string(kCheckpointFormatVersion));
  }
  uint64_t payload_len = header.GetFixed64();
  // Compared without overflow: a length near 2^64 must not wrap past the
  // check and send the checksum read out of bounds.
  if (!header.ok() || header.remaining() < 8 || payload_len != header.remaining() - 8) {
    return Fail(error, "payload length mismatch (truncated or trailing garbage)");
  }
  const uint8_t* payload = bytes.data() + header.position();
  uint64_t stored_checksum =
      [&] {
        ByteReader tail(payload + payload_len, 8);
        return tail.GetFixed64();
      }();
  uint64_t computed = Fnv1a64(payload, static_cast<size_t>(payload_len), kChecksumBasis);
  if (stored_checksum != computed) {
    return Fail(error, "checksum mismatch");
  }

  ByteReader reader(payload, static_cast<size_t>(payload_len));
  CheckpointManifest m;
  m.num_vertices = reader.GetVarint64();
  m.base_fingerprint = reader.GetFixed64();
  m.base_edges = reader.GetVarint64();
  m.file_counter = reader.GetVarint64();

  uint64_t num_partitions = reader.GetVarint64();
  if (!reader.ok() || num_partitions > payload_len) {
    return Fail(error, "bad partition count");
  }
  m.partitions.reserve(static_cast<size_t>(num_partitions));
  for (uint64_t i = 0; i < num_partitions; ++i) {
    CheckpointPartition p;
    p.lo = static_cast<VertexId>(reader.GetVarint64());
    p.hi = static_cast<VertexId>(reader.GetVarint64());
    if (!GetString(&reader, &p.file)) {
      return Fail(error, "bad partition file name");
    }
    p.bytes = reader.GetVarint64();
    p.edges = reader.GetVarint64();
    p.version = reader.GetVarint64();
    p.disk_bytes = reader.GetVarint64();
    m.partitions.push_back(std::move(p));
  }

  uint64_t num_pairs = reader.GetVarint64();
  if (!reader.ok() || num_pairs > payload_len) {
    return Fail(error, "bad pair count");
  }
  m.pair_done.reserve(static_cast<size_t>(num_pairs));
  for (uint64_t i = 0; i < num_pairs; ++i) {
    CheckpointManifest::PairDone pd;
    pd.i = reader.GetVarint64();
    pd.j = reader.GetVarint64();
    pd.ni = reader.GetVarint64();
    pd.nj = reader.GetVarint64();
    m.pair_done.push_back(pd);
  }

  uint64_t num_hashes = reader.GetVarint64();
  if (!reader.ok() || num_hashes > payload_len) {
    return Fail(error, "bad dedup hash count");
  }
  m.dedup_hashes.reserve(static_cast<size_t>(num_hashes));
  uint64_t prev = 0;
  for (uint64_t i = 0; i < num_hashes; ++i) {
    prev += reader.GetVarint64();
    m.dedup_hashes.push_back(prev);
  }

  uint64_t num_variants = reader.GetVarint64();
  if (!reader.ok() || num_variants > payload_len) {
    return Fail(error, "bad variant count");
  }
  m.variants.reserve(static_cast<size_t>(num_variants));
  prev = 0;
  for (uint64_t i = 0; i < num_variants; ++i) {
    prev += reader.GetVarint64();
    uint64_t count = reader.GetVarint64();
    m.variants.emplace_back(prev, static_cast<uint32_t>(count));
  }

  uint8_t has_prov = 0;
  if (!reader.GetRaw(&has_prov, 1) || has_prov > 1) {
    return Fail(error, "bad provenance flag");
  }
  m.has_provenance = has_prov == 1;
  m.provenance_bytes = reader.GetVarint64();
  m.provenance_records = reader.GetVarint64();

  if (!reader.ok()) {
    return Fail(error, "truncated payload");
  }
  if (!reader.AtEnd()) {
    return Fail(error, "trailing bytes in payload");
  }
  *manifest = std::move(m);
  return true;
}

bool SaveCheckpointManifest(const std::string& work_dir, const CheckpointManifest& manifest,
                            uint64_t* bytes_out, std::string* error) {
  std::vector<uint8_t> encoded;
  EncodeCheckpointManifest(manifest, &encoded);
  if (bytes_out != nullptr) {
    *bytes_out = encoded.size();
  }
  std::string path = CheckpointManifestPath(work_dir);
  std::string tmp = path + ".tmp";
  if (!WriteFileBytes(tmp, encoded, error) || !SyncFile(tmp, error)) {
    return false;
  }
  fault::CrashPoint("ckpt_temp_written");
  if (!RenameFile(tmp, path, error)) {
    return false;
  }
  fault::CrashPoint("ckpt_published");
  evt::Emit(evt::kCheckpointPublish, encoded.size());
  return true;
}

bool LoadCheckpointManifest(const std::string& work_dir, CheckpointManifest* manifest,
                            std::string* error) {
  std::string path = CheckpointManifestPath(work_dir);
  if (error != nullptr) {
    error->clear();
  }
  if (!FileExists(path)) {
    return false;
  }
  std::vector<uint8_t> bytes;
  std::string io_error;
  if (!ReadFileBytes(path, &bytes, &io_error)) {
    return Fail(error, "unreadable: " + io_error);
  }
  return DecodeCheckpointManifest(bytes, manifest, error);
}

}  // namespace grapple
