#include "src/obs/provenance.h"

#include <cstring>

#include "src/support/byte_io.h"
#include "src/support/logging.h"

namespace grapple {
namespace obs {

namespace {

// Flush the write buffer once it crosses this size; keeps the in-memory
// footprint of recording independent of run length.
constexpr size_t kFlushThreshold = size_t{1} << 20;

void PutEdge(std::vector<uint8_t>* out, const ProvEdge& edge) {
  PutVarint64(out, edge.src);
  PutVarint64(out, edge.dst);
  PutVarint64(out, edge.label);
}

bool GetEdge(ByteReader* reader, ProvEdge* edge) {
  edge->src = static_cast<uint32_t>(reader->GetVarint64());
  edge->dst = static_cast<uint32_t>(reader->GetVarint64());
  edge->label = static_cast<uint16_t>(reader->GetVarint64());
  return reader->ok();
}

}  // namespace

const char* WitnessModeName(WitnessMode mode) {
  switch (mode) {
    case WitnessMode::kOff:
      return "off";
    case WitnessMode::kBugs:
      return "bugs";
    case WitnessMode::kFull:
      return "full";
  }
  return "?";
}

bool ParseWitnessMode(const std::string& text, WitnessMode* out) {
  if (text == "off" || text == "0" || text == "none") {
    *out = WitnessMode::kOff;
  } else if (text == "bugs") {
    *out = WitnessMode::kBugs;
  } else if (text == "full") {
    *out = WitnessMode::kFull;
  } else {
    return false;
  }
  return true;
}

ProvenanceWriter::ProvenanceWriter(std::string path, MetricsRegistry* metrics)
    : path_(std::move(path)), metrics_(metrics) {
  if (metrics_ != nullptr) {
    c_records_ = metrics_->Counter("provenance_records_total");
    c_bytes_ = metrics_->Counter("provenance_bytes");
  }
}

ProvenanceWriter::~ProvenanceWriter() { Flush(); }

// Wire format per record: u8 kind, u8 widened, fixed64 child hash, child
// edge (3 varints), varint payload length + payload bytes, then per kind:
// join — fixed64 + edge for each parent; rewrite — fixed64 + edge for the
// single parent. A leading varint carries the record's byte length so a
// reader can resynchronize-or-stop on a torn tail.
void ProvenanceWriter::Put(ProvKind kind, uint64_t hash, const ProvEdge& edge,
                           const uint8_t* payload, size_t len, uint64_t parent_a,
                           const ProvEdge& a_edge, uint64_t parent_b, const ProvEdge& b_edge,
                           bool widened) {
  std::vector<uint8_t> record;
  record.push_back(static_cast<uint8_t>(kind));
  record.push_back(widened ? 1 : 0);
  PutFixed64(&record, hash);
  PutEdge(&record, edge);
  PutVarint64(&record, len);
  record.insert(record.end(), payload, payload + len);
  if (kind == ProvKind::kJoin || kind == ProvKind::kRewrite) {
    PutFixed64(&record, parent_a);
    PutEdge(&record, a_edge);
  }
  if (kind == ProvKind::kJoin) {
    PutFixed64(&record, parent_b);
    PutEdge(&record, b_edge);
  }
  PutVarint64(&buffer_, record.size());
  buffer_.insert(buffer_.end(), record.begin(), record.end());
  ++records_;
  if (metrics_ != nullptr) {
    metrics_->Add(c_records_);
  }
  if (buffer_.size() >= kFlushThreshold) {
    Flush();
  }
}

void ProvenanceWriter::RecordBase(uint64_t hash, const ProvEdge& edge, const uint8_t* payload,
                                  size_t len) {
  Put(ProvKind::kBase, hash, edge, payload, len, 0, ProvEdge(), 0, ProvEdge(), false);
}

void ProvenanceWriter::RecordJoin(uint64_t hash, const ProvEdge& edge, const uint8_t* payload,
                                  size_t len, uint64_t parent_a, const ProvEdge& a_edge,
                                  uint64_t parent_b, const ProvEdge& b_edge, bool widened) {
  Put(ProvKind::kJoin, hash, edge, payload, len, parent_a, a_edge, parent_b, b_edge, widened);
}

void ProvenanceWriter::RecordRewrite(uint64_t hash, const ProvEdge& edge,
                                     const uint8_t* payload, size_t len, uint64_t parent,
                                     const ProvEdge& parent_edge) {
  Put(ProvKind::kRewrite, hash, edge, payload, len, parent, parent_edge, 0, ProvEdge(), false);
}

void ProvenanceWriter::ResumeAt(uint64_t bytes, uint64_t records) {
  buffer_.clear();
  bytes_ = bytes;
  records_ = records;
  // The on-disk prefix is live: later flushes must append, never truncate.
  file_started_ = true;
  if (metrics_ != nullptr) {
    metrics_->Add(c_records_, records);
    metrics_->Add(c_bytes_, bytes);
  }
}

bool ProvenanceWriter::Flush() {
  if (buffer_.empty()) {
    // A phase that recorded nothing still leaves an (empty) log behind, so
    // readers can distinguish "no derivations" from "recording was off".
    if (!file_started_) {
      file_started_ = WriteFileBytes(path_, buffer_);
    }
    return file_started_;
  }
  bool ok = file_started_ ? AppendFileBytes(path_, buffer_) : WriteFileBytes(path_, buffer_);
  if (!ok) {
    GRAPPLE_LOG(WARNING) << "failed to flush provenance log " << path_;
    buffer_.clear();
    return false;
  }
  file_started_ = true;
  bytes_ += buffer_.size();
  if (metrics_ != nullptr) {
    metrics_->Add(c_bytes_, buffer_.size());
  }
  buffer_.clear();
  return true;
}

bool ProvenanceReader::Open(const std::string& path) {
  std::vector<uint8_t> bytes;
  if (!ReadFileBytes(path, &bytes)) {
    return false;
  }
  file_bytes_ = bytes.size();
  ByteReader reader(bytes);
  while (!reader.AtEnd()) {
    uint64_t record_len = reader.GetVarint64();
    if (!reader.ok() || record_len > reader.remaining()) {
      return false;  // torn tail; keep what parsed
    }
    size_t record_end = reader.position() + record_len;
    ProvRecord record;
    uint8_t kind = 0;
    uint8_t widened = 0;
    if (!reader.GetRaw(&kind, 1) || !reader.GetRaw(&widened, 1) ||
        kind > static_cast<uint8_t>(ProvKind::kRewrite)) {
      return false;
    }
    record.kind = static_cast<ProvKind>(kind);
    record.widened = widened != 0;
    record.hash = reader.GetFixed64();
    if (!GetEdge(&reader, &record.edge)) {
      return false;
    }
    uint64_t payload_len = reader.GetVarint64();
    if (!reader.ok() || payload_len > reader.remaining()) {
      return false;
    }
    record.payload.resize(payload_len);
    if (payload_len > 0 && !reader.GetRaw(record.payload.data(), payload_len)) {
      return false;
    }
    if (record.kind == ProvKind::kJoin || record.kind == ProvKind::kRewrite) {
      record.parent_a = reader.GetFixed64();
      if (!GetEdge(&reader, &record.a_edge)) {
        return false;
      }
    }
    if (record.kind == ProvKind::kJoin) {
      record.parent_b = reader.GetFixed64();
      if (!GetEdge(&reader, &record.b_edge)) {
        return false;
      }
    }
    if (!reader.ok() || reader.position() != record_end) {
      return false;
    }
    uint64_t hash = record.hash;
    records_.emplace(hash, std::move(record));
  }
  return true;
}

const ProvRecord* ProvenanceReader::Lookup(uint64_t hash) const {
  auto it = records_.find(hash);
  return it == records_.end() ? nullptr : &it->second;
}

}  // namespace obs
}  // namespace grapple
