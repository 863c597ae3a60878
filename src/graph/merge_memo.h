// The payload id space and the exact merge memo behind both constraint
// oracles (§4.3, Table 4).
//
// PayloadTable interns each payload byte string to a dense uint32 id
// (hash-consing: equal bytes, equal id). Bytes are compared on every probe,
// so a hash collision can never merge two payloads. Each engine has one
// table, owned by its oracle: loaded edges, join candidates and memo entries
// all name payloads by these ids. Ids are never persisted or reported.
//
// MergeMemo is a flat open-addressing map from a pair (id_a, id_b) to a
// uint32 value: for the oracle's memo, the id of the merged payload or
// kNone when the merge is unsat; for a join shard's miss buffer and the
// round's list of distinct misses, an index into them. Nothing is evicted,
// so each distinct pair is merged and solved exactly once per memo.
//
// Neither class locks. Concurrent readers are safe while nobody writes; the
// engine only interns and inserts between join rounds.
#ifndef GRAPPLE_SRC_GRAPH_MERGE_MEMO_H_
#define GRAPPLE_SRC_GRAPH_MERGE_MEMO_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace grapple {

// A read-only view of one payload's bytes.
struct PayloadBytes {
  const uint8_t* data = nullptr;
  size_t size = 0;
};

class PayloadTable {
 public:
  // Largest id + 1: ids stay below 2^31 so callers can tag them.
  static constexpr uint32_t kMaxPayloads = uint32_t{1} << 31;

  uint32_t Intern(const uint8_t* data, size_t len);
  PayloadBytes Bytes(uint32_t id) const {
    return {bytes_.data() + offsets_[id], offsets_[id + 1] - offsets_[id]};
  }
  size_t num_payloads() const { return offsets_.size() - 1; }

 private:
  static constexpr uint32_t kFree = UINT32_MAX;
  struct Slot {
    uint32_t id = kFree;
    uint32_t hash = 0;
  };

  void Grow();

  std::vector<uint8_t> bytes_;      // interned payloads, back to back
  std::vector<size_t> offsets_{0};  // id's bytes: [offsets_[id], offsets_[id + 1])
  std::vector<Slot> slots_ = std::vector<Slot>(64);
};

class MergeMemo {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;  // free slot; unsat outcome
  struct Key {
    uint32_t a = 0;
    uint32_t b = 0;
  };

  // True when `key` is present; its value is then stored in *value.
  bool Find(Key key, uint32_t* value) const {
    const Slot& slot = pairs_[SlotOf(key)];
    if (slot.a == kNone) {
      return false;
    }
    *value = slot.value;
    return true;
  }
  // Stores `key` -> `value`; `key` must not be present yet.
  void Insert(Key key, uint32_t value);
  // Forgets every pair.
  void Clear();

  size_t num_pairs() const { return num_pairs_; }

 private:
  struct Slot {
    uint32_t a = kNone;
    uint32_t b = 0;
    uint32_t value = 0;
  };

  size_t SlotOf(Key key) const;
  void Grow();

  std::vector<Slot> pairs_ = std::vector<Slot>(64);
  size_t num_pairs_ = 0;
};

}  // namespace grapple

#endif  // GRAPPLE_SRC_GRAPH_MERGE_MEMO_H_
