// The exact merge memo behind both constraint oracles (§4.3, Table 4).
//
// Each payload byte string the memo sees is interned to a dense uint32 id
// (hash-consing: equal bytes, equal id). Bytes are compared on every probe,
// so a hash collision can never merge two payloads. A flat open-addressing
// map then takes the pair (id_a, id_b) to the merge's outcome: unsat, or the
// id of the merged payload. Nothing is evicted while the memo lives, so each
// distinct pair is merged and solved exactly once. Ids are private to the
// memo: they are never persisted or reported, and their numbering may
// depend on the order in which concurrent shards reach the oracle.
//
// Not thread-safe: the owning oracle serializes access under its mutex.
#ifndef GRAPPLE_SRC_GRAPH_MERGE_MEMO_H_
#define GRAPPLE_SRC_GRAPH_MERGE_MEMO_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace grapple {

class MergeMemo {
 public:
  // A merge's outcome: the merged payload, or nullopt when unsat.
  using Result = std::optional<std::vector<uint8_t>>;
  struct Key {
    uint32_t a = 0;
    uint32_t b = 0;
  };

  // Interns both payloads and returns the key of their (ordered) pair.
  Key KeyOf(const uint8_t* a, size_t a_len, const uint8_t* b, size_t b_len);
  // True when `key` is memoized; its outcome is then stored in *out.
  bool Find(Key key, Result* out) const;
  // Memoizes `key`'s outcome; `key` must not be memoized yet.
  void Insert(Key key, const Result& result);

  size_t num_payloads() const { return offsets_.size() - 1; }
  size_t num_pairs() const { return num_pairs_; }

 private:
  static constexpr uint32_t kNone = UINT32_MAX;  // free slot; unsat outcome

  struct IdSlot {
    uint32_t id = kNone;
    uint32_t hash = 0;
  };
  struct PairSlot {
    uint32_t a = kNone;
    uint32_t b = 0;
    uint32_t c = 0;  // merged payload id, or kNone when unsat
  };

  uint32_t Intern(const uint8_t* data, size_t len);
  size_t PairSlotOf(Key key) const;
  void GrowIds();
  void GrowPairs();

  std::vector<uint8_t> bytes_;      // interned payloads, back to back
  std::vector<size_t> offsets_{0};  // id's bytes: [offsets_[id], offsets_[id + 1])
  std::vector<IdSlot> ids_ = std::vector<IdSlot>(64);
  std::vector<PairSlot> pairs_ = std::vector<PairSlot>(64);
  size_t num_pairs_ = 0;
};

}  // namespace grapple

#endif  // GRAPPLE_SRC_GRAPH_MERGE_MEMO_H_
