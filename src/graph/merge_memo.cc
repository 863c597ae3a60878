#include "src/graph/merge_memo.h"

#include <cstring>

#include "src/support/logging.h"

namespace grapple {

namespace {

uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  return x ^ (x >> 33);
}

uint32_t HashBytes(const uint8_t* data, size_t len) {
  uint64_t h = Mix(len);
  for (; len >= 8; data += 8, len -= 8) {
    uint64_t word = 0;
    std::memcpy(&word, data, 8);
    h = Mix(h ^ word);
  }
  uint64_t tail = 0;
  if (len > 0) {
    std::memcpy(&tail, data, len);
  }
  return static_cast<uint32_t>(Mix(h ^ tail) >> 32);
}

}  // namespace

uint32_t MergeMemo::Intern(const uint8_t* data, size_t len) {
  uint32_t hash = HashBytes(data, len);
  size_t mask = ids_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    IdSlot& slot = ids_[i];
    if (slot.id == kNone) {
      uint32_t id = static_cast<uint32_t>(num_payloads());
      GRAPPLE_CHECK_LT(num_payloads(), size_t{kNone});
      bytes_.insert(bytes_.end(), data, data + len);
      offsets_.push_back(bytes_.size());
      slot = {id, hash};
      if (num_payloads() * 4 > ids_.size() * 3) {
        GrowIds();
      }
      return id;
    }
    size_t begin = offsets_[slot.id];
    if (slot.hash == hash && offsets_[slot.id + 1] - begin == len &&
        (len == 0 || std::memcmp(bytes_.data() + begin, data, len) == 0)) {
      return slot.id;
    }
  }
}

MergeMemo::Key MergeMemo::KeyOf(const uint8_t* a, size_t a_len, const uint8_t* b,
                                size_t b_len) {
  return {Intern(a, a_len), Intern(b, b_len)};  // braced: evaluated left to right
}

size_t MergeMemo::PairSlotOf(Key key) const {
  size_t mask = pairs_.size() - 1;
  for (size_t i = Mix((uint64_t{key.a} << 32) | key.b) & mask;; i = (i + 1) & mask) {
    const PairSlot& slot = pairs_[i];
    if (slot.a == kNone || (slot.a == key.a && slot.b == key.b)) {
      return i;
    }
  }
}

bool MergeMemo::Find(Key key, Result* out) const {
  const PairSlot& slot = pairs_[PairSlotOf(key)];
  if (slot.a == kNone) {
    return false;
  }
  if (slot.c == kNone) {
    out->reset();
  } else {
    out->emplace(bytes_.begin() + offsets_[slot.c], bytes_.begin() + offsets_[slot.c + 1]);
  }
  return true;
}

void MergeMemo::Insert(Key key, const Result& result) {
  uint32_t c = result.has_value() ? Intern(result->data(), result->size()) : kNone;
  PairSlot& slot = pairs_[PairSlotOf(key)];
  GRAPPLE_CHECK_EQ(slot.a, kNone);
  slot = {key.a, key.b, c};
  if (++num_pairs_ * 4 > pairs_.size() * 3) {
    GrowPairs();
  }
}

void MergeMemo::GrowIds() {
  std::vector<IdSlot> old(ids_.size() * 2);
  old.swap(ids_);
  size_t mask = ids_.size() - 1;
  for (const IdSlot& slot : old) {
    if (slot.id != kNone) {
      size_t i = slot.hash & mask;
      while (ids_[i].id != kNone) {
        i = (i + 1) & mask;
      }
      ids_[i] = slot;
    }
  }
}

void MergeMemo::GrowPairs() {
  std::vector<PairSlot> old(pairs_.size() * 2);
  old.swap(pairs_);
  for (const PairSlot& slot : old) {
    if (slot.a != kNone) {
      pairs_[PairSlotOf({slot.a, slot.b})] = slot;
    }
  }
}

}  // namespace grapple
