#include "src/graph/merge_memo.h"

#include <algorithm>
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

uint32_t PayloadTable::Intern(const uint8_t* data, size_t len) {
  uint32_t hash = HashBytes(data, len);
  size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    Slot& slot = slots_[i];
    if (slot.id == kFree) {
      uint32_t id = static_cast<uint32_t>(num_payloads());
      GRAPPLE_CHECK_LT(num_payloads(), size_t{kMaxPayloads});
      bytes_.insert(bytes_.end(), data, data + len);
      offsets_.push_back(bytes_.size());
      slot = {id, hash};
      if (num_payloads() * 4 > slots_.size() * 3) {
        Grow();
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

void PayloadTable::Grow() {
  std::vector<Slot> old(slots_.size() * 2);
  old.swap(slots_);
  size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.id != kFree) {
      size_t i = slot.hash & mask;
      while (slots_[i].id != kFree) {
        i = (i + 1) & mask;
      }
      slots_[i] = slot;
    }
  }
}

size_t MergeMemo::SlotOf(Key key) const {
  size_t mask = pairs_.size() - 1;
  for (size_t i = Mix((uint64_t{key.a} << 32) | key.b) & mask;; i = (i + 1) & mask) {
    const Slot& slot = pairs_[i];
    if (slot.a == kNone || (slot.a == key.a && slot.b == key.b)) {
      return i;
    }
  }
}

void MergeMemo::Insert(Key key, uint32_t value) {
  Slot& slot = pairs_[SlotOf(key)];
  GRAPPLE_CHECK_EQ(slot.a, kNone);
  slot = {key.a, key.b, value};
  if (++num_pairs_ * 4 > pairs_.size() * 3) {
    Grow();
  }
}

void MergeMemo::Clear() {
  if (num_pairs_ == 0) {
    return;
  }
  // A table that grew large is dropped rather than wiped, so one big round
  // does not make every later Clear() pay for its capacity.
  if (pairs_.size() > 4096) {
    std::vector<Slot>(64).swap(pairs_);
  } else {
    std::fill(pairs_.begin(), pairs_.end(), Slot());
  }
  num_pairs_ = 0;
}

void MergeMemo::Grow() {
  std::vector<Slot> old(pairs_.size() * 2);
  old.swap(pairs_);
  for (const Slot& slot : old) {
    if (slot.a != kNone) {
      pairs_[SlotOf({slot.a, slot.b})] = slot;
    }
  }
}

}  // namespace grapple
