// Flat hash table keyed by transaction id: the per-replica indexes that
// every delivered copy of a transaction probes (ledger: id -> block,
// mempool: id -> pooled transaction).
//
// Open addressing with linear probing over a power-of-two array of slots;
// an id's home slot is the low bits of mix64(id). The array doubles before
// an insert would take the load factor above 3/4 (kMaxLoadNum /
// kMaxLoadDen), so it holds 4/3 to 8/3 slots per entry once it has grown.
// Erase shifts the rest of the probe cluster back (no tombstones), so
// probe lengths depend only on the live entries. Id 0 marks an empty
// slot; an entry for id 0 is kept beside the array. Entries live in the
// array: no per-entry allocation. There is deliberately no iteration API,
// so the table's internal order can never reach an output.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "chain/hash.hpp"
#include "chain/types.hpp"

namespace stabl::chain {

template <typename Value>
class TxTable {
 public:
  /// Maximum load factor, as a fraction: entries <= slots * 3 / 4.
  static constexpr std::size_t kMaxLoadNum = 3;
  static constexpr std::size_t kMaxLoadDen = 4;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// Slots in the array (0 before the first insert).
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

  /// The value stored for `id`, or nullptr. Invalidated by insert/erase.
  [[nodiscard]] const Value* find(TxId id) const {
    if (id == 0) return has_zero_ ? &zero_value_ : nullptr;
    if (slots_.empty()) return nullptr;
    for (std::size_t i = home(id);; i = next(i)) {
      if (slots_[i].id == id) return &slots_[i].value;
      if (slots_[i].id == 0) return nullptr;
    }
  }

  [[nodiscard]] bool contains(TxId id) const { return find(id) != nullptr; }

  /// Insert `id -> value`. Returns false, leaving the table unchanged,
  /// when `id` is already present.
  bool insert(TxId id, const Value& value) {
    if (id == 0) {
      if (has_zero_) return false;
      has_zero_ = true;
      zero_value_ = value;
      ++size_;
      return true;
    }
    if ((size_ + 1) * kMaxLoadDen > slots_.size() * kMaxLoadNum) grow();
    std::size_t i = home(id);
    for (; slots_[i].id != 0; i = next(i)) {
      if (slots_[i].id == id) return false;
    }
    slots_[i] = Slot{id, value};
    ++size_;
    return true;
  }

  /// Remove `id`. Returns false when it was absent.
  bool erase(TxId id) {
    if (id == 0) {
      if (!has_zero_) return false;
      has_zero_ = false;
      zero_value_ = Value{};
      --size_;
      return true;
    }
    if (slots_.empty()) return false;
    std::size_t hole = home(id);
    for (; slots_[hole].id != id; hole = next(hole)) {
      if (slots_[hole].id == 0) return false;
    }
    // Backward shift: walk the rest of the cluster and move back every
    // entry whose home does not lie cyclically in (hole, j], i.e. every
    // entry the hole would otherwise cut off from its home slot.
    for (std::size_t j = next(hole); slots_[j].id != 0; j = next(j)) {
      const std::size_t mask = slots_.size() - 1;
      if (((j - home(slots_[j].id)) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    --size_;
    return true;
  }

  /// Remove every entry; the slot array is kept for reuse.
  void clear() {
    std::fill(slots_.begin(), slots_.end(), Slot{});
    has_zero_ = false;
    zero_value_ = Value{};
    size_ = 0;
  }

 private:
  struct Slot {
    TxId id = 0;  // 0 = empty
    Value value{};
  };

  static constexpr std::size_t kMinCapacity = 16;

  [[nodiscard]] std::size_t home(TxId id) const {
    return static_cast<std::size_t>(mix64(id)) & (slots_.size() - 1);
  }
  [[nodiscard]] std::size_t next(std::size_t i) const {
    return (i + 1) & (slots_.size() - 1);
  }

  void grow() {
    const std::vector<Slot> old = std::exchange(
        slots_, std::vector<Slot>(slots_.empty() ? kMinCapacity
                                                 : slots_.size() * 2));
    for (const Slot& slot : old) {
      if (slot.id == 0) continue;
      std::size_t i = home(slot.id);
      while (slots_[i].id != 0) i = next(i);
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;  // entries, including the id-0 entry
  bool has_zero_ = false;
  Value zero_value_{};
};

}  // namespace stabl::chain
