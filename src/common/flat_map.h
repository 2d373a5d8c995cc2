// FlatMap: an open-addressing hash table keyed by uint64, with the key and
// its value stored together in one slot of a single flat array. The
// routing table's exception overlay, the per-partition tuple store and the
// lock table are node-based maps otherwise, and their lookups on the
// commit path cost cache misses rather than instructions.
//
// Layout: a power-of-two array of slots, Fibonacci (multiplicative)
// hashing onto the home slot, linear probing, and backward-shift deletion
// (no tombstones, so probe sequences never lengthen with churn). A slot
// whose key is kEmptyKey is free; that one key value is reserved and can
// never be stored. Nothing is allocated per entry: inserting either fills
// a free slot or doubles the array.
//
// FlatTable<Slot> stores any Slot type with a public `uint64_t key` member
// (storage::Tuple carries its own key, so the tuple store holds tuples
// directly); FlatMap<V> is the key/value form. Pointers to slots stay valid
// until the next insertion or erasure. Iteration order follows the slot
// array, so it depends on the capacity and the insertion history: callers
// whose output depends on order must sort.

#ifndef SOAP_COMMON_FLAT_MAP_H_
#define SOAP_COMMON_FLAT_MAP_H_

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

namespace soap {

template <typename Slot>
class FlatTable {
 public:
  /// The key value that marks a free slot; it cannot be inserted.
  static constexpr uint64_t kEmptyKey = ~uint64_t{0};

  FlatTable() = default;
  FlatTable(const FlatTable&) = default;
  FlatTable& operator=(const FlatTable&) = default;
  // Moves leave the source empty and usable (a defaulted move would keep
  // its size while taking its slots).
  FlatTable(FlatTable&& other) noexcept
      : slots_(std::move(other.slots_)),
        size_(std::exchange(other.size_, 0)) {
    other.slots_.clear();
  }
  FlatTable& operator=(FlatTable&& other) noexcept {
    slots_ = std::move(other.slots_);
    size_ = std::exchange(other.size_, 0);
    other.slots_.clear();
    return *this;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Slots allocated (a power of two, or 0 before the first insert).
  size_t capacity() const { return slots_.size(); }

  /// Grows the slot array so `n` entries fit without a rehash. Never
  /// shrinks.
  void reserve(size_t n) {
    size_t cap = kMinCapacity;
    while (!Fits(n, cap)) cap *= 2;
    if (cap > slots_.size()) Rehash(cap);
  }

  Slot* find(uint64_t key) {
    return const_cast<Slot*>(std::as_const(*this).find(key));
  }
  const Slot* find(uint64_t key) const {
    if (slots_.empty()) return nullptr;
    const size_t mask = slots_.size() - 1;
    for (size_t i = Home(key);; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      // Free-slot test first: find(kEmptyKey) then misses like any
      // absent key instead of returning a free slot.
      if (slot.key == kEmptyKey) return nullptr;
      if (slot.key == key) return &slot;
    }
  }
  bool contains(uint64_t key) const { return find(key) != nullptr; }

  /// The slot holding `key`, inserting a value-initialised one (with its
  /// key set) when absent; `second` is true when it was inserted.
  std::pair<Slot*, bool> try_emplace(uint64_t key) {
    assert(key != kEmptyKey && "kEmptyKey is reserved for free slots");
    if (!Fits(size_ + 1, slots_.size())) {
      Rehash(slots_.empty() ? kMinCapacity : slots_.size() * 2);
    }
    const size_t mask = slots_.size() - 1;
    for (size_t i = Home(key);; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.key == key) return {&slot, false};
      if (slot.key == kEmptyKey) {
        slot.key = key;
        ++size_;
        return {&slot, true};
      }
    }
  }

  /// Erases `key`; false when it was absent.
  bool erase(uint64_t key) {
    Slot* slot = find(key);
    if (slot == nullptr) return false;
    EraseAt(static_cast<size_t>(slot - slots_.data()));
    return true;
  }
  /// Erases the entry a find()/try_emplace() just returned.
  void erase(Slot* slot) {
    EraseAt(static_cast<size_t>(slot - slots_.data()));
  }

  /// Erases every entry for which `pred(slot)` is true, visiting each
  /// entry exactly once (so `pred` may have side effects, but must not
  /// touch this table). Returns the number erased.
  template <typename Pred>
  size_t erase_if(Pred pred) {
    if (size_ == 0) return 0;
    const size_t cap = slots_.size();
    const size_t mask = cap - 1;
    // Start just past a free slot. A backward shift only moves entries
    // that follow the erased slot within its probe run, and no run crosses
    // a free slot, so in this order every shifted entry is one not yet
    // visited and lands at or after the current position.
    size_t start = 0;
    while (slots_[start].key != kEmptyKey) ++start;
    size_t erased = 0;
    for (size_t step = 1; step < cap;) {
      const size_t i = (start + step) & mask;
      if (slots_[i].key != kEmptyKey && pred(std::as_const(slots_[i]))) {
        EraseAt(i);  // slot i now holds an unvisited entry, or is free
        ++erased;
      } else {
        ++step;
      }
    }
    return erased;
  }

  /// Forward iteration over the occupied slots, in slot order. Read-only:
  /// slots are found by key, so a caller must not change one in place
  /// while iterating.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Slot;
    using difference_type = std::ptrdiff_t;
    using pointer = const Slot*;
    using reference = const Slot&;

    const_iterator() = default;
    const_iterator(const Slot* at, const Slot* end) : at_(at), end_(end) {
      SkipFree();
    }

    const Slot& operator*() const { return *at_; }
    const Slot* operator->() const { return at_; }
    const_iterator& operator++() {
      ++at_;
      SkipFree();
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++*this;
      return old;
    }
    bool operator==(const const_iterator& other) const {
      return at_ == other.at_;
    }

   private:
    void SkipFree() {
      while (at_ != end_ && at_->key == kEmptyKey) ++at_;
    }
    const Slot* at_ = nullptr;
    const Slot* end_ = nullptr;
  };

  const_iterator begin() const {
    return {slots_.data(), slots_.data() + slots_.size()};
  }
  const_iterator end() const {
    const Slot* e = slots_.data() + slots_.size();
    return {e, e};
  }

 private:
  static constexpr size_t kMinCapacity = 16;

  /// Load-factor bound: at most 7/8 of the slots in use.
  static bool Fits(size_t n, size_t cap) { return n * 8 <= cap * 7; }

  static Slot FreeSlot() {
    Slot slot{};
    slot.key = kEmptyKey;
    return slot;
  }

  size_t Home(uint64_t key) const {
    // Fibonacci hashing: the top log2(capacity) bits of key * 2^64/phi.
    const int shift = std::countl_zero(uint64_t{slots_.size() - 1});
    return static_cast<size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift);
  }

  void Rehash(size_t cap) {
    std::vector<Slot> old = std::move(slots_);
    slots_ = std::vector<Slot>(cap);  // Slot may be move-only: no assign()
    for (Slot& slot : slots_) slot.key = kEmptyKey;
    const size_t mask = cap - 1;
    for (Slot& slot : old) {
      if (slot.key == kEmptyKey) continue;
      size_t i = Home(slot.key);
      while (slots_[i].key != kEmptyKey) i = (i + 1) & mask;
      slots_[i] = std::move(slot);
    }
  }

  /// Backward-shift deletion: pull each later entry of the probe run into
  /// the hole when its home slot is at or before the hole.
  void EraseAt(size_t hole) {
    const size_t mask = slots_.size() - 1;
    for (size_t j = (hole + 1) & mask; slots_[j].key != kEmptyKey;
         j = (j + 1) & mask) {
      const size_t home = Home(slots_[j].key);
      if (((j - home) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    slots_[hole] = FreeSlot();
    --size_;
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
};

/// One key/value slot of a FlatMap.
template <typename V>
struct FlatSlot {
  uint64_t key = 0;
  V value{};
};

/// uint64 -> V map over FlatTable.
template <typename V>
using FlatMap = FlatTable<FlatSlot<V>>;

}  // namespace soap

#endif  // SOAP_COMMON_FLAT_MAP_H_
