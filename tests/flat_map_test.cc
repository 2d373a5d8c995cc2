// FlatMap: differential tests against std::unordered_map, plus the layout
// cases linear probing with backward-shift deletion has to get right —
// keys sharing a home slot, probe runs wrapping past the table end, and
// erasure while erase_if is sweeping.

#include "src/common/flat_map.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <unordered_map>
#include <utility>
#include <vector>

namespace soap {
namespace {

using Map = FlatMap<int64_t>;

/// The table's home slot for `key` at capacity 2^bits (Fibonacci hashing,
/// as documented in flat_map.h). Used only to pick colliding keys; the
/// layout test below checks the choice really collides.
size_t HomeSlot(uint64_t key, int bits) {
  return static_cast<size_t>((key * 0x9E3779B97F4A7C15ULL) >> (64 - bits));
}

/// The first `n` keys whose home is the last slot of a 16-slot table.
std::vector<uint64_t> KeysHomedAtLastSlot(size_t n) {
  std::vector<uint64_t> keys;
  for (uint64_t k = 0; keys.size() < n; ++k) {
    if (HomeSlot(k, 4) == 15) keys.push_back(k);
  }
  return keys;
}

std::vector<std::pair<uint64_t, int64_t>> Contents(const Map& map) {
  std::vector<std::pair<uint64_t, int64_t>> out;
  for (const auto& slot : map) out.emplace_back(slot.key, slot.value);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<uint64_t, int64_t>> Contents(
    const std::unordered_map<uint64_t, int64_t>& ref) {
  std::vector<std::pair<uint64_t, int64_t>> out(ref.begin(), ref.end());
  std::sort(out.begin(), out.end());
  return out;
}

void ExpectSame(const Map& map,
                const std::unordered_map<uint64_t, int64_t>& ref) {
  ASSERT_EQ(map.size(), ref.size());
  EXPECT_EQ(Contents(map), Contents(ref));
  for (const auto& [key, value] : ref) {
    const auto* slot = map.find(key);
    ASSERT_NE(slot, nullptr) << "key " << key;
    EXPECT_EQ(slot->value, value);
  }
}

TEST(FlatMapTest, CollidingKeysWrapAroundTheTableEnd) {
  const std::vector<uint64_t> keys = KeysHomedAtLastSlot(4);
  Map map;
  for (size_t i = 0; i < keys.size(); ++i) {
    map.try_emplace(keys[i]).first->value = static_cast<int64_t>(i);
  }
  ASSERT_EQ(map.capacity(), 16u);
  // The first key takes its home (slot 15); the rest wrap to slots 0..2,
  // so slot-order iteration yields them first.
  std::vector<uint64_t> order;
  for (const auto& slot : map) order.push_back(slot.key);
  EXPECT_EQ(order,
            (std::vector<uint64_t>{keys[1], keys[2], keys[3], keys[0]}));
  // Erasing the run's head shifts the wrapped keys back across the end.
  EXPECT_TRUE(map.erase(keys[0]));
  for (size_t i = 1; i < keys.size(); ++i) {
    const auto* slot = map.find(keys[i]);
    ASSERT_NE(slot, nullptr);
    EXPECT_EQ(slot->value, static_cast<int64_t>(i));
  }
  EXPECT_EQ(map.find(keys[0]), nullptr);
  EXPECT_FALSE(map.erase(keys[0]));
  EXPECT_EQ(map.size(), 3u);
}

TEST(FlatMapTest, DifferentialAgainstUnorderedMap) {
  // A small universe keeps the table small (lots of wrap-around) and the
  // hit rate high; the colliding keys force long shared probe runs.
  std::vector<uint64_t> universe = KeysHomedAtLastSlot(8);
  for (uint64_t k = 0; k < 40; ++k) universe.push_back(k * 7);
  for (uint64_t seed : {1u, 2u, 3u}) {
    std::mt19937_64 rng(seed);
    Map map;
    std::unordered_map<uint64_t, int64_t> ref;
    for (int step = 0; step < 20'000; ++step) {
      const uint64_t key = universe[rng() % universe.size()];
      const int64_t value = static_cast<int64_t>(rng() % 1000);
      switch (rng() % 4) {
        case 0: {  // insert-if-absent
          auto [slot, inserted] = map.try_emplace(key);
          auto [it, ref_inserted] = ref.try_emplace(key, value);
          ASSERT_EQ(inserted, ref_inserted);
          if (inserted) slot->value = value;
          break;
        }
        case 1:  // overwrite (upsert)
          map.try_emplace(key).first->value = value;
          ref[key] = value;
          break;
        case 2:  // erase
          ASSERT_EQ(map.erase(key), ref.erase(key) > 0);
          break;
        case 3: {  // find
          const auto* slot = map.find(key);
          auto it = ref.find(key);
          ASSERT_EQ(slot != nullptr, it != ref.end());
          if (slot != nullptr) {
            ASSERT_EQ(slot->value, it->second);
          }
          break;
        }
      }
      ASSERT_EQ(map.size(), ref.size());
      if (step % 1'000 == 0) ExpectSame(map, ref);
    }
    ExpectSame(map, ref);
  }
}

TEST(FlatMapTest, EraseIfVisitsEachEntryOnceAndErasesExactly) {
  std::vector<uint64_t> keys = KeysHomedAtLastSlot(6);
  for (uint64_t k = 100; k < 106; ++k) keys.push_back(k);
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    std::mt19937_64 rng(seed);
    Map map;
    std::unordered_map<uint64_t, int64_t> ref;
    for (uint64_t key : keys) {
      const auto value = static_cast<int64_t>(rng() % 2);
      map.try_emplace(key).first->value = value;
      ref[key] = value;
    }
    std::unordered_map<uint64_t, int> visits;
    const size_t erased = map.erase_if([&](const auto& slot) {
      ++visits[slot.key];
      return slot.value == 1;
    });
    size_t ref_erased = 0;
    for (auto it = ref.begin(); it != ref.end();) {
      if (it->second == 1) {
        it = ref.erase(it);
        ++ref_erased;
      } else {
        ++it;
      }
    }
    EXPECT_EQ(erased, ref_erased);
    ASSERT_EQ(visits.size(), keys.size());
    for (const auto& [key, count] : visits) EXPECT_EQ(count, 1) << key;
    ExpectSame(map, ref);
  }
}

TEST(FlatMapTest, GrowthKeepsEveryEntryAndTheLoadBound) {
  Map map;
  for (uint64_t k = 0; k < 10'000; ++k) {
    map.try_emplace(k * 3).first->value = static_cast<int64_t>(k);
    ASSERT_LE(map.size() * 8, map.capacity() * 7);
  }
  EXPECT_EQ(map.capacity() & (map.capacity() - 1), 0u);
  for (uint64_t k = 0; k < 10'000; ++k) {
    const auto* slot = map.find(k * 3);
    ASSERT_NE(slot, nullptr);
    EXPECT_EQ(slot->value, static_cast<int64_t>(k));
    EXPECT_EQ(map.find(k * 3 + 1), nullptr);
  }
}

TEST(FlatMapTest, ReserveSizesOnceForTheExpectedCount) {
  Map map;
  map.reserve(100'000);
  const size_t cap = map.capacity();
  EXPECT_EQ(cap, 131'072u);  // smallest power of two at <= 7/8 load
  for (uint64_t k = 0; k < 100'000; ++k) map.try_emplace(k);
  EXPECT_EQ(map.capacity(), cap);
  map.reserve(10);  // never shrinks
  EXPECT_EQ(map.capacity(), cap);
}

TEST(FlatMapTest, CopiesAreIndependentAndMovesLeaveAnEmptyMap) {
  Map original;
  for (uint64_t k = 0; k < 50; ++k) {
    original.try_emplace(k).first->value = static_cast<int64_t>(k);
  }
  Map copy = original;
  copy.find(7)->value = -1;
  EXPECT_TRUE(copy.erase(8));
  EXPECT_EQ(original.find(7)->value, 7);
  EXPECT_NE(original.find(8), nullptr);
  EXPECT_EQ(original.size(), 50u);
  EXPECT_EQ(copy.size(), 49u);

  Map moved = std::move(copy);
  EXPECT_EQ(moved.size(), 49u);
  EXPECT_EQ(moved.find(7)->value, -1);
  EXPECT_TRUE(copy.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(copy.find(7), nullptr);
  copy.try_emplace(3).first->value = 3;  // still usable
  EXPECT_EQ(copy.size(), 1u);

  original = std::move(moved);
  EXPECT_EQ(original.size(), 49u);
  EXPECT_TRUE(moved.empty());  // NOLINT(bugprone-use-after-move)
}

TEST(FlatMapTest, ReservedKeyIsNeverFound) {
  Map map;
  EXPECT_EQ(map.find(Map::kEmptyKey), nullptr);
  map.try_emplace(1);
  EXPECT_EQ(map.find(Map::kEmptyKey), nullptr);
  EXPECT_FALSE(map.erase(Map::kEmptyKey));
}

}  // namespace
}  // namespace soap
