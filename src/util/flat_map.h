// Open-addressed id -> value map for per-item hot paths.
//
// The node-based std::unordered_map costs a pointer chase plus a modulo
// per operation; on per-move bookkeeping that is the dominant cost.  This
// one table backs every such map (SlabStore's id -> slot, SimpleAllocator's
// id -> layout position, GEO's id -> slot, the arena's and the sharded
// router's): power-of-two buckets, SplitMix64-finalized keys (mix64),
// linear probing, backward-shift deletion (no tombstones).
//
// Keys are ItemIds; kNoItem is reserved as the empty-bucket sentinel and
// must never be inserted.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/check.h"
#include "util/rng.h"
#include "util/types.h"

namespace memreal {

template <typename V>
class FlatIdMap {
 public:
  explicit FlatIdMap(std::size_t initial_buckets = 64) {
    keys_.assign(initial_buckets, kNoItem);
    values_.resize(initial_buckets);
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Pointer to the value for `key`, or nullptr when absent.
  [[nodiscard]] V* find(ItemId key) {
    const std::size_t b = locate(key);
    return keys_[b] == key ? &values_[b] : nullptr;
  }
  [[nodiscard]] const V* find(ItemId key) const {
    const std::size_t b = locate(key);
    return keys_[b] == key ? &values_[b] : nullptr;
  }

  [[nodiscard]] bool contains(ItemId key) const {
    return find(key) != nullptr;
  }

  /// Value for an existing key; missing keys are a usage error.
  [[nodiscard]] const V& at(ItemId key) const {
    const V* v = find(key);
    MEMREAL_CHECK_MSG(v != nullptr, "unknown item id " << key);
    return *v;
  }

  /// Inserts value-initialized when absent, like std::unordered_map.
  [[nodiscard]] V& operator[](ItemId key) {
    return *try_emplace(key, V{}).first;
  }

  /// Inserts `value` when `key` is absent, in one probe.  Returns the
  /// key's value and whether it was inserted; a present key keeps its
  /// value.
  std::pair<V*, bool> try_emplace(ItemId key, const V& value) {
    MEMREAL_CHECK_MSG(key != kNoItem, "reserved key");
    if ((size_ + 1) * 8 >= keys_.size() * 5) grow();
    const std::size_t b = locate(key);
    if (keys_[b] == key) return {&values_[b], false};
    keys_[b] = key;
    values_[b] = value;
    ++size_;
    return {&values_[b], true};
  }

  void erase(ItemId key) {
    std::size_t b = locate(key);
    if (keys_[b] != key) return;
    --size_;
    const std::size_t mask = keys_.size() - 1;
    // Backward-shift deletion: re-seat every entry of the probe chain
    // that follows the hole, so lookups never need tombstones.
    std::size_t hole = b;
    std::size_t next = (b + 1) & mask;
    while (keys_[next] != kNoItem) {
      const std::size_t home =
          static_cast<std::size_t>(mix64(keys_[next])) & mask;
      // Move the entry into the hole iff the hole lies on the (cyclic)
      // probe path from its home bucket to its current bucket.
      const bool reachable = hole <= next ? (home <= hole || home > next)
                                          : (home <= hole && home > next);
      if (reachable) {
        keys_[hole] = keys_[next];
        values_[hole] = values_[next];
        hole = next;
      }
      next = (next + 1) & mask;
    }
    keys_[hole] = kNoItem;
  }

 private:
  /// Bucket holding `key`, or the empty bucket where it would go.
  [[nodiscard]] std::size_t locate(ItemId key) const {
    const std::size_t mask = keys_.size() - 1;
    std::size_t b = static_cast<std::size_t>(mix64(key)) & mask;
    while (keys_[b] != kNoItem && keys_[b] != key) b = (b + 1) & mask;
    return b;
  }

  void grow() {
    std::vector<ItemId> old_keys = std::move(keys_);
    std::vector<V> old_values = std::move(values_);
    keys_.assign(old_keys.size() * 2, kNoItem);
    values_.assign(old_keys.size() * 2, V{});
    const std::size_t mask = keys_.size() - 1;
    for (std::size_t i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i] == kNoItem) continue;
      std::size_t b = static_cast<std::size_t>(mix64(old_keys[i])) & mask;
      while (keys_[b] != kNoItem) b = (b + 1) & mask;
      keys_[b] = old_keys[i];
      values_[b] = old_values[i];
    }
  }

  std::vector<ItemId> keys_;
  std::vector<V> values_;
  std::size_t size_ = 0;
};

}  // namespace memreal
