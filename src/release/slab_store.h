// The release fast-path layout store.
//
// SlabStore implements the same LayoutStore contract as the validating
// Memory model, but swaps the node-based std::map/multiset machinery for a
// flat slab of item records and performs NO per-update validation — only
// the O(1) cost counters the paper's model requires (moved mass,
// live/extent mass, update count).
//
// Layout of the slab:
//
//   recs_                   one 32-byte record {id, offset, size, extent}
//                           per live item; slots are kept dense by
//                           swap-with-last removal.  A relocation, an
//                           order comparison or a query result touches
//                           one cache line per item, not one per field
//   ids_                    id -> slot FlatIdMap (util/flat_map.h): O(1)
//                           point queries
//   by_offset_ / index_pos_ slot indices sorted by (offset, id), plus the
//                           inverse permutation (slot -> position):
//                           ordered queries are binary searches over
//                           contiguous memory; mutations find their own
//                           entry in O(1) via index_pos_
//   span_ / span_dirty_     cached max offset+extent; moving or shrinking
//                           the rightmost item marks it dirty and the next
//                           span_end() recomputes with one O(n) scan
//
// Three structural facts keep the hot path cheap.  First, compaction-style
// moves (every SIMPLE rebuild / covering-set compaction) slide items left
// without reordering, so move_to only touches by_offset_ when the
// (offset, id) order actually changes — the common move is two writes.
// Second, apply_run rewrites a whole index range in one pass when the run
// covers it: if the run's slots are distinct, occupy exactly the index
// positions [lo, hi], and their new keys fit between by_offset_[lo-1] and
// by_offset_[hi+1], the run order IS the new index order for that range,
// so each item costs one record write and two index writes whether or not
// the move reorders it (GEO's level rebuilds stably partition a suffix by
// label; SIMPLE's rebuild is the case lo = 0, k = n).  Any other run
// falls back to the per-move order check and reseat.  Third, span_end()
// is rarely read between updates, so the span cache is a scalar with lazy
// recompute instead of a sorted multiset that would charge two
// binary-search insertions per move.
//
// The (offset, id) sort key matches Memory's index exactly, so every
// ordered query (item_at, first_at_or_after, neighbors_of, snapshot, ...)
// returns bit-identical results and any allocator run produces a
// bit-identical layout and per-update cost stream on either store.
//
// What is NOT checked here (and which tier covers it instead):
//
//   * extent disjointness, span/load bounds, mass-accounting drift — the
//     lockstep differential suite (ctest -L release) and the fuzz oracle's
//     release mode (memreal_fuzz --engine release) compare every update
//     against the validated engine; the explicit audit() below performs
//     the full structural check on demand (end-of-run, fuzz verdicts).
//   * adversary promises (load factor) per update — audited at run end.
//
// Only O(1) usage assertions remain on the hot path (unknown id, nested
// update, zero size): they prevent undefined behavior, not layout bugs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/layout_store.h"
#include "util/check.h"
#include "util/flat_map.h"
#include "util/types.h"

namespace memreal {

class SlabStore final : public LayoutStore {
 public:
  SlabStore(Tick capacity, Tick eps_ticks, ValidationPolicy policy = {});

  SlabStore(const SlabStore&) = delete;
  SlabStore& operator=(const SlabStore&) = delete;
  SlabStore(SlabStore&&) = default;
  SlabStore& operator=(SlabStore&&) = default;

  // -- Transactions -------------------------------------------------------

  void begin_update(Tick update_size, bool is_insert) override;
  Tick end_update() override;
  [[nodiscard]] bool in_update() const override { return in_update_; }
  [[nodiscard]] Tick moved_in_update() const override { return moved_; }

  // -- Layout mutation ----------------------------------------------------

  void place(ItemId id, Tick offset, Tick size, Tick extent = 0) override;
  void move_to(ItemId id, Tick offset) override;
  void set_extent(ItemId id, Tick extent) override;
  void reset_extent(ItemId id) override;
  void reset_extents(std::span<const ItemId> ids) override;
  void remove(ItemId id) override;
  Tick apply_run(std::span<const ItemId> ids, Tick offset) override;

  // -- Point queries ------------------------------------------------------

  [[nodiscard]] bool contains(ItemId id) const override {
    return ids_.contains(id);
  }
  [[nodiscard]] Tick offset_of(ItemId id) const override {
    return recs_[slot_of(id)].offset;
  }
  [[nodiscard]] Tick size_of(ItemId id) const override {
    return recs_[slot_of(id)].size;
  }
  [[nodiscard]] Tick extent_of(ItemId id) const override {
    return recs_[slot_of(id)].extent;
  }
  [[nodiscard]] Tick end_of(ItemId id) const override {
    const Record& r = recs_[slot_of(id)];
    return r.offset + r.extent;
  }

  [[nodiscard]] std::size_t item_count() const override {
    return recs_.size();
  }
  [[nodiscard]] Tick live_mass() const override { return live_mass_; }
  [[nodiscard]] Tick extent_mass() const override { return extent_mass_; }
  [[nodiscard]] Tick span_end() const override {
    if (span_dirty_) recompute_span();
    return span_;
  }

  [[nodiscard]] Tick capacity() const override { return capacity_; }
  [[nodiscard]] Tick eps_ticks() const override { return eps_ticks_; }

  [[nodiscard]] Tick total_moved() const override { return total_moved_; }
  [[nodiscard]] std::size_t update_count() const override {
    return updates_;
  }

  // -- Ordered (by-offset) queries ----------------------------------------

  [[nodiscard]] std::optional<PlacedItem> item_at(Tick offset) const override;
  [[nodiscard]] std::optional<PlacedItem> first_at_or_after(
      Tick offset) const override;
  [[nodiscard]] std::optional<PlacedItem> last_before(
      Tick offset) const override;
  [[nodiscard]] std::optional<PlacedItem> first_item() const override;
  [[nodiscard]] std::optional<PlacedItem> last_item() const override;
  [[nodiscard]] Neighbors neighbors_of(ItemId id) const override;
  [[nodiscard]] std::vector<PlacedItem> items_in(Tick from,
                                                 Tick to) const override;
  [[nodiscard]] std::vector<PlacedItem> snapshot() const override;
  [[nodiscard]] std::vector<std::pair<Tick, Tick>> gaps() const override;

  // -- Validation ---------------------------------------------------------

  /// Full O(n log n) structural check: record/map/index/span consistency,
  /// extent disjointness, mass totals, policy-gated span and load bounds.
  /// Never runs implicitly — a release cell's audit() calls it, which
  /// drivers do at run end (and the fuzz oracle when judging a failure).
  void audit() const override;

  [[nodiscard]] ValidationPolicy& policy() override { return policy_; }
  [[nodiscard]] const ValidationPolicy& policy() const override {
    return policy_;
  }

  /// Test-only fault injection: shifts the stored offset of the first
  /// item in offset order by `delta` WITHOUT touching by_offset_, the
  /// span cache, or the id map — exactly the stale-index corruption a
  /// slab bug would produce.  Exists so the fuzz oracle's release mode
  /// can prove it catches (and shrinks) slab corruption; never called
  /// outside tests.
  void debug_corrupt_first_offset(Tick delta);

 private:
  /// One live item.  32-byte aligned so a record never straddles a cache
  /// line.
  struct alignas(32) Record {
    ItemId id;
    Tick offset;
    Tick size;
    Tick extent;
  };
  static_assert(sizeof(Record) == 32);

  /// The slot of a live item; a missing id is a usage error.
  [[nodiscard]] std::uint32_t slot_of(ItemId id) const { return ids_.at(id); }

  /// (offset, id) order of two slots — the index sort key.
  [[nodiscard]] bool slot_less(std::uint32_t a, std::uint32_t b) const {
    return key_less(recs_[a].offset, recs_[a].id, recs_[b].offset,
                    recs_[b].id);
  }
  [[nodiscard]] static bool key_less(Tick a_offset, ItemId a_id,
                                     Tick b_offset, ItemId b_id) {
    return a_offset != b_offset ? a_offset < b_offset : a_id < b_id;
  }
  /// Position in by_offset_[lo, hi) of the first slot with
  /// (offset, id) >= key.
  [[nodiscard]] std::size_t index_lower_bound(std::size_t lo, std::size_t hi,
                                              Tick offset, ItemId id) const;
  [[nodiscard]] std::size_t index_lower_bound(Tick offset, ItemId id) const {
    return index_lower_bound(0, by_offset_.size(), offset, id);
  }
  /// Re-seats by_offset_[pos] (whose stored offset just changed) so the
  /// index is sorted again; refreshes index_pos_ for every shifted entry.
  void index_reseat(std::size_t pos);
  /// Whether `slot` (whose offset may just have changed) still sorts
  /// between its index neighbors.
  [[nodiscard]] bool index_in_order(std::uint32_t slot) const {
    const std::size_t pos = index_pos_[slot];
    return (pos == 0 || slot_less(by_offset_[pos - 1], slot)) &&
           (pos + 1 == by_offset_.size() ||
            slot_less(slot, by_offset_[pos + 1]));
  }
  /// Whether apply_run may write the run as one index block, given that
  /// the k resolved slots in run_slots_ lie in index positions
  /// [lo, lo + k) and the run spans [offset, end): the slots are distinct
  /// (implied when `in_index_order`, i.e. slot j sits at lo + j), and the
  /// first new key and the last stay between the block's unmoved index
  /// neighbors.  Touches no layout state.
  [[nodiscard]] bool run_is_block(std::size_t lo, Tick offset, Tick end,
                                  bool in_index_order);

  [[nodiscard]] PlacedItem placed(std::uint32_t slot) const {
    const Record& r = recs_[slot];
    return PlacedItem{r.id, r.offset, r.size, r.extent};
  }

  /// Span-cache maintenance: a new end can only raise a clean cache; a
  /// vanished end invalidates it only when it was the cached max.
  void span_add(Tick end) {
    if (!span_dirty_ && end > span_) span_ = end;
  }
  void span_drop(Tick end) {
    if (end >= span_) span_dirty_ = true;
  }
  void recompute_span() const;

  Tick capacity_;
  Tick eps_ticks_;
  ValidationPolicy policy_;

  std::vector<Record> recs_;

  FlatIdMap<std::uint32_t> ids_;  ///< id -> slot in recs_

  std::vector<std::uint32_t> by_offset_;
  std::vector<std::uint32_t> index_pos_;  ///< slot -> position in by_offset_

  /// apply_run scratch, reused across runs: each run id's slot, and a
  /// seen-flag per candidate index position for the distinctness check.
  std::vector<std::uint32_t> run_slots_;
  std::vector<std::uint8_t> run_seen_;

  Tick live_mass_ = 0;
  Tick extent_mass_ = 0;

  mutable Tick span_ = 0;
  mutable bool span_dirty_ = false;

  bool in_update_ = false;
  Tick moved_ = 0;
  Tick total_moved_ = 0;
  std::size_t updates_ = 0;
};

}  // namespace memreal
