// GEO — Theorem 4.1 / Algorithms 2–5 of the paper.
//
// Regime: item sizes in [eps^5, 1].  Expected update cost O~(eps^-1/2).
//
// Structure
// ---------
//  * Items of size >= sqrt(eps)/100 are "huge" and live compacted at the
//    start of memory; every huge update rearranges memory at cost
//    O(eps^-1/2).
//  * Non-huge items fall into geometric size classes
//    [eps^5 beta^{i-1}, eps^5 beta^i) with beta = 1 + sqrt(eps); there are
//    C = O(eps^-1/2 log eps^-1) classes.
//  * ell = ceil(4.5 log2(eps^-1)) nested covering levels: level j is a
//    suffix of memory with per-class mass limit m_j = 2^{ell-j+1} eps^5.
//    Level j may hold at most 2*c_{i,j} items of class i, where
//    c_{i,j} = floor(m_j / b_i).
//  * Each (class, level) pair keeps randomized insert/delete rebuild
//    thresholds drawn from [ceil(c/4), ceil(c/3)] (Lemma 4.4 randomness).
//    Every update of class i rebuilds the shallowest level whose counter
//    reached its threshold (the deepest level always fires: its threshold
//    is 1).
//  * Deletes of an item outside its deepest feasible level j*_i swap in
//    the smallest class-i item (which the invariants keep inside level
//    j*_i), logically inflating it; the waste of each swap is bounded by
//    the class width and recovered by randomized waste-recovery steps with
//    thresholds drawn from (eps/2, eps) (Lemma 4.3 randomness).
//
// Layout discipline: [huge][label 0][label 1]...[label ell], contiguous in
// extents, left-aligned at 0.  An item's label is the deepest level that
// contains it; level j = all items with label >= j.
//
// Bookkeeping: every item owns a dense slot, a uint32_t index into info_
// ({id, cls, pos}); freed slots are reused through a free list.  The id ->
// slot map is consulted once per insert/erase and in label_of; everything
// else addresses items by slot.  Labels live only in labels_, an array
// parallel to the layout order order_ (huge items carry -1), and slots_
// sits beside both, so every level boundary is a binary search, a pos
// refresh is an array walk, and a level rebuild — a stable partition of a
// suffix of order_ by new label — is a counting sort over the ell+1
// labels.  Each size class is a flat array sorted by (logical size, id)
// whose entries carry their slot, so ranking a class's smallest members
// is a sequential scan; an insert or erase there is one memmove, no worse
// than the order_ erase every delete already pays.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/allocator.h"
#include "core/layout_store.h"
#include "util/flat_map.h"
#include "util/rng.h"

namespace memreal {

struct GeoConfig {
  double eps = 1.0 / 64;
  std::uint64_t seed = 0xC0FFEE;
  /// Ablation T8a: deterministic thresholds (always the max of the range)
  /// instead of the randomized draws.  The paper's analysis breaks and a
  /// single-class attack can synchronize expensive rebuilds.
  bool deterministic_thresholds = false;
};

/// One GEO size class: its items sorted by (logical size, id), the order
/// level rebuilds rank them in, each entry carrying the item's GEO slot.
class GeoClassItems {
 public:
  struct Entry {
    Tick size = 0;           ///< logical size (the item's current extent)
    ItemId id = kNoItem;
    std::uint32_t slot = 0;  ///< the item's index in GeoAllocator's info_
  };

  /// Adds an entry; a key (size, id) already present is an invariant
  /// violation.
  void insert(const Entry& e);
  /// Removes the entry keyed (size, id); an absent key is an invariant
  /// violation, not a no-op.
  void erase(Tick size, ItemId id);

  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] std::span<const Entry> entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

class GeoAllocator final : public Allocator {
 public:
  GeoAllocator(LayoutStore& mem, const GeoConfig& config);

  /// Smallest memory capacity (in ticks) GEO can be built over at `eps`:
  /// below it eps^5 * capacity falls under eps^-1/2 ticks and adjacent size
  /// classes collapse, so the constructor refuses.  Saturates at the
  /// largest Tick when no capacity suffices.
  [[nodiscard]] static Tick min_capacity(double eps);

  void insert(ItemId id, Tick size) override;
  void erase(ItemId id) override;
  [[nodiscard]] std::string_view name() const override { return "geo"; }
  void check_invariants() const override;

  // -- introspection --------------------------------------------------------
  [[nodiscard]] int level_count() const { return ell_; }
  [[nodiscard]] std::size_t class_count() const { return class_lo_.size(); }
  [[nodiscard]] Tick huge_threshold() const { return huge_thr_; }
  [[nodiscard]] std::size_t waste_recoveries() const {
    return waste_recoveries_;
  }
  [[nodiscard]] std::size_t level_rebuilds() const { return level_rebuilds_; }
  [[nodiscard]] std::size_t class_of_size(Tick size) const;
  [[nodiscard]] int deepest_level_for_class(std::size_t cls) const {
    return jstar_[cls];
  }
  /// Number of items currently labelled >= j (level j size in items).
  [[nodiscard]] std::size_t level_item_count(int j) const;
  /// An item's label: -1 for huge items, else the deepest level holding it.
  [[nodiscard]] int label_of(ItemId id) const;

 private:
  using Slot = std::uint32_t;

  /// Per-item record, indexed by slot; a free slot carries id kNoItem.
  struct Info {
    ItemId id = kNoItem;
    std::uint32_t cls = 0;  ///< size class (unused for huge items)
    std::uint32_t pos = 0;  ///< index in order_ (and labels_, slots_)
  };

  /// Relocates order_[from, end) extent-contiguously behind
  /// order_[from - 1] (or from 0) in one LayoutStore::apply_run.
  void place_from(std::size_t from);
  /// place_from plus a pos refresh, for callers that shifted indices.
  void apply_layout(std::size_t from);
  /// Claims a slot for a new item at order_ index `pos` and maps id to
  /// it; a live id is an invariant violation.
  [[nodiscard]] Slot claim_slot(ItemId id, std::size_t cls, std::size_t pos);
  /// Unmaps id and returns its slot to the free list.
  void release_slot(ItemId id, Slot slot);
  /// Drops order_/labels_/slots_ entry k.
  void erase_at(std::size_t k);
  [[nodiscard]] std::size_t suffix_start_for_label(int label) const;
  void rebuild_level(int j0);
  void waste_recovery();
  void bump_counters_and_rebuild(std::size_t cls, bool is_insert);
  [[nodiscard]] std::uint64_t sample_threshold(std::uint64_t c);

  LayoutStore* mem_;
  double eps_;
  Tick eps_t_;
  Tick cap_;
  Rng rng_;
  bool deterministic_;

  Tick e5_;        ///< eps^5 * cap (min non-huge size, class base)
  Tick huge_thr_;  ///< sqrt(eps)/100 * cap
  int ell_;        ///< number of levels
  std::vector<Tick> m_;         ///< m_[j], j in [1, ell]; m_[0] = capacity
  std::vector<Tick> class_lo_;  ///< class c covers [class_lo_[c], class_hi_[c])
  std::vector<Tick> class_hi_;
  std::vector<std::vector<std::uint64_t>> c_;  ///< c_[cls][j], j in [0, ell]
  std::vector<int> jstar_;

  // Per (class, level) counters and thresholds, j in [1, ell].
  std::vector<std::vector<std::uint64_t>> ins_count_, del_count_;
  std::vector<std::vector<std::uint64_t>> ins_thr_, del_thr_;

  std::vector<ItemId> order_;  ///< sorted: huge first, then by label asc
  std::vector<int> labels_;    ///< labels_[k] = label of order_[k]
  std::vector<Slot> slots_;    ///< slots_[k] = slot of order_[k]
  std::vector<Info> info_;     ///< by slot
  std::vector<Slot> free_slots_;
  FlatIdMap<Slot> slot_of_;
  std::vector<GeoClassItems> class_items_;
  std::size_t huge_count_ = 0;

  Tick waste_acc_ = 0;
  Tick waste_thr_ = 0;  ///< uniform in (eps/2, eps)
  std::size_t waste_recoveries_ = 0;
  std::size_t level_rebuilds_ = 0;

  // rebuild_level scratch, kept across calls so a rebuild does not allocate.
  std::vector<int> new_labels_;      ///< by suffix position
  std::vector<std::size_t> bucket_;  ///< counting-sort offsets per label
  std::vector<ItemId> sorted_;       ///< suffix in new-label order
  std::vector<Slot> sorted_slots_;   ///< parallel to sorted_
};

}  // namespace memreal
