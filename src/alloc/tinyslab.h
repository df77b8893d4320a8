// TINYSLAB — substitute for Kuszmaul's TINYHASH (FOCS'23), the black-box
// allocator for tiny items (size <= eps^4) that Section 4.2 composes with
// GEO.  See DESIGN.md §5 for the substitution rationale.
//
// The structural contract of Lemma 4.9, which FLEXHASH relies on and this
// class guarantees:
//
//  * Memory is organized into fixed-size "memory units" of M = Theta(eps^3)
//    ticks (a power of two here); no item ever spans two units.
//  * Units are created and destroyed only at the logical end; physical
//    placement of every unit is delegated to a UnitSpace, so a wrapper
//    (FLEXHASH) may permute units freely.
//  * Items live inside power-of-two "slabs" of size M / 2^i placed at
//    offsets that are multiples of their size ("a slab of size L must be
//    placed at a location i*L"), so slabs nest and never straddle units.
//
// Internals: geometric size classes with ratio rho = 1 + eps/4; every item
// of class k occupies a fixed slot pitch e_k (its extent is rounded up to
// e_k, a logical inflation of at most a (1 + eps/4) factor).  Each class
// packs its items into slabs of sigma_k = the smallest power of two
// >= 4 e_k; deletes swap the class's last item into the hole (exact fit,
// O(1) cost).  Freed slabs go to buddy free lists and are reused
// lowest-address-first; when total free-slab mass crosses a randomized
// threshold, a full compaction repacks all classes (descending slab size,
// which keeps every slab aligned) and releases trailing units.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "core/allocator.h"
#include "core/layout_store.h"
#include "util/rng.h"

namespace memreal {

/// Physical placement of logical units.  The default (identity) places
/// unit u at base + u*M; FLEXHASH supplies a permuted implementation.
class UnitSpace {
 public:
  virtual ~UnitSpace() = default;
  /// Physical offset of logical unit `unit`.
  [[nodiscard]] virtual Tick unit_offset(std::size_t unit) const = 0;
  /// A new logical unit (index `unit`) now exists.
  virtual void on_unit_created(std::size_t unit) = 0;
  /// The last logical unit (index `unit`) was destroyed.
  virtual void on_unit_destroyed(std::size_t unit) = 0;
};

struct TinySlabConfig {
  double eps = 1.0 / 64;
  /// Largest supported item size; 0 = eps^4 * capacity (the Section 4.2
  /// tiny/large threshold).
  Tick max_size = 0;
  /// Smallest supported item size; 0 = max_size / 4096.  Bounds the class
  /// count.
  Tick min_size = 0;
  /// Free-mass budget before a randomized compaction; 0 = eps/4 * capacity.
  Tick slack_budget = 0;
  std::uint64_t seed = 0x7157;
};

class TinySlabAllocator final : public Allocator {
 public:
  /// `space` may be nullptr, in which case units are placed contiguously
  /// from offset 0.
  TinySlabAllocator(LayoutStore& mem, const TinySlabConfig& config,
                    UnitSpace* space = nullptr);

  /// Smallest memory capacity (in ticks) a default-configured TINYSLAB can
  /// be built over at `eps`: below it the smallest size class,
  /// eps^4 * capacity / 4096, falls under one tick and the constructor
  /// refuses.  Saturates at the largest Tick when no capacity suffices.
  [[nodiscard]] static Tick min_capacity(double eps);

  void insert(ItemId id, Tick size) override;
  void erase(ItemId id) override;
  [[nodiscard]] std::string_view name() const override { return "tinyslab"; }
  void check_invariants() const override;

  // -- contract surface for FLEXHASH ---------------------------------------
  [[nodiscard]] Tick unit_size() const { return M_; }
  [[nodiscard]] std::size_t unit_count() const { return units_; }
  /// Re-places every item of `unit` according to the current UnitSpace
  /// offsets (called after the wrapper moved the unit physically).
  void replace_unit_items(std::size_t unit);

  // -- introspection --------------------------------------------------------
  [[nodiscard]] std::size_t class_count() const { return extent_.size(); }
  [[nodiscard]] Tick free_mass() const { return free_mass_; }
  [[nodiscard]] std::size_t compactions() const { return compactions_; }
  [[nodiscard]] Tick max_item_size() const { return max_size_; }
  [[nodiscard]] Tick min_item_size() const { return min_size_; }
  [[nodiscard]] std::size_t class_of_size(Tick size) const;
  [[nodiscard]] std::size_t item_count() const { return where_.size(); }
  /// Sum of item extents (slot pitches) currently placed.
  [[nodiscard]] Tick extent_mass() const { return extent_mass_; }

 private:
  struct Slab {
    std::size_t cls = 0;
    std::size_t unit = 0;
    Tick off = 0;  ///< offset within the unit; multiple of sigma
    std::vector<ItemId> slots;
  };

  struct FreeAddr {
    std::size_t unit;
    Tick off;
    friend auto operator<=>(const FreeAddr&, const FreeAddr&) = default;
  };

  [[nodiscard]] Tick item_offset(const Slab& s, std::size_t slot) const;
  [[nodiscard]] std::size_t level_of_sigma(Tick sigma) const;
  [[nodiscard]] FreeAddr alloc_block(std::size_t level);
  void free_block(FreeAddr addr, std::size_t level);
  void take_block_at(std::size_t unit, Tick off, std::size_t level);
  void create_unit();
  void destroy_trailing_empty_units();
  std::size_t alloc_slab(std::size_t cls);
  void release_slab(std::size_t slab_id);
  void compact_all();
  void place_item(ItemId id, Tick size, std::size_t slab_id,
                  std::size_t slot, bool is_new);

  LayoutStore* mem_;
  UnitSpace* space_;
  std::unique_ptr<UnitSpace> owned_space_;

  Tick M_ = 0;            ///< unit size (power of two)
  std::size_t levels_ = 0;  ///< buddy levels: block sizes M >> level
  Tick max_size_ = 0, min_size_ = 0;
  Tick slack_budget_ = 0;
  Rng rng_;

  std::vector<Tick> extent_;  ///< e_k, strictly decreasing
  std::vector<Tick> sigma_;   ///< slab size per class (power of two)
  std::vector<std::size_t> slots_per_slab_;

  std::vector<Slab> slabs_;                 ///< pool; freed ids recycled
  std::vector<std::size_t> slab_free_ids_;
  std::vector<std::vector<std::size_t>> class_slabs_;  ///< per class, in order
  std::vector<std::set<std::size_t>> unit_slabs_;      ///< per unit
  std::unordered_map<ItemId, std::pair<std::size_t, std::size_t>> where_;

  std::vector<std::set<FreeAddr>> free_;  ///< per level
  Tick free_mass_ = 0;
  Tick extent_mass_ = 0;
  std::size_t units_ = 0;
  Tick compact_threshold_ = 0;
  std::size_t compactions_ = 0;
};

}  // namespace memreal
