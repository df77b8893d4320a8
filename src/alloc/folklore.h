// The folklore O(eps^-1) baselines.
//
// The paper's introduction: "whenever an item of size k must be inserted we
// can, by the pigeon-hole principle, find an interval of size O(k eps^-1)
// which has k free space.  Thus it is possible to handle inserts at cost
// O(eps^-1) and handle deletes for free."
//
// Two concrete variants:
//
//  * FolkloreWindowed — the literal pigeonhole algorithm.  Inserts first
//    try first-fit into an existing gap (cost 1); otherwise they pick a
//    window of size ceil(3k/eps) with >= 2k free space (one must exist),
//    compact the items fully inside it, and place the new item in the
//    opened gap.  Deletes are free.  NOT resizable: it uses all of [0, 1).
//
//  * FolkloreCompact — a resizable variant: first-fit insert, free deletes,
//    and a full compaction whenever accumulated gap mass exceeds eps/2.
//    Amortized O(eps^-1), and keeps everything inside [0, L + eps].
//
// Neither keeps a private copy of the layout: first fit scans the store's
// gaps(), and compactions walk its snapshot() in (offset, id) order.
#pragma once

#include <cstddef>

#include "core/allocator.h"
#include "core/layout_store.h"

namespace memreal {

class FolkloreCompact final : public Allocator {
 public:
  explicit FolkloreCompact(LayoutStore& mem);

  void insert(ItemId id, Tick size) override;
  void erase(ItemId id) override;
  [[nodiscard]] std::string_view name() const override {
    return "folklore-compact";
  }
  void check_invariants() const override;

  /// Number of full compactions performed (for tests/benches).
  [[nodiscard]] std::size_t compactions() const { return compactions_; }

 private:
  void compact();

  LayoutStore* mem_;
  std::size_t compactions_ = 0;
};

class FolkloreWindowed final : public Allocator {
 public:
  explicit FolkloreWindowed(LayoutStore& mem);

  void insert(ItemId id, Tick size) override;
  void erase(ItemId id) override;
  [[nodiscard]] std::string_view name() const override {
    return "folklore-windowed";
  }
  [[nodiscard]] bool resizable() const override { return false; }

  /// Number of windowed (pigeonhole) inserts, vs. cheap first-fit inserts.
  [[nodiscard]] std::size_t windowed_inserts() const {
    return windowed_inserts_;
  }

 private:
  /// Places `size` ticks by compacting a window with >= 2*size free space.
  Tick windowed_place(Tick size);

  LayoutStore* mem_;
  std::size_t windowed_inserts_ = 0;
};

}  // namespace memreal
