// The layout-store interface — the substrate abstraction allocators and
// engines are written against.
//
// The paper's cost model assumes a flat address space [0, capacity) where
// placing or moving an object of size s costs s.  Two implementations
// provide that contract:
//
//   Memory    (src/mem)     — the validating model: transactional updates,
//                             incremental per-update invariant checks,
//                             periodic full audits.  The correctness
//                             reference for everything else.
//   SlabStore (src/release) — the release fast path: flat item records,
//                             open-addressed id map, no per-update
//                             validation, only O(1) cost counters.  Its
//                             correctness is established externally by the
//                             lockstep differential suite (ctest -L
//                             release), not by inline checks.
//
// The interface is the exact surface the registry allocators use: layout
// mutation inside begin_update/end_update brackets, point queries by id,
// and ordered-by-offset queries (successor/predecessor/range/snapshot).
// Both implementations order items by (offset, id) so that transient
// mid-update states where two items share an offset stay representable and
// every ordered query returns bit-identical results across stores.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "util/types.h"

namespace memreal {

/// Controls how the layout is validated at the close of each update.  The
/// release store carries the policy for interface compatibility (and for
/// explicit audits) but performs no per-update enforcement.
struct ValidationPolicy {
  /// Check, at the end of every update, that each item mutated during the
  /// update is disjoint from its offset-order neighbors, and that the
  /// global span/load bounds hold.  O(log n) per mutation; catches exactly
  /// the violations a full audit would (overlap can only involve a touched
  /// item, see Memory::end_update).
  bool incremental = true;
  /// Run the full O(n) audit() at the end of every n-th update; 0 keeps
  /// audits explicit-only.  Belt-and-suspenders on top of `incremental`
  /// (it additionally cross-checks the cached mass totals and the index
  /// structures themselves).
  std::size_t audit_every_n_updates = 0;
  /// Enforce span_end <= live_mass + eps (the resizable guarantee).
  /// Non-resizable allocators (windowed folklore) set this false and are
  /// checked against span_end <= capacity instead.
  bool check_resizable_bound = true;
  /// Enforce the adversary's load-factor promise on placement.
  bool check_load_factor = true;
};

/// A placed item as seen by introspection (ordered snapshots and the
/// neighbor-query API).
struct PlacedItem {
  ItemId id = kNoItem;
  Tick offset = 0;
  Tick size = 0;    ///< true size
  Tick extent = 0;  ///< logical (inflated) size; extent >= size
};

class LayoutStore {
 public:
  /// Offset-order neighbors of an item (absent at the span boundaries).
  struct Neighbors {
    std::optional<PlacedItem> prev;
    std::optional<PlacedItem> next;
  };

  virtual ~LayoutStore() = default;

  // -- Transactions -------------------------------------------------------

  /// Starts accounting for one update (insert or delete) of `update_size`.
  virtual void begin_update(Tick update_size, bool is_insert) = 0;

  /// Ends the update; returns the total true mass moved during it.
  virtual Tick end_update() = 0;

  [[nodiscard]] virtual bool in_update() const = 0;
  /// Mass moved so far in the open update.
  [[nodiscard]] virtual Tick moved_in_update() const = 0;

  // -- Layout mutation (allowed only inside an update) ---------------------

  /// Places a new item; charges `size` moved mass (writing the item's
  /// bytes).  extent defaults to size.
  virtual void place(ItemId id, Tick offset, Tick size, Tick extent = 0) = 0;

  /// Moves an existing item; charges its true size iff the offset changes.
  virtual void move_to(ItemId id, Tick offset) = 0;

  /// Logically inflates/deflates an item's extent (free: no bytes move).
  /// extent must be >= true size.
  virtual void set_extent(ItemId id, Tick extent) = 0;

  /// Resets extent to the true size (waste-recovery "revert").
  virtual void reset_extent(ItemId id) = 0;

  /// Resets every id in `ids` to its true size.  Equivalent to calling
  /// reset_extent on each id (extent resets are free and order-blind), but
  /// overridable so a store covering the whole layout can do one linear
  /// pass instead of one id lookup per item.
  virtual void reset_extents(std::span<const ItemId> ids) {
    for (const ItemId id : ids) reset_extent(id);
  }

  /// Removes an item (free: deallocating costs nothing in the model).
  virtual void remove(ItemId id) = 0;

  /// Relocates `ids` extent-contiguously starting at `offset` (each item
  /// lands at the previous item's new end); returns the end of the run.
  /// Exactly equivalent to the move_to/extent_of loop below — same cost
  /// charges, same transient states — but overridable so a store can
  /// resolve each id once instead of twice per item.
  virtual Tick apply_run(std::span<const ItemId> ids, Tick offset) {
    for (const ItemId id : ids) {
      move_to(id, offset);
      offset += extent_of(id);
    }
    return offset;
  }

  // -- Point queries --------------------------------------------------------

  [[nodiscard]] virtual bool contains(ItemId id) const = 0;
  [[nodiscard]] virtual Tick offset_of(ItemId id) const = 0;
  [[nodiscard]] virtual Tick size_of(ItemId id) const = 0;
  [[nodiscard]] virtual Tick extent_of(ItemId id) const = 0;
  [[nodiscard]] virtual Tick end_of(ItemId id) const = 0;

  [[nodiscard]] virtual std::size_t item_count() const = 0;
  /// Sum of true sizes (the paper's L).
  [[nodiscard]] virtual Tick live_mass() const = 0;
  /// Sum of extents (>= live_mass; difference is the logical waste).
  [[nodiscard]] virtual Tick extent_mass() const = 0;
  /// max over items of offset + extent (0 when empty).  O(1).
  [[nodiscard]] virtual Tick span_end() const = 0;

  [[nodiscard]] virtual Tick capacity() const = 0;
  [[nodiscard]] virtual Tick eps_ticks() const = 0;

  /// Total true mass moved since construction.
  [[nodiscard]] virtual Tick total_moved() const = 0;
  [[nodiscard]] virtual std::size_t update_count() const = 0;

  // -- Byte channel ---------------------------------------------------------
  //
  // Tick-space stores have no physical payloads and report zero here; the
  // byte-backed ArenaStore (src/arena) overrides both with the measured
  // memmove traffic, which the engine records into RunStats alongside the
  // tick-mass channel.

  /// Bytes physically moved during the most recently closed update.
  [[nodiscard]] virtual Tick last_update_bytes() const { return 0; }
  /// Total bytes physically moved since construction.
  [[nodiscard]] virtual Tick total_bytes_moved() const { return 0; }

  // -- Ordered (by-offset) queries ------------------------------------------

  /// The item whose extent covers `offset`, if any.
  [[nodiscard]] virtual std::optional<PlacedItem> item_at(Tick offset)
      const = 0;
  /// The leftmost item placed at or beyond `offset` (successor query).
  [[nodiscard]] virtual std::optional<PlacedItem> first_at_or_after(
      Tick offset) const = 0;
  /// The rightmost item placed strictly before `offset` (predecessor).
  [[nodiscard]] virtual std::optional<PlacedItem> last_before(Tick offset)
      const = 0;
  /// Leftmost / rightmost placed item.
  [[nodiscard]] virtual std::optional<PlacedItem> first_item() const = 0;
  [[nodiscard]] virtual std::optional<PlacedItem> last_item() const = 0;
  /// Offset-order neighbors of a placed item.
  [[nodiscard]] virtual Neighbors neighbors_of(ItemId id) const = 0;
  /// Items with offset in [from, to), in offset order.
  [[nodiscard]] virtual std::vector<PlacedItem> items_in(Tick from,
                                                         Tick to) const = 0;

  /// Items sorted by offset.  O(n) — backed by the index, no sorting.
  [[nodiscard]] virtual std::vector<PlacedItem> snapshot() const = 0;

  /// Free intervals between placed extents inside [0, span_end()].  O(n).
  [[nodiscard]] virtual std::vector<std::pair<Tick, Tick>> gaps() const = 0;

  // -- Validation ----------------------------------------------------------

  /// Full O(n) structural check; throws InvariantViolation on failure.
  /// Always explicit for the release store; the validating store also runs
  /// it on the policy cadence.
  virtual void audit() const = 0;

  [[nodiscard]] virtual ValidationPolicy& policy() = 0;
  [[nodiscard]] virtual const ValidationPolicy& policy() const = 0;
};

}  // namespace memreal
