#include "release/slab_store.h"

#include <algorithm>

#include "util/check.h"

namespace memreal {

SlabStore::SlabStore(Tick capacity, Tick eps_ticks, ValidationPolicy policy)
    : capacity_(capacity), eps_ticks_(eps_ticks), policy_(policy) {
  MEMREAL_CHECK(capacity > 0);
  MEMREAL_CHECK_MSG(eps_ticks >= 1,
                    "eps truncated to zero ticks — the load-factor and "
                    "resizable-bound checks would be vacuous (see Eps::of)");
  MEMREAL_CHECK_MSG(eps_ticks < capacity, "eps must be < 1");
}

// -- Ordered index maintenance ----------------------------------------------

std::size_t SlabStore::index_lower_bound(std::size_t lo, std::size_t hi,
                                         Tick offset, ItemId id) const {
  const auto first = by_offset_.begin() + static_cast<std::ptrdiff_t>(lo);
  const auto last = by_offset_.begin() + static_cast<std::ptrdiff_t>(hi);
  const auto it = std::lower_bound(
      first, last, std::pair{offset, id},
      [this](std::uint32_t slot, const std::pair<Tick, ItemId>& key) {
        return std::pair{recs_[slot].offset, recs_[slot].id} < key;
      });
  return static_cast<std::size_t>(it - by_offset_.begin());
}

void SlabStore::index_reseat(std::size_t pos) {
  const std::uint32_t slot = by_offset_[pos];
  const Tick offset = recs_[slot].offset;
  const ItemId id = recs_[slot].id;
  const auto base = by_offset_.begin();
  if (pos > 0 && !slot_less(by_offset_[pos - 1], slot)) {
    // Out of order leftward: slide the entry down to its sorted position.
    const std::size_t p = index_lower_bound(0, pos, offset, id);
    std::rotate(base + static_cast<std::ptrdiff_t>(p),
                base + static_cast<std::ptrdiff_t>(pos),
                base + static_cast<std::ptrdiff_t>(pos + 1));
    for (std::size_t i = p; i <= pos; ++i) {
      index_pos_[by_offset_[i]] = static_cast<std::uint32_t>(i);
    }
  } else {
    // Out of order rightward: entries (pos, p) shift left one.
    const std::size_t p =
        index_lower_bound(pos + 1, by_offset_.size(), offset, id);
    std::rotate(base + static_cast<std::ptrdiff_t>(pos),
                base + static_cast<std::ptrdiff_t>(pos + 1),
                base + static_cast<std::ptrdiff_t>(p));
    for (std::size_t i = pos; i < p; ++i) {
      index_pos_[by_offset_[i]] = static_cast<std::uint32_t>(i);
    }
  }
}

// -- Transactions -----------------------------------------------------------

void SlabStore::begin_update(Tick update_size, bool is_insert) {
  MEMREAL_CHECK_MSG(!in_update_, "nested update");
  MEMREAL_CHECK(update_size > 0);
  (void)is_insert;  // the load-factor promise is audited, not gated here
  in_update_ = true;
  moved_ = 0;
}

Tick SlabStore::end_update() {
  MEMREAL_CHECK_MSG(in_update_, "end_update without begin_update");
  in_update_ = false;
  total_moved_ += moved_;
  ++updates_;
  return moved_;
}

// -- Layout mutation --------------------------------------------------------

void SlabStore::place(ItemId id, Tick offset, Tick size, Tick extent) {
  MEMREAL_CHECK_MSG(in_update_, "layout mutation outside an update");
  MEMREAL_CHECK(size > 0);
  if (extent == 0) extent = size;
  MEMREAL_CHECK(extent >= size);
  // One probe resolves the id: a duplicate is refused before any state
  // changes.
  const auto slot = static_cast<std::uint32_t>(recs_.size());
  MEMREAL_CHECK_MSG(ids_.try_emplace(id, slot).second,
                    "item " << id << " already placed");
  recs_.push_back(Record{id, offset, size, extent});
  if (by_offset_.empty() || slot_less(by_offset_.back(), slot)) {
    // Rightmost placement (every append-style allocator insert): no shift.
    index_pos_.push_back(static_cast<std::uint32_t>(by_offset_.size()));
    by_offset_.push_back(slot);
  } else {
    const std::size_t pos = index_lower_bound(offset, id);
    by_offset_.insert(by_offset_.begin() + static_cast<std::ptrdiff_t>(pos),
                      slot);
    index_pos_.push_back(static_cast<std::uint32_t>(pos));
    for (std::size_t i = pos + 1; i < by_offset_.size(); ++i) {
      index_pos_[by_offset_[i]] = static_cast<std::uint32_t>(i);
    }
  }
  span_add(offset + extent);
  live_mass_ += size;
  extent_mass_ += extent;
  moved_ += size;
}

void SlabStore::move_to(ItemId id, Tick offset) {
  MEMREAL_CHECK_MSG(in_update_, "layout mutation outside an update");
  const std::uint32_t slot = slot_of(id);
  Record& r = recs_[slot];
  if (r.offset == offset) return;
  span_drop(r.offset + r.extent);
  r.offset = offset;
  span_add(offset + r.extent);
  // Compaction moves preserve (offset, id) order; only a move that crosses
  // a neighbor pays the index reseat.
  if (!index_in_order(slot)) index_reseat(index_pos_[slot]);
  moved_ += r.size;
}

bool SlabStore::run_is_block(std::size_t lo, Tick offset, Tick end,
                             bool in_index_order) {
  const std::size_t k = run_slots_.size();
  if (!in_index_order) {
    // k positions inside a range of k: distinct iff none repeats.
    run_seen_.assign(k, 0);
    for (const std::uint32_t slot : run_slots_) {
      std::uint8_t& seen = run_seen_[index_pos_[slot] - lo];
      if (seen != 0) return false;
      seen = 1;
    }
  }
  // Extents >= 1 make the run's new keys strictly increasing, so only the
  // two ends need checking against the unmoved neighbors.
  const Record& first = recs_[run_slots_.front()];
  const Record& last = recs_[run_slots_.back()];
  if (lo > 0) {
    const Record& left = recs_[by_offset_[lo - 1]];
    if (!key_less(left.offset, left.id, offset, first.id)) return false;
  }
  const std::size_t hi = lo + k - 1;
  if (hi + 1 < by_offset_.size()) {
    const Record& right = recs_[by_offset_[hi + 1]];
    if (!key_less(end - last.extent, last.id, right.offset, right.id)) {
      return false;
    }
  }
  return true;
}

Tick SlabStore::apply_run(std::span<const ItemId> ids, Tick offset) {
  MEMREAL_CHECK_MSG(in_update_, "layout mutation outside an update");
  // Resolve every id once, collecting the run's index range, whether it
  // already walks that range in index order (every compaction), and its
  // end.
  const std::size_t k = ids.size();
  run_slots_.resize(k);
  std::size_t lo = by_offset_.size();
  std::size_t hi = 0;
  bool in_index_order = true;
  Tick end = offset;
  for (std::size_t j = 0; j < k; ++j) {
    const std::uint32_t slot = slot_of(ids[j]);
    const std::size_t pos = index_pos_[slot];
    run_slots_[j] = slot;
    in_index_order &= j == 0 || pos == hi + 1;
    lo = std::min(lo, pos);
    hi = std::max(hi, pos);
    end += recs_[slot].extent;
  }
  const bool block = k > 0 && hi - lo + 1 == k &&
                     run_is_block(lo, offset, end, in_index_order);
  bool any_moved = false;
  if (block) {
    // Block rewrite (every SIMPLE rebuild, GEO's suffix rebuilds): the run
    // order is the new index order of positions [lo, lo + k), so the index
    // is written directly — no per-move order checks, no reseat rotations.
    for (std::size_t j = 0; j < run_slots_.size(); ++j) {
      const std::uint32_t slot = run_slots_[j];
      Record& r = recs_[slot];
      if (r.offset != offset) {
        r.offset = offset;
        moved_ += r.size;
        any_moved = true;
      }
      by_offset_[lo + j] = slot;
      index_pos_[slot] = static_cast<std::uint32_t>(lo + j);
      offset += r.extent;
    }
  } else {
    // Any other run (a repeated id, a run interleaved with unmoved items,
    // or one whose keys cross an outside neighbor) replays the per-move
    // loop: an order check plus an offset write, and a reseat only for a
    // move that crosses a neighbor.
    for (const std::uint32_t slot : run_slots_) {
      Record& r = recs_[slot];
      if (r.offset != offset) {
        r.offset = offset;
        if (!index_in_order(slot)) index_reseat(index_pos_[slot]);
        moved_ += r.size;
        any_moved = true;
      }
      offset += r.extent;
    }
  }
  // The span resolves once per run instead of twice per move.  A block
  // covering every item ends exactly at `offset`.  Otherwise run items are
  // extent-contiguous by construction, so the run's max end is the final
  // `offset`; when the span was clean and the run reaches at or past it,
  // every surviving end is <= `offset` and the span is exact.  A run
  // ending short may have moved the old maximum down — recompute lazily.
  if (block && run_slots_.size() == recs_.size()) {
    span_ = offset;
    span_dirty_ = false;
  } else if (any_moved) {
    if (!span_dirty_ && offset >= span_) {
      span_ = offset;
    } else {
      span_dirty_ = true;
    }
  }
  return offset;
}

void SlabStore::reset_extents(std::span<const ItemId> ids) {
  MEMREAL_CHECK_MSG(in_update_, "layout mutation outside an update");
  // Whole-layout revert (step 1 of every SIMPLE rebuild): SIMPLE lists
  // every item in layout order, which is the index order, so one walk
  // along the index reverts them with no id probe.  A list that leaves
  // the index order at position j (another order, a repeated id) has
  // reverted exactly ids[0, j) and resets the rest per id.
  std::size_t j = 0;
  if (ids.size() == by_offset_.size()) {
    for (; j < ids.size(); ++j) {
      Record& r = recs_[by_offset_[j]];
      if (r.id != ids[j]) break;
      extent_mass_ += r.size;
      extent_mass_ -= r.extent;
      r.extent = r.size;
    }
    if (j > 0) span_dirty_ = true;  // deflation can shrink the rightmost end
  }
  for (const ItemId id : ids.subspan(j)) reset_extent(id);
}

void SlabStore::set_extent(ItemId id, Tick extent) {
  MEMREAL_CHECK_MSG(in_update_, "layout mutation outside an update");
  Record& r = recs_[slot_of(id)];
  MEMREAL_CHECK_MSG(extent >= r.size,
                    "extent " << extent << " below true size " << r.size);
  span_drop(r.offset + r.extent);
  span_add(r.offset + extent);
  extent_mass_ += extent;
  extent_mass_ -= r.extent;
  r.extent = extent;
}

void SlabStore::reset_extent(ItemId id) {
  MEMREAL_CHECK_MSG(in_update_, "layout mutation outside an update");
  Record& r = recs_[slot_of(id)];
  span_drop(r.offset + r.extent);
  span_add(r.offset + r.size);
  extent_mass_ += r.size;
  extent_mass_ -= r.extent;
  r.extent = r.size;
}

void SlabStore::remove(ItemId id) {
  MEMREAL_CHECK_MSG(in_update_, "layout mutation outside an update");
  const std::uint32_t slot = slot_of(id);
  live_mass_ -= recs_[slot].size;
  extent_mass_ -= recs_[slot].extent;
  span_drop(recs_[slot].offset + recs_[slot].extent);
  const std::size_t pos = index_pos_[slot];
  by_offset_.erase(by_offset_.begin() + static_cast<std::ptrdiff_t>(pos));
  for (std::size_t i = pos; i < by_offset_.size(); ++i) {
    index_pos_[by_offset_[i]] = static_cast<std::uint32_t>(i);
  }
  ids_.erase(id);
  // Swap-with-last keeps the record arrays dense; the moved record's map
  // and index entries must be re-pointed at its new slot.
  const auto last = static_cast<std::uint32_t>(recs_.size() - 1);
  if (slot != last) {
    recs_[slot] = recs_[last];
    index_pos_[slot] = index_pos_[last];
    by_offset_[index_pos_[slot]] = slot;
    *ids_.find(recs_[slot].id) = slot;
  }
  recs_.pop_back();
  index_pos_.pop_back();
}

// -- Span cache -------------------------------------------------------------

void SlabStore::recompute_span() const {
  Tick m = 0;
  for (const Record& r : recs_) m = std::max(m, r.offset + r.extent);
  span_ = m;
  span_dirty_ = false;
}

// -- Ordered queries --------------------------------------------------------

std::optional<PlacedItem> SlabStore::item_at(Tick offset) const {
  // upper_bound on (offset, kNoItem): the first entry strictly past every
  // id at `offset` — mirror of Memory::item_at.
  std::size_t pos = index_lower_bound(offset, kNoItem);
  if (pos < by_offset_.size() && recs_[by_offset_[pos]].offset == offset &&
      recs_[by_offset_[pos]].id == kNoItem) {
    ++pos;  // unreachable in practice (kNoItem is never placed), but exact
  }
  if (pos == 0) return std::nullopt;
  const std::uint32_t slot = by_offset_[pos - 1];
  if (recs_[slot].offset + recs_[slot].extent > offset) return placed(slot);
  return std::nullopt;
}

std::optional<PlacedItem> SlabStore::first_at_or_after(Tick offset) const {
  const std::size_t pos = index_lower_bound(offset, ItemId{0});
  if (pos == by_offset_.size()) return std::nullopt;
  return placed(by_offset_[pos]);
}

std::optional<PlacedItem> SlabStore::last_before(Tick offset) const {
  const std::size_t pos = index_lower_bound(offset, ItemId{0});
  if (pos == 0) return std::nullopt;
  return placed(by_offset_[pos - 1]);
}

std::optional<PlacedItem> SlabStore::first_item() const {
  if (by_offset_.empty()) return std::nullopt;
  return placed(by_offset_.front());
}

std::optional<PlacedItem> SlabStore::last_item() const {
  if (by_offset_.empty()) return std::nullopt;
  return placed(by_offset_.back());
}

SlabStore::Neighbors SlabStore::neighbors_of(ItemId id) const {
  const std::uint32_t slot = slot_of(id);
  const std::size_t pos = index_pos_[slot];
  Neighbors out;
  if (pos > 0) out.prev = placed(by_offset_[pos - 1]);
  if (pos + 1 < by_offset_.size()) out.next = placed(by_offset_[pos + 1]);
  return out;
}

std::vector<PlacedItem> SlabStore::items_in(Tick from, Tick to) const {
  std::vector<PlacedItem> out;
  for (std::size_t pos = index_lower_bound(from, ItemId{0});
       pos < by_offset_.size() && recs_[by_offset_[pos]].offset < to;
       ++pos) {
    out.push_back(placed(by_offset_[pos]));
  }
  return out;
}

std::vector<PlacedItem> SlabStore::snapshot() const {
  std::vector<PlacedItem> out;
  out.reserve(by_offset_.size());
  for (const std::uint32_t slot : by_offset_) out.push_back(placed(slot));
  return out;
}

std::vector<std::pair<Tick, Tick>> SlabStore::gaps() const {
  std::vector<std::pair<Tick, Tick>> out;
  Tick cursor = 0;
  for (const std::uint32_t slot : by_offset_) {
    const Record& r = recs_[slot];
    if (r.offset > cursor) out.emplace_back(cursor, r.offset - cursor);
    cursor = std::max(cursor, r.offset + r.extent);
  }
  return out;
}

// -- Validation -------------------------------------------------------------

void SlabStore::audit() const {
  MEMREAL_CHECK_MSG(by_offset_.size() == recs_.size(),
                    "by-offset index size drift");
  MEMREAL_CHECK_MSG(index_pos_.size() == recs_.size(),
                    "position-cache size drift");
  MEMREAL_CHECK_MSG(ids_.size() == recs_.size(), "id-map size drift");

  Tick live = 0;
  Tick ext = 0;
  Tick prev_end = 0;
  Tick max_end = 0;
  ItemId prev_id = kNoItem;
  Tick prev_offset = 0;
  for (std::size_t pos = 0; pos < by_offset_.size(); ++pos) {
    const std::uint32_t slot = by_offset_[pos];
    MEMREAL_CHECK_MSG(slot < recs_.size(), "by-offset index slot drift");
    const auto [id, offset, size, extent] = recs_[slot];
    MEMREAL_CHECK_MSG(index_pos_[slot] == pos,
                      "position-cache drift for item " << id);
    if (pos > 0) {
      MEMREAL_CHECK_MSG(
          (std::pair{prev_offset, prev_id} < std::pair{offset, id}),
          "by-offset index out of order at item " << id);
    }
    MEMREAL_CHECK_MSG(offset >= prev_end,
                      "overlap: item " << id << " at [" << offset << ", "
                                       << offset + extent
                                       << ") intersects item " << prev_id
                                       << " ending at " << prev_end);
    MEMREAL_CHECK(extent >= size);
    const std::uint32_t* mapped = ids_.find(id);
    MEMREAL_CHECK_MSG(mapped != nullptr && *mapped == slot,
                      "id-map drift for item " << id);
    prev_end = offset + extent;
    max_end = std::max(max_end, prev_end);
    prev_id = id;
    prev_offset = offset;
    live += size;
    ext += extent;
  }
  MEMREAL_CHECK_MSG(live == live_mass_, "live-mass accounting drift");
  MEMREAL_CHECK_MSG(ext == extent_mass_, "extent-mass accounting drift");
  MEMREAL_CHECK_MSG(span_end() == max_end, "span-cache drift");

  MEMREAL_CHECK_MSG(max_end <= capacity_, "layout beyond capacity");
  if (policy_.check_resizable_bound) {
    MEMREAL_CHECK_MSG(max_end <= live_mass_ + eps_ticks_,
                      "resizable bound violated: span "
                          << max_end << " > L + eps = "
                          << live_mass_ + eps_ticks_);
  }
  if (policy_.check_load_factor) {
    MEMREAL_CHECK_MSG(live_mass_ + eps_ticks_ <= capacity_,
                      "load factor above 1 - eps");
  }
}

void SlabStore::debug_corrupt_first_offset(Tick delta) {
  MEMREAL_CHECK_MSG(!by_offset_.empty(), "nothing to corrupt");
  recs_[by_offset_.front()].offset += delta;
}

}  // namespace memreal
