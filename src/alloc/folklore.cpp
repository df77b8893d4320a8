#include "alloc/folklore.h"

#include <algorithm>
#include <vector>

#include "util/check.h"

namespace memreal {

namespace {

/// First fit: the start of the leftmost gap of at least `size` ticks, else
/// the span end (the append point).
Tick first_fit(const LayoutStore& mem, Tick size) {
  for (const auto& [start, length] : mem.gaps()) {
    if (length >= size) return start;
  }
  return mem.span_end();
}

}  // namespace

// ---------------------------------------------------------------------------
// FolkloreCompact
// ---------------------------------------------------------------------------

FolkloreCompact::FolkloreCompact(LayoutStore& mem) : mem_(&mem) {}

void FolkloreCompact::insert(ItemId id, Tick size) {
  // An append lands at the span end: waste <= eps/2 guarantees it is
  // <= L + eps/2, so the new end stays within [0, (L + size) + eps].
  mem_->place(id, first_fit(*mem_, size), size);
}

void FolkloreCompact::erase(ItemId id) {
  mem_->remove(id);
  // Waste (span beyond the live mass) above eps/2 triggers a compaction.
  if (mem_->span_end() - mem_->live_mass() > mem_->eps_ticks() / 2) {
    compact();
  }
}

void FolkloreCompact::compact() {
  ++compactions_;
  Tick off = 0;
  for (const PlacedItem& item : mem_->snapshot()) {
    mem_->move_to(item.id, off);
    off += item.extent;
  }
}

void FolkloreCompact::check_invariants() const {
  MEMREAL_CHECK_MSG(mem_->span_end() - mem_->live_mass() <= mem_->eps_ticks(),
                    "folklore-compact waste above eps");
}

// ---------------------------------------------------------------------------
// FolkloreWindowed
// ---------------------------------------------------------------------------

FolkloreWindowed::FolkloreWindowed(LayoutStore& mem) : mem_(&mem) {
  mem_->policy().check_resizable_bound = false;
}

void FolkloreWindowed::insert(ItemId id, Tick size) {
  // Cheap path: first fit into an existing gap or the tail.  An interior
  // gap always fits inside capacity; only the tail can fall short.
  Tick off = first_fit(*mem_, size);
  if (mem_->capacity() - off < size) {
    // Pigeonhole path.
    ++windowed_inserts_;
    off = windowed_place(size);
  }
  mem_->place(id, off, size);
}

Tick FolkloreWindowed::windowed_place(Tick size) {
  const Tick cap = mem_->capacity();
  const Tick eps_t = mem_->eps_ticks();
  // Every pass reads offsets from this snapshot: each item is read before
  // it moves, and moves touch only the item moved.
  const std::vector<PlacedItem> items = mem_->snapshot();
  // Window size W = ceil(3 * size / eps); if W >= capacity, compact all.
  __uint128_t w128 = (static_cast<__uint128_t>(size) * 3 * cap + eps_t - 1) /
                     eps_t;
  if (w128 >= cap) {
    // Full compaction; place at the end.
    Tick off = 0;
    for (const PlacedItem& it : items) {
      mem_->move_to(it.id, off);
      off += it.extent;
    }
    MEMREAL_CHECK_MSG(cap - off >= size, "promise violated: no room");
    return off;
  }
  const Tick w = static_cast<Tick>(w128);
  const std::size_t windows = static_cast<std::size_t>((cap + w - 1) / w);

  // One pass: free ticks per window (an item contributes its overlap).
  std::vector<Tick> used(windows, 0);
  for (const PlacedItem& it : items) {
    Tick lo = it.offset;
    const Tick hi = it.offset + it.extent;
    while (lo < hi) {
      const std::size_t win = static_cast<std::size_t>(lo / w);
      const Tick win_end = std::min<Tick>((win + 1) * w, cap);
      const Tick take = std::min(hi, win_end) - lo;
      used[win] += take;
      lo += take;
    }
  }
  std::size_t win = windows;
  for (std::size_t i = 0; i < windows; ++i) {
    const Tick win_end = std::min<Tick>((i + 1) * w, cap);
    const Tick len = win_end - i * w;
    if (len >= used[i] && len - used[i] >= 2 * size) {
      win = i;
      break;
    }
  }
  MEMREAL_CHECK_MSG(win != windows,
                    "pigeonhole failed: no window with 2k free");

  // Compact the items fully inside the window against its left anchor
  // (the end of a left straddler, or the window start).
  const Tick win_lo = win * w;
  const Tick win_hi = std::min<Tick>((win + 1) * w, cap);
  Tick anchor = win_lo;
  for (const PlacedItem& it : items) {
    const Tick hi = it.offset + it.extent;
    if (it.offset < win_lo && hi > win_lo) anchor = std::max(anchor, hi);
  }
  for (const PlacedItem& it : items) {
    if (it.offset >= win_lo && it.offset + it.extent <= win_hi) {
      mem_->move_to(it.id, anchor);
      anchor += it.extent;
    }
  }
  // The opened gap runs from `anchor` to the right straddler (or window
  // end); it is at least 2k - (free beyond the window) >= k.
  return anchor;
}

void FolkloreWindowed::erase(ItemId id) { mem_->remove(id); }

}  // namespace memreal
