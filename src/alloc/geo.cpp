#include "alloc/geo.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>

#include "util/check.h"
#include "util/thresholds.h"

namespace memreal {

namespace {

bool key_less(const GeoClassItems::Entry& e, Tick size, ItemId id) {
  return e.size != size ? e.size < size : e.id < id;
}

}  // namespace

void GeoClassItems::insert(const Entry& e) {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), e,
      [](const Entry& a, const Entry& b) { return key_less(a, b.size, b.id); });
  MEMREAL_CHECK_MSG(it == entries_.end() || key_less(e, it->size, it->id),
                    "class entry (" << e.size << ", " << e.id
                                    << ") already present");
  entries_.insert(it, e);
}

void GeoClassItems::erase(Tick size, ItemId id) {
  auto it = std::lower_bound(entries_.begin(), entries_.end(), size,
                             [id](const Entry& a, Tick sz) {
                               return key_less(a, sz, id);
                             });
  MEMREAL_CHECK_MSG(it != entries_.end() && it->size == size && it->id == id,
                    "class entry (" << size << ", " << id << ") absent");
  entries_.erase(it);
}

GeoAllocator::GeoAllocator(LayoutStore& mem, const GeoConfig& config)
    : mem_(&mem),
      eps_(config.eps),
      rng_(config.seed),
      deterministic_(config.deterministic_thresholds) {
  MEMREAL_CHECK(eps_ > 0 && eps_ < 0.5);
  cap_ = mem_->capacity();
  const auto cap_d = static_cast<double>(cap_);
  // GEO's free-space parameter comes from its own config: Corollary 4.10
  // instantiates GEO with eps/2 inside a memory whose global parameter is
  // eps.  Standalone uses the full eps.
  eps_t_ = static_cast<Tick>(eps_ * cap_d);
  MEMREAL_CHECK(eps_t_ > 1);

  const double e5_d = std::pow(eps_, 5.0) * cap_d;
  e5_ = std::max<Tick>(1, static_cast<Tick>(e5_d));
  huge_thr_ = std::max<Tick>(
      e5_ + 1, static_cast<Tick>(std::sqrt(eps_) / 100.0 * cap_d));
  MEMREAL_CHECK_MSG(
      static_cast<double>(e5_) * std::sqrt(eps_) >= 1.0,
      "capacity too small for eps: class boundaries would collapse; "
      "increase Memory capacity");

  // Geometric size-class boundaries: lo_0 = eps^5, hi_c = lo_c * beta.
  const double beta = 1.0 + std::sqrt(eps_);
  double lo = static_cast<double>(e5_);
  while (true) {
    const auto lo_t = static_cast<Tick>(lo);
    auto hi_t = static_cast<Tick>(lo * beta);
    if (hi_t <= lo_t) hi_t = lo_t + 1;
    class_lo_.push_back(lo_t);
    class_hi_.push_back(hi_t);
    if (hi_t >= huge_thr_) break;
    lo = lo * beta;
    MEMREAL_CHECK_MSG(class_lo_.size() < 1u << 22, "class explosion");
  }
  // The last class absorbs everything up to the huge threshold.
  class_hi_.back() = std::max(class_hi_.back(), huge_thr_);

  // Levels: ell = ceil(4.5 log2(eps^-1)); m_j = 2^{ell-j+1} * eps^5.
  ell_ = static_cast<int>(std::ceil(4.5 * std::log2(1.0 / eps_)));
  MEMREAL_CHECK(ell_ >= 1);
  m_.assign(static_cast<std::size_t>(ell_) + 1, 0);
  m_[0] = cap_;
  for (int j = 1; j <= ell_; ++j) {
    const int shift = ell_ - j + 1;
    MEMREAL_CHECK(shift < 62);
    m_[static_cast<std::size_t>(j)] = e5_ << shift;
  }
  // Every non-huge item must fit in level 1: m_1 >= 2 * max class bound.
  MEMREAL_CHECK_MSG(m_[1] >= 2 * class_hi_.back(),
                    "level-1 mass limit below the largest non-huge class");

  // c_{i,j} = floor(m_j / b_i); j* = deepest level with c >= 1.
  const std::size_t classes = class_lo_.size();
  c_.assign(classes, std::vector<std::uint64_t>(
                         static_cast<std::size_t>(ell_) + 1, 0));
  jstar_.assign(classes, 1);
  for (std::size_t i = 0; i < classes; ++i) {
    c_[i][0] = ~std::uint64_t{0};  // level 0 is all of memory: no limit
    for (int j = 1; j <= ell_; ++j) {
      c_[i][static_cast<std::size_t>(j)] =
          m_[static_cast<std::size_t>(j)] / class_hi_[i];
      if (c_[i][static_cast<std::size_t>(j)] >= 1) jstar_[i] = j;
    }
    MEMREAL_CHECK(c_[i][1] >= 1);
  }

  // Counters and randomized thresholds, all "freshly freely rebuilt".
  ins_count_.assign(classes, std::vector<std::uint64_t>(
                                 static_cast<std::size_t>(ell_) + 1, 0));
  del_count_ = ins_count_;
  ins_thr_.assign(classes, std::vector<std::uint64_t>(
                               static_cast<std::size_t>(ell_) + 1, 1));
  del_thr_ = ins_thr_;
  for (std::size_t i = 0; i < classes; ++i) {
    for (int j = 1; j <= jstar_[i]; ++j) {
      ins_thr_[i][static_cast<std::size_t>(j)] =
          sample_threshold(c_[i][static_cast<std::size_t>(j)]);
      del_thr_[i][static_cast<std::size_t>(j)] =
          sample_threshold(c_[i][static_cast<std::size_t>(j)]);
    }
  }

  class_items_.assign(classes, GeoClassItems{});
  waste_thr_ = rng_.next_tick_in(eps_t_ / 2, eps_t_);
}

Tick GeoAllocator::min_capacity(double eps) {
  MEMREAL_CHECK(eps > 0 && eps < 0.5);
  // The constructor needs e5 = floor(eps^5 * capacity) with
  // e5 * sqrt(eps) >= 1.  Find the smallest such e5, then the smallest
  // capacity reaching it, both evaluated in the constructor's arithmetic
  // (each predicate is monotone, so stepping from a guess finds the edge).
  const double root = std::sqrt(eps);
  auto e5 = static_cast<Tick>(1.0 / root);
  while (static_cast<double>(e5) * root < 1.0) ++e5;
  const double per_tick = std::pow(eps, 5.0);
  const double guess = std::ceil(static_cast<double>(e5) / per_tick);
  if (guess >= 0x1p63) return std::numeric_limits<Tick>::max();
  auto reaches = [&](Tick cap) {
    return static_cast<Tick>(per_tick * static_cast<double>(cap)) >= e5;
  };
  auto cap = static_cast<Tick>(guess);
  while (cap > 1 && reaches(cap - 1)) --cap;
  while (!reaches(cap)) ++cap;
  return cap;
}

std::uint64_t GeoAllocator::sample_threshold(std::uint64_t c) {
  MEMREAL_CHECK(c >= 1);
  const std::uint64_t lo = ceil_div(c, 4);
  const std::uint64_t hi = ceil_div(c, 3);
  if (deterministic_) return hi;
  return rng_.next_in(lo, hi);
}

std::size_t GeoAllocator::class_of_size(Tick size) const {
  MEMREAL_CHECK_MSG(size >= class_lo_.front(), "size below eps^5");
  MEMREAL_CHECK_MSG(size < huge_thr_, "class_of_size on a huge item");
  auto it = std::upper_bound(class_lo_.begin(), class_lo_.end(), size);
  auto idx = static_cast<std::size_t>(it - class_lo_.begin()) - 1;
  // Collapsed boundaries (equal class_lo values) resolve to the last one.
  MEMREAL_CHECK(size >= class_lo_[idx] && size < class_hi_[idx]);
  return idx;
}

void GeoAllocator::place_from(std::size_t from) {
  const Tick off = from == 0 ? 0 : mem_->end_of(order_[from - 1]);
  mem_->apply_run(std::span<const ItemId>(order_).subspan(from),
                  std::span<const std::uint32_t>(store_slots_).subspan(from),
                  off);
}

void GeoAllocator::apply_layout(std::size_t from) {
  place_from(from);
  for (std::size_t k = from; k < slots_.size(); ++k) {
    info_[slots_[k]].pos = static_cast<std::uint32_t>(k);
  }
}

GeoAllocator::Slot GeoAllocator::claim_slot(ItemId id, std::size_t cls,
                                            std::size_t pos) {
  // Both slot and pos stay below info_.size() after the claim (pos is at
  // most the live count before it), so bounding info_.size() by the Slot
  // range keeps both narrowings exact.
  MEMREAL_CHECK_MSG(!free_slots_.empty() ||
                        info_.size() < std::numeric_limits<Slot>::max(),
                    "too many items for GEO");
  const Slot slot = free_slots_.empty() ? static_cast<Slot>(info_.size())
                                        : free_slots_.back();
  MEMREAL_CHECK_MSG(slot_of_.try_emplace(id, slot).second,
                    "duplicate id " << id);
  if (free_slots_.empty()) {
    info_.emplace_back();
  } else {
    free_slots_.pop_back();
  }
  info_[slot] = Info{id, static_cast<std::uint32_t>(cls),
                     static_cast<std::uint32_t>(pos)};
  return slot;
}

void GeoAllocator::release_slot(ItemId id, Slot slot) {
  slot_of_.erase(id);
  info_[slot] = Info{};
  free_slots_.push_back(slot);
}

void GeoAllocator::erase_at(std::size_t k) {
  const auto at = static_cast<std::ptrdiff_t>(k);
  order_.erase(order_.begin() + at);
  labels_.erase(labels_.begin() + at);
  slots_.erase(slots_.begin() + at);
  store_slots_.erase(store_slots_.begin() + at);
}

std::size_t GeoAllocator::suffix_start_for_label(int label) const {
  // labels_ is non-decreasing (huge = -1 first): the first index whose
  // label is >= label.
  return static_cast<std::size_t>(
      std::lower_bound(labels_.begin(), labels_.end(), label) -
      labels_.begin());
}

std::size_t GeoAllocator::level_item_count(int j) const {
  return order_.size() - suffix_start_for_label(j);
}

int GeoAllocator::label_of(ItemId id) const {
  const Slot* slot = slot_of_.find(id);
  MEMREAL_CHECK_MSG(slot != nullptr, "label_of unknown item " << id);
  return labels_[info_[*slot].pos];
}

void GeoAllocator::rebuild_level(int j0) {
  MEMREAL_CHECK(j0 >= 1 && j0 <= ell_);
  ++level_rebuilds_;
  // We rearrange level j0-1 (labels >= j0-1): the suffix order_[ss, end).
  const std::size_t ss = suffix_start_for_label(j0 - 1);
  const std::size_t n = order_.size() - ss;

  // New labels.  For each class, walk its items in ascending logical size:
  // the item of rank k belongs to I_j for every j with k < c_{i,j}; its new
  // label is the deepest such j >= j0 (or j0-1 if none).  Lemma 4.2
  // guarantees the c_{i,j0} smallest live inside the rearranged suffix —
  // with one implementation caveat: repeated swap-inflation creates exact
  // logical-size *ties*, and among tied items only enough of them need to
  // be inside the suffix.  Selection therefore prefers suffix members among
  // ties; a strictly smaller item outside the suffix is a genuine
  // violation.  Suffix items no class selects fall back to label j0-1.
  new_labels_.assign(n, j0 - 1);
  for (std::size_t i = 0; i < class_lo_.size(); ++i) {
    const std::span<const GeoClassItems::Entry> items =
        class_items_[i].entries();
    if (items.empty()) continue;
    const std::vector<std::uint64_t>& c = c_[i];
    const std::uint64_t take = c[static_cast<std::size_t>(j0)];
    if (take == 0) continue;
    // Rank the `take` smallest by (logical size, suffix members first).
    // The class yields (size, id) order, so visiting each run of equal
    // sizes twice — suffix members, then the rest — is the stable sort by
    // that key.  take > 0 means j*_i >= j0, and c_{i,j} falls as j grows,
    // so the deepest level admitting a rank only gets shallower as the
    // rank grows.
    std::uint64_t rank = 0;
    int j = jstar_[i];
    for (std::size_t a = 0; a < items.size() && rank < take;) {
      std::size_t b = a + 1;
      while (b < items.size() && items[b].size == items[a].size) ++b;
      for (const bool suffix_pass : {true, false}) {
        for (std::size_t k = a; k < b && rank < take; ++k) {
          const std::size_t pos = info_[items[k].slot].pos;
          if ((pos >= ss) != suffix_pass) continue;
          MEMREAL_CHECK_MSG(
              pos >= ss, "Lemma 4.2 violated: I_j member outside level j0-1");
          while (j >= j0 && rank >= c[static_cast<std::size_t>(j)]) --j;
          new_labels_[pos - ss] = j;  // j0-1 once no level admits rank
          ++rank;
        }
      }
      a = b;
    }
  }

  // Stable counting sort of the suffix by new label (I_j to the right of
  // its complement, for every j >= j0).  bucket_[l + 1] counts label l;
  // the prefix sums turn bucket_[l] into label l's first slot.
  bucket_.assign(static_cast<std::size_t>(ell_) + 2, 0);
  for (const int l : new_labels_) ++bucket_[static_cast<std::size_t>(l) + 1];
  for (std::size_t l = 1; l < bucket_.size(); ++l) {
    bucket_[l] += bucket_[l - 1];
  }
  // Only items the sort displaces need their pos rewritten.
  sorted_.resize(n);
  sorted_slots_.resize(n);
  sorted_store_slots_.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    const int l = new_labels_[k];
    const std::size_t dst = bucket_[static_cast<std::size_t>(l)]++;
    const Slot slot = slots_[ss + k];
    sorted_[dst] = order_[ss + k];
    sorted_slots_[dst] = slot;
    sorted_store_slots_[dst] = store_slots_[ss + k];
    labels_[ss + dst] = l;
    if (dst != k) info_[slot].pos = static_cast<std::uint32_t>(ss + dst);
  }
  const auto at = static_cast<std::ptrdiff_t>(ss);
  std::copy(sorted_.begin(), sorted_.end(), order_.begin() + at);
  std::copy(sorted_slots_.begin(), sorted_slots_.end(), slots_.begin() + at);
  std::copy(sorted_store_slots_.begin(), sorted_store_slots_.end(),
            store_slots_.begin() + at);
  place_from(ss);
}

void GeoAllocator::bump_counters_and_rebuild(std::size_t cls,
                                             bool is_insert) {
  auto& count = is_insert ? ins_count_[cls] : del_count_[cls];
  auto& thr = is_insert ? ins_thr_[cls] : del_thr_[cls];
  const int js = jstar_[cls];
  int j0 = 0;
  for (int j = 1; j <= js; ++j) {
    ++count[static_cast<std::size_t>(j)];
  }
  for (int j = 1; j <= js; ++j) {
    if (count[static_cast<std::size_t>(j)] >=
        thr[static_cast<std::size_t>(j)]) {
      j0 = j;
      break;
    }
  }
  // The deepest level's threshold range is [1, 1], so some level fires on
  // every update of this class.
  MEMREAL_CHECK_MSG(j0 >= 1, "no level fired; threshold state corrupt");
  rebuild_level(j0);
  // J = all levels whose counter crossed; they are freely rebuilt.
  for (int j = j0; j <= js; ++j) {
    if (count[static_cast<std::size_t>(j)] >=
        thr[static_cast<std::size_t>(j)]) {
      count[static_cast<std::size_t>(j)] = 0;
      thr[static_cast<std::size_t>(j)] =
          sample_threshold(c_[cls][static_cast<std::size_t>(j)]);
    }
  }
}

void GeoAllocator::waste_recovery() {
  ++waste_recoveries_;
  // Revert all logical inflation, compact everything, rebuild level 1.
  for (std::size_t k = huge_count_; k < order_.size(); ++k) {
    const ItemId id = order_[k];
    const Tick ext = mem_->extent_of(id);
    const Tick sz = mem_->size_of(id);
    if (ext != sz) {
      GeoClassItems& items = class_items_[info_[slots_[k]].cls];
      items.erase(ext, id);
      mem_->reset_extent(id);
      items.insert({sz, id, slots_[k]});
    }
  }
  apply_layout(0);
  rebuild_level(1);
  // waste_acc_ already holds the overflow W - T (see erase()).
  waste_thr_ = rng_.next_tick_in(eps_t_ / 2, eps_t_);
}

void GeoAllocator::insert(ItemId id, Tick size) {
  if (size >= huge_thr_) {
    // Huge item: append to the huge prefix; everything after shifts right.
    // Cost <= L / size <= O(eps^-1/2).
    const Slot slot = claim_slot(id, 0, huge_count_);
    const auto at = static_cast<std::ptrdiff_t>(huge_count_);
    order_.insert(order_.begin() + at, id);
    labels_.insert(labels_.begin() + at, -1);
    slots_.insert(slots_.begin() + at, slot);
    const Tick off =
        huge_count_ == 0 ? 0 : mem_->end_of(order_[huge_count_ - 1]);
    mem_->place(id, off, size);
    store_slots_.insert(store_slots_.begin() + at, mem_->slot_of(id));
    ++huge_count_;
    apply_layout(huge_count_);
    return;
  }

  const std::size_t cls = class_of_size(size);
  const Slot slot = claim_slot(id, cls, order_.size());
  // Place immediately after the final item (Algorithm 3), label ell.
  const Tick off = order_.empty() ? 0 : mem_->end_of(order_.back());
  mem_->place(id, off, size);
  order_.push_back(id);
  labels_.push_back(ell_);
  slots_.push_back(slot);
  store_slots_.push_back(mem_->slot_of(id));
  class_items_[cls].insert({size, id, slot});

  bump_counters_and_rebuild(cls, /*is_insert=*/true);
}

void GeoAllocator::erase(ItemId id) {
  const Slot* found = slot_of_.find(id);
  MEMREAL_CHECK_MSG(found != nullptr, "erase of unknown item " << id);
  const Slot slot = *found;
  const Info inf = info_[slot];
  const int label = labels_[inf.pos];

  if (label < 0) {
    // Huge delete: remove and close the hole (compacts huge prefix and
    // shifts the rest left).  Cost <= L / size <= O(eps^-1/2).
    mem_->remove(id);
    erase_at(inf.pos);
    release_slot(id, slot);
    --huge_count_;
    apply_layout(inf.pos);
    return;
  }

  const std::size_t cls = inf.cls;
  const int js = jstar_[cls];
  GeoClassItems& items = class_items_[cls];
  bool swapped = false;
  Tick swap_waste = 0;
  std::size_t hole_pos;

  if (label < js) {
    // Swap in the smallest class item I' (Algorithm 4 lines 5-8); the
    // invariants guarantee one of minimum logical size lives in level j*
    // (ties are resolved toward the deep copy).
    MEMREAL_CHECK(!items.empty());
    const Tick min_size = items.entries().front().size;
    GeoClassItems::Entry other;
    for (const GeoClassItems::Entry& e : items.entries()) {
      if (e.size != min_size) break;
      if (e.id == id) continue;
      if (labels_[info_[e.slot].pos] >= js) {
        other = e;
        break;
      }
    }
    MEMREAL_CHECK_MSG(other.id != kNoItem,
                      "invariant violated: no class minimum in level j*");
    const Tick my_extent = mem_->extent_of(id);
    MEMREAL_CHECK_MSG(other.size <= my_extent,
                      "swap candidate larger than deleted item");

    const std::size_t p = inf.pos;
    const std::size_t q = info_[other.slot].pos;
    MEMREAL_CHECK(q > p);
    const Tick off = mem_->offset_of(id);
    mem_->remove(id);
    release_slot(id, slot);
    items.erase(my_extent, id);         // the deleted item leaves its class
    items.erase(other.size, other.id);  // I' re-keyed below
    items.insert({my_extent, other.id, other.slot});
    mem_->move_to(other.id, off);
    mem_->set_extent(other.id, my_extent);
    // I' takes I's place in the order and inherits its label.
    info_[other.slot].pos = static_cast<std::uint32_t>(p);
    order_[p] = other.id;
    slots_[p] = other.slot;
    store_slots_[p] = store_slots_[q];
    erase_at(q);
    hole_pos = q;
    swapped = true;
    // Waste bound: class width (exact intra-class extent difference).
    swap_waste = class_hi_[cls] - class_lo_[cls];
  } else {
    // Delete inside level j*: just remove.
    items.erase(mem_->extent_of(id), id);
    mem_->remove(id);
    hole_pos = inf.pos;
    erase_at(inf.pos);
    release_slot(id, slot);
    swapped = false;
  }
  // Compact level j* (and anything to its right) — closes the hole.
  apply_layout(hole_pos);

  bump_counters_and_rebuild(cls, /*is_insert=*/false);

  if (swapped) {
    waste_acc_ += swap_waste;
    if (waste_acc_ >= waste_thr_) {
      waste_acc_ -= waste_thr_;  // overflow carries (paper: waste = W - T)
      waste_recovery();
    }
  }
}

void GeoAllocator::check_invariants() const {
  MEMREAL_CHECK(labels_.size() == order_.size());
  MEMREAL_CHECK(slots_.size() == order_.size());
  MEMREAL_CHECK(store_slots_.size() == order_.size());
  MEMREAL_CHECK(slot_of_.size() == order_.size());
  MEMREAL_CHECK(info_.size() == order_.size() + free_slots_.size());
  // Slots: order_, slots_, info_ and the id map agree on every live item;
  // each free slot is listed once and carries no id.
  for (std::size_t k = 0; k < order_.size(); ++k) {
    const Slot slot = slots_[k];
    MEMREAL_CHECK(slot < info_.size());
    MEMREAL_CHECK_MSG(info_[slot].id == order_[k] && info_[slot].pos == k,
                      "info_[slots_[" << k << "]] disagrees with order_");
    MEMREAL_CHECK(slot_of_.at(order_[k]) == slot);
    MEMREAL_CHECK_MSG(store_slots_[k] == mem_->slot_of(order_[k]),
                      "store_slots_[" << k << "] is stale");
  }
  std::vector<bool> listed(info_.size(), false);
  for (const Slot slot : free_slots_) {
    MEMREAL_CHECK(slot < info_.size() && !listed[slot]);
    MEMREAL_CHECK_MSG(info_[slot].id == kNoItem, "free slot holds an id");
    listed[slot] = true;
  }
  // Layout: contiguous extents, labels ascending (huge prefix first).
  Tick off = 0;
  int prev_label = -1;
  for (std::size_t k = 0; k < order_.size(); ++k) {
    const ItemId id = order_[k];
    const int label = labels_[k];
    MEMREAL_CHECK_MSG(mem_->offset_of(id) == off, "layout not contiguous");
    MEMREAL_CHECK_MSG(label >= prev_label && label <= ell_,
                      "labels out of order");
    MEMREAL_CHECK_MSG((label < 0) == (k < huge_count_),
                      "huge prefix and label -1 disagree");
    prev_label = label;
    off += mem_->extent_of(id);
  }
  // Waste: total inflation across GEO's own items stays below eps.  (Under
  // the combined allocator, other items share the Memory.)
  Tick waste = 0;
  for (const ItemId id : order_) {
    waste += mem_->extent_of(id) - mem_->size_of(id);
  }
  MEMREAL_CHECK_MSG(waste <= eps_t_, "inflation waste above eps");
  // Level-size invariant: per class and level j, at most 2*c_{i,j} items
  // with label >= j (and none beyond j*).
  const std::size_t classes = class_lo_.size();
  std::vector<std::vector<std::uint64_t>> cnt(
      classes,
      std::vector<std::uint64_t>(static_cast<std::size_t>(ell_) + 1, 0));
  for (std::size_t k = huge_count_; k < order_.size(); ++k) {
    cnt[info_[slots_[k]].cls][static_cast<std::size_t>(labels_[k])] += 1;
  }
  for (std::size_t i = 0; i < classes; ++i) {
    std::uint64_t suffix = 0;
    for (int j = ell_; j >= 1; --j) {
      suffix += cnt[i][static_cast<std::size_t>(j)];
      MEMREAL_CHECK_MSG(
          suffix <= 2 * c_[i][static_cast<std::size_t>(j)],
          "level-size invariant violated: class " << i << " level " << j
                                                  << " has " << suffix);
    }
  }
  // Class arrays: sorted by (logical size, id), keyed by current extent,
  // each entry's slot naming its id and class; together they hold exactly
  // the non-huge items.  Some item of minimum logical size of every
  // inhabited class sits in level j* (needed for deletions to be
  // well-defined; ties may leave equal-size copies in shallower levels).
  std::size_t entries = 0;
  for (std::size_t i = 0; i < classes; ++i) {
    const std::span<const GeoClassItems::Entry> items =
        class_items_[i].entries();
    entries += items.size();
    bool deep = false;
    for (std::size_t m = 0; m < items.size(); ++m) {
      const GeoClassItems::Entry& e = items[m];
      MEMREAL_CHECK(m == 0 || key_less(items[m - 1], e.size, e.id));
      MEMREAL_CHECK(e.slot < info_.size());
      const Info& inf = info_[e.slot];
      MEMREAL_CHECK_MSG(inf.id == e.id && inf.cls == i,
                        "class entry's slot names another item");
      MEMREAL_CHECK(labels_[inf.pos] >= 0);
      MEMREAL_CHECK(mem_->extent_of(e.id) == e.size);
      if (e.size == items.front().size && labels_[inf.pos] >= jstar_[i]) {
        deep = true;
      }
    }
    MEMREAL_CHECK_MSG(items.empty() || deep, "class minimum escaped level j*");
  }
  MEMREAL_CHECK(entries == order_.size() - huge_count_);
}

}  // namespace memreal
