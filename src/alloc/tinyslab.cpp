#include "alloc/tinyslab.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>

#include "util/check.h"

namespace memreal {

namespace {

class IdentityUnitSpace final : public UnitSpace {
 public:
  explicit IdentityUnitSpace(Tick unit_size) : m_(unit_size) {}
  [[nodiscard]] Tick unit_offset(std::size_t unit) const override {
    return static_cast<Tick>(unit) * m_;
  }
  void on_unit_created(std::size_t) override {}
  void on_unit_destroyed(std::size_t) override {}

 private:
  Tick m_;
};

[[nodiscard]] Tick floor_pow2(Tick x) {
  MEMREAL_CHECK(x >= 1);
  return Tick{1} << (63 - std::countl_zero(x));
}

[[nodiscard]] Tick ceil_pow2(Tick x) {
  MEMREAL_CHECK(x >= 1);
  const Tick f = floor_pow2(x);
  return f == x ? x : f << 1;
}

/// Default size-class span: the smallest class is max_size / 4096.
constexpr Tick kClassSpan = 4096;

/// Default largest item size: the Section 4.2 tiny/large threshold.
[[nodiscard]] Tick default_max_size(double eps, Tick capacity) {
  return static_cast<Tick>(std::pow(eps, 4.0) *
                           static_cast<double>(capacity));
}

}  // namespace

TinySlabAllocator::TinySlabAllocator(LayoutStore& mem,
                                     const TinySlabConfig& config,
                                     UnitSpace* space)
    : mem_(&mem), rng_(config.seed) {
  const double eps = config.eps;
  MEMREAL_CHECK(eps > 0 && eps < 0.5);
  const auto cap_d = static_cast<double>(mem_->capacity());

  max_size_ = config.max_size ? config.max_size
                              : default_max_size(eps, mem_->capacity());
  min_size_ = config.min_size ? config.min_size : max_size_ / kClassSpan;
  MEMREAL_CHECK_MSG(min_size_ >= 1, "capacity too small for tiny items");
  MEMREAL_CHECK(min_size_ <= max_size_);
  slack_budget_ = config.slack_budget
                      ? config.slack_budget
                      : static_cast<Tick>(eps / 4.0 * cap_d);

  // Unit size: the largest power of two <= eps^3 * capacity, but at least
  // large enough to host the largest class's slab.
  M_ = floor_pow2(std::max<Tick>(
      16 * max_size_, static_cast<Tick>(std::pow(eps, 3.0) * cap_d)));

  // Size classes: extents e_k descending with ratio rho = 1 + eps/4,
  // starting at max_size_ and stopping at min_size_.
  const double rho = 1.0 + eps / 4.0;
  double e = static_cast<double>(max_size_);
  while (true) {
    auto ek = static_cast<Tick>(e);
    if (!extent_.empty() && ek >= extent_.back()) ek = extent_.back() - 1;
    if (ek < min_size_) break;
    extent_.push_back(ek);
    if (ek == min_size_) break;
    e /= rho;
    MEMREAL_CHECK_MSG(extent_.size() < (1u << 22), "class explosion");
  }
  MEMREAL_CHECK(!extent_.empty());
  if (extent_.back() > min_size_) extent_.push_back(min_size_);

  sigma_.resize(extent_.size());
  slots_per_slab_.resize(extent_.size());
  std::size_t max_level = 0;
  for (std::size_t k = 0; k < extent_.size(); ++k) {
    sigma_[k] = std::min(M_, ceil_pow2(4 * extent_[k]));
    slots_per_slab_[k] = static_cast<std::size_t>(sigma_[k] / extent_[k]);
    MEMREAL_CHECK(slots_per_slab_[k] >= 4);
    max_level = std::max(max_level, level_of_sigma(sigma_[k]));
  }
  levels_ = max_level + 1;
  free_.resize(levels_);
  class_slabs_.resize(extent_.size());

  if (space != nullptr) {
    space_ = space;
  } else {
    owned_space_ = std::make_unique<IdentityUnitSpace>(M_);
    space_ = owned_space_.get();
  }
  compact_threshold_ = rng_.next_tick_in(slack_budget_ / 2, slack_budget_);
}

Tick TinySlabAllocator::min_capacity(double eps) {
  MEMREAL_CHECK(eps > 0 && eps < 0.5);
  // Smallest capacity whose default max size reaches kClassSpan ticks,
  // evaluated in the constructor's arithmetic (the predicate is monotone,
  // so stepping from a guess finds the edge).
  const double guess =
      std::ceil(static_cast<double>(kClassSpan) / std::pow(eps, 4.0));
  if (guess >= 0x1p63) return std::numeric_limits<Tick>::max();
  auto reaches = [&](Tick cap) {
    return default_max_size(eps, cap) >= kClassSpan;
  };
  auto cap = static_cast<Tick>(guess);
  while (cap > 1 && reaches(cap - 1)) --cap;
  while (!reaches(cap)) ++cap;
  return cap;
}

std::size_t TinySlabAllocator::level_of_sigma(Tick sigma) const {
  MEMREAL_CHECK(sigma >= 1 && sigma <= M_ && (M_ % sigma) == 0);
  return static_cast<std::size_t>(std::countr_zero(M_ / sigma));
}

std::size_t TinySlabAllocator::class_of_size(Tick size) const {
  MEMREAL_CHECK_MSG(size >= min_size_ && size <= max_size_,
                    "tiny size " << size << " out of range");
  // extent_ is strictly decreasing; find the last k with e_k >= size.
  auto it = std::lower_bound(extent_.begin(), extent_.end(), size,
                             [](Tick ek, Tick s) { return ek >= s; });
  MEMREAL_CHECK(it != extent_.begin());
  const auto k = static_cast<std::size_t>(it - extent_.begin()) - 1;
  MEMREAL_CHECK(extent_[k] >= size);
  MEMREAL_CHECK(k + 1 == extent_.size() || extent_[k + 1] < size);
  return k;
}

Tick TinySlabAllocator::item_offset(const Slab& s, std::size_t slot) const {
  return space_->unit_offset(s.unit) + s.off +
         static_cast<Tick>(slot) * extent_[s.cls];
}

void TinySlabAllocator::create_unit() {
  const std::size_t u = units_++;
  unit_slabs_.resize(units_);
  space_->on_unit_created(u);
  free_[0].insert(FreeAddr{u, 0});
  free_mass_ += M_;
}

TinySlabAllocator::FreeAddr TinySlabAllocator::alloc_block(
    std::size_t level) {
  // Find the deepest available level <= `level` with a free block,
  // preferring an exact fit, then splitting the lowest-address larger
  // block.
  std::size_t from = level + 1;
  for (std::size_t l = level + 1; l-- > 0;) {
    if (!free_[l].empty()) {
      from = l;
      break;
    }
  }
  if (from == level + 1) {
    create_unit();
    from = 0;
  }
  FreeAddr addr = *free_[from].begin();
  free_[from].erase(free_[from].begin());
  // Split down to the requested level; upper halves stay free.
  for (std::size_t l = from; l < level; ++l) {
    const Tick half = M_ >> (l + 1);
    free_[l + 1].insert(FreeAddr{addr.unit, addr.off + half});
  }
  free_mass_ -= M_ >> level;
  return addr;
}

void TinySlabAllocator::free_block(FreeAddr addr, std::size_t level) {
  free_mass_ += M_ >> level;
  // Coalesce with the buddy while possible.
  while (level > 0) {
    const Tick size = M_ >> level;
    const FreeAddr buddy{addr.unit, addr.off ^ size};
    auto it = free_[level].find(buddy);
    if (it == free_[level].end()) break;
    free_[level].erase(it);
    addr.off = std::min(addr.off, buddy.off);
    --level;
  }
  free_[level].insert(addr);
  if (level == 0) destroy_trailing_empty_units();
}

void TinySlabAllocator::destroy_trailing_empty_units() {
  while (units_ > 0) {
    const FreeAddr last{units_ - 1, 0};
    auto it = free_[0].find(last);
    if (it == free_[0].end()) break;
    free_[0].erase(it);
    free_mass_ -= M_;
    --units_;
    MEMREAL_CHECK(unit_slabs_.back().empty());
    unit_slabs_.pop_back();
    space_->on_unit_destroyed(units_);
  }
}

std::size_t TinySlabAllocator::alloc_slab(std::size_t cls) {
  const FreeAddr addr = alloc_block(level_of_sigma(sigma_[cls]));
  std::size_t id;
  if (!slab_free_ids_.empty()) {
    id = slab_free_ids_.back();
    slab_free_ids_.pop_back();
  } else {
    id = slabs_.size();
    slabs_.emplace_back();
  }
  Slab& s = slabs_[id];
  s.cls = cls;
  s.unit = addr.unit;
  s.off = addr.off;
  s.slots.clear();
  class_slabs_[cls].push_back(id);
  unit_slabs_[addr.unit].insert(id);
  return id;
}

void TinySlabAllocator::release_slab(std::size_t slab_id) {
  Slab& s = slabs_[slab_id];
  MEMREAL_CHECK(s.slots.empty());
  MEMREAL_CHECK(class_slabs_[s.cls].back() == slab_id);
  class_slabs_[s.cls].pop_back();
  unit_slabs_[s.unit].erase(slab_id);
  slab_free_ids_.push_back(slab_id);
  free_block(FreeAddr{s.unit, s.off}, level_of_sigma(sigma_[s.cls]));
}

void TinySlabAllocator::place_item(ItemId id, Tick size, std::size_t slab_id,
                                   std::size_t slot, bool is_new) {
  const Slab& s = slabs_[slab_id];
  const Tick off = item_offset(s, slot);
  if (is_new) {
    mem_->place(id, off, size, extent_[s.cls]);
    extent_mass_ += extent_[s.cls];
  } else {
    mem_->move_to(id, off);
  }
  where_[id] = {slab_id, slot};
}

void TinySlabAllocator::insert(ItemId id, Tick size) {
  MEMREAL_CHECK_MSG(where_.find(id) == where_.end(), "duplicate id " << id);
  const std::size_t cls = class_of_size(size);
  std::size_t slab_id;
  if (!class_slabs_[cls].empty() &&
      slabs_[class_slabs_[cls].back()].slots.size() < slots_per_slab_[cls]) {
    slab_id = class_slabs_[cls].back();
  } else {
    slab_id = alloc_slab(cls);
  }
  Slab& s = slabs_[slab_id];
  const std::size_t slot = s.slots.size();
  s.slots.push_back(id);
  place_item(id, size, slab_id, slot, /*is_new=*/true);
}

void TinySlabAllocator::erase(ItemId id) {
  auto wit = where_.find(id);
  MEMREAL_CHECK_MSG(wit != where_.end(), "erase of unknown tiny item " << id);
  const auto [slab_id, slot] = wit->second;
  Slab& s = slabs_[slab_id];
  const std::size_t cls = s.cls;

  // Swap the class's globally last item into the hole (exact extent fit).
  const std::size_t last_slab_id = class_slabs_[cls].back();
  Slab& last = slabs_[last_slab_id];
  MEMREAL_CHECK(!last.slots.empty());
  const ItemId tail = last.slots.back();
  last.slots.pop_back();
  extent_mass_ -= extent_[cls];
  mem_->remove(id);
  where_.erase(wit);
  if (tail != id) {
    // `id` occupied (slab_id, slot); move `tail` there.
    s.slots[slot] = tail;
    place_item(tail, mem_->size_of(tail), slab_id, slot, /*is_new=*/false);
  } else {
    MEMREAL_CHECK(slab_id == last_slab_id &&
                  slot == last.slots.size());
  }
  if (last.slots.empty()) release_slab(last_slab_id);

  if (free_mass_ > compact_threshold_) {
    compact_all();
    compact_threshold_ =
        rng_.next_tick_in(slack_budget_ / 2, slack_budget_);
  }
}

void TinySlabAllocator::compact_all() {
  ++compactions_;
  // Gather all items per class in order, then repack: classes in
  // descending slab size keep every slab aligned under a bump cursor.
  std::vector<std::size_t> class_order(extent_.size());
  for (std::size_t k = 0; k < class_order.size(); ++k) class_order[k] = k;
  std::stable_sort(class_order.begin(), class_order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return sigma_[a] > sigma_[b];
                   });

  std::vector<std::vector<ItemId>> items(extent_.size());
  for (std::size_t k = 0; k < extent_.size(); ++k) {
    for (std::size_t slab_id : class_slabs_[k]) {
      for (ItemId id : slabs_[slab_id].slots) items[k].push_back(id);
    }
  }
  // Reset slab structures; every existing unit becomes one fully free
  // block (items are about to be re-placed).
  for (auto& per_class : class_slabs_) per_class.clear();
  for (auto& per_unit : unit_slabs_) per_unit.clear();
  for (auto& level : free_) level.clear();
  slab_free_ids_.clear();
  slabs_.clear();
  for (std::size_t u = 0; u < units_; ++u) free_[0].insert(FreeAddr{u, 0});
  free_mass_ = static_cast<Tick>(units_) * M_;

  Tick cursor = 0;
  for (std::size_t k : class_order) {
    if (items[k].empty()) continue;
    const std::size_t per = slots_per_slab_[k];
    for (std::size_t base = 0; base < items[k].size(); base += per) {
      // Bump-allocate one slab; cursor is already sigma-aligned because
      // all previously placed slabs were no smaller (powers of two).
      MEMREAL_CHECK(cursor % sigma_[k] == 0);
      const std::size_t unit = static_cast<std::size_t>(cursor / M_);
      while (unit >= units_) create_unit();
      take_block_at(unit, cursor % M_, level_of_sigma(sigma_[k]));
      const std::size_t slab_id = slabs_.size();
      slabs_.emplace_back();
      Slab& s = slabs_[slab_id];
      s.cls = k;
      s.unit = unit;
      s.off = cursor % M_;
      class_slabs_[k].push_back(slab_id);
      unit_slabs_[unit].insert(slab_id);
      const std::size_t n = std::min(per, items[k].size() - base);
      for (std::size_t i = 0; i < n; ++i) {
        const ItemId id = items[k][base + i];
        s.slots.push_back(id);
        mem_->move_to(id, item_offset(s, i));
        where_[id] = {slab_id, i};
      }
      cursor += sigma_[k];
    }
  }
  destroy_trailing_empty_units();
}

void TinySlabAllocator::take_block_at(std::size_t unit, Tick off,
                                      std::size_t level) {
  // Removes the free block [off, off + (M >> level)) from the free lists,
  // splitting an ancestor block if necessary.  The caller guarantees the
  // range is currently free.
  std::size_t l = level + 1;
  Tick boff = 0;
  while (l-- > 0) {
    const Tick blk = M_ >> l;
    boff = off & ~(blk - 1);
    auto it = free_[l].find(FreeAddr{unit, boff});
    if (it == free_[l].end()) continue;
    free_[l].erase(it);
    // Split down, keeping the half that contains `off`.
    while (l < level) {
      const Tick half = M_ >> (l + 1);
      const Tick mid = boff + half;
      if (off < mid) {
        free_[l + 1].insert(FreeAddr{unit, mid});
      } else {
        free_[l + 1].insert(FreeAddr{unit, boff});
        boff = mid;
      }
      ++l;
    }
    free_mass_ -= M_ >> level;
    return;
  }
  MEMREAL_CHECK_MSG(false, "take_block_at: range not free");
}

void TinySlabAllocator::replace_unit_items(std::size_t unit) {
  MEMREAL_CHECK(unit < units_);
  for (std::size_t slab_id : unit_slabs_[unit]) {
    const Slab& s = slabs_[slab_id];
    for (std::size_t i = 0; i < s.slots.size(); ++i) {
      mem_->move_to(s.slots[i], item_offset(s, i));
    }
  }
}

void TinySlabAllocator::check_invariants() const {
  // Slab alignment and containment within units.
  Tick used_mass = 0;
  for (std::size_t k = 0; k < class_slabs_.size(); ++k) {
    for (std::size_t j = 0; j < class_slabs_[k].size(); ++j) {
      const Slab& s = slabs_[class_slabs_[k][j]];
      MEMREAL_CHECK(s.cls == k);
      MEMREAL_CHECK_MSG(s.off % sigma_[k] == 0, "slab misaligned");
      MEMREAL_CHECK_MSG(s.off + sigma_[k] <= M_, "slab spans units");
      MEMREAL_CHECK(s.unit < units_);
      MEMREAL_CHECK(unit_slabs_[s.unit].count(class_slabs_[k][j]) == 1);
      // Only the last slab of a class may be partially filled.
      if (j + 1 < class_slabs_[k].size()) {
        MEMREAL_CHECK_MSG(s.slots.size() == slots_per_slab_[k],
                          "non-final slab not full");
      }
      MEMREAL_CHECK(s.slots.size() <= slots_per_slab_[k]);
      MEMREAL_CHECK_MSG(!s.slots.empty(), "empty slab not released");
      used_mass += sigma_[k];
      // Items sit at their slot pitch and have the class extent.
      for (std::size_t i = 0; i < s.slots.size(); ++i) {
        const ItemId id = s.slots[i];
        MEMREAL_CHECK(mem_->offset_of(id) == item_offset(s, i));
        MEMREAL_CHECK(mem_->extent_of(id) == extent_[k]);
        auto wit = where_.find(id);
        MEMREAL_CHECK(wit != where_.end() &&
                      wit->second.first == class_slabs_[k][j] &&
                      wit->second.second == i);
      }
    }
  }
  // Free + used block mass covers all units exactly.
  Tick fm = 0;
  for (std::size_t l = 0; l < free_.size(); ++l) {
    for (const FreeAddr& a : free_[l]) {
      MEMREAL_CHECK(a.unit < units_);
      MEMREAL_CHECK(a.off % (M_ >> l) == 0);
      fm += M_ >> l;
    }
  }
  MEMREAL_CHECK_MSG(fm == free_mass_, "free-mass accounting drift");
  MEMREAL_CHECK_MSG(used_mass + fm == static_cast<Tick>(units_) * M_,
                    "unit mass not partitioned into slabs and free blocks");
}

}  // namespace memreal
