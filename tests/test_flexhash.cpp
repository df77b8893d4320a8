// FLEXHASH (Lemma 4.9): buffer accounts, unit rotation, external updates
// at O(1) expected cost, internal updates delegated to TINYSLAB.
#include <gtest/gtest.h>

#include <cmath>

#include "alloc/flexhash.h"
#include "alloc/registry.h"
#include "mem/memory.h"
#include "testing.h"
#include "workload/churn.h"

namespace memreal {
namespace {

constexpr Tick kCap = Tick{1} << 50;
constexpr double kEps = 1.0 / 16;

FlexHashConfig flex_config(Tick region_start = 0) {
  FlexHashConfig c;
  c.eps = kEps;
  c.region_start = region_start;
  c.seed = 11;
  return c;
}

Tick tiny_size(const FlexHashAllocator& f) {
  return f.tiny().max_item_size() / 2;
}

TEST(FlexHash, TypeCountLogarithmic) {
  Memory mem = testing::strict_memory(kCap, kEps);
  FlexHashAllocator f(mem, flex_config());
  // Types cover (eps^4, 1] geometrically: about 4 log2(1/eps) of them.
  EXPECT_GE(f.type_count(), 14u);
  EXPECT_LE(f.type_count(), 18u);
}

TEST(FlexHash, MinCapacityIsTinySlabsFloor) {
  // FLEXHASH builds a default-sized TINYSLAB, so the registry gives it
  // TINYSLAB's capacity floor.
  for (const double eps : {1.0 / 16, 1.0 / 32}) {
    const Tick min_cap = TinySlabAllocator::min_capacity(eps);
    EXPECT_EQ(allocator_info("flexhash").min_capacity(eps), min_cap);
    FlexHashConfig c;
    c.eps = eps;
    Memory mem(min_cap, Eps::of(eps, min_cap).ticks);
    EXPECT_NO_THROW(FlexHashAllocator(mem, c)) << "eps " << eps;
    Memory below(min_cap - 1, Eps::of(eps, min_cap - 1).ticks);
    EXPECT_THROW(FlexHashAllocator(below, c), InvariantViolation)
        << "eps " << eps;
  }
}

TEST(FlexHash, InternalUpdatesWork) {
  Memory mem = testing::strict_memory(kCap, kEps);
  FlexHashAllocator f(mem, flex_config());
  Engine engine(mem, f);
  const Tick s = tiny_size(f);
  engine.step(Update::insert(1, s));
  engine.step(Update::insert(2, s));
  engine.step(Update::erase(1, s));
  EXPECT_EQ(mem.item_count(), 1u);
  f.check_invariants();
}

TEST(FlexHash, ItemsPlacedAfterRegionStart) {
  Memory mem = testing::strict_memory(kCap, kEps);
  // Region starts at eps/2 (as in the combined allocator); items must land
  // at or beyond it.
  const Tick start = mem.eps_ticks() / 2;
  ValidationPolicy policy;
  // Only the resizable span bound is inapplicable standalone; keep the
  // incremental overlap checks armed.
  policy.check_resizable_bound = false;
  Memory mem2(kCap, mem.eps_ticks(), policy);
  FlexHashAllocator f(mem2, flex_config(start));
  Engine engine(mem2, f);
  engine.step(Update::insert(1, tiny_size(f)));
  EXPECT_GE(mem2.offset_of(1), start);
  f.check_invariants();
}

TEST(FlexHash, ExternalPushRightMovesRegion) {
  Memory mem = testing::strict_memory(kCap, kEps);
  ValidationPolicy policy;
  policy.check_resizable_bound = false;
  Memory mem2(kCap, mem.eps_ticks(), policy);
  FlexHashAllocator f(mem2, flex_config(0));
  Engine engine(mem2, f);
  engine.step(Update::insert(1, tiny_size(f)));
  const Tick before = f.region_start();
  const Tick push = static_cast<Tick>(1e-3 * static_cast<double>(kCap));
  mem2.begin_update(push, true);
  f.external_update(push, /*push_right=*/true);
  mem2.end_update();
  EXPECT_EQ(f.region_start(), before + push);
  f.check_invariants();
  // Item must still be at or beyond the (new) region start.
  EXPECT_GE(mem2.offset_of(1), f.region_start());
}

TEST(FlexHash, ManySmallExternalUpdatesKeepInvariants) {
  ValidationPolicy policy;
  policy.check_resizable_bound = false;
  Memory mem(kCap, static_cast<Tick>(kEps * static_cast<double>(kCap)),
             policy);
  FlexHashConfig c = flex_config(kCap / 4);
  // Shrink the tiny bound so the "small external update" regime
  // (max_tiny, M/100) is non-empty even at this large eps.
  c.max_tiny_size =
      static_cast<Tick>(std::pow(kEps, 5.0) * static_cast<double>(kCap));
  FlexHashAllocator f(mem, c);
  Engine engine(mem, f);
  // Populate some units.
  const Tick s = tiny_size(f);
  ItemId next = 1;
  for (int i = 0; i < 300; ++i) engine.step(Update::insert(next++, s));
  // Shower of small external updates, biased rightward so the buffer
  // accounts drain and rotations must fire.
  Rng rng(5);
  const Tick x_lo = f.tiny().max_item_size() + 1;
  const Tick x_hi = f.unit_size() / 100;
  ASSERT_LT(x_lo, x_hi);
  for (int i = 0; i < 3000; ++i) {
    const Tick x = rng.next_in(x_lo, x_hi);
    const bool right = rng.next_below(10) < 9;  // 90% right pushes
    mem.begin_update(x, true);
    f.external_update(x, right || f.region_start() < x);
    mem.end_update();
    f.check_invariants();
  }
  EXPECT_GT(f.rotations(), 0u);
  // All items still in place, no overlap.
  mem.audit();
}

TEST(FlexHash, BigExternalUpdatesRestoreImmediately) {
  ValidationPolicy policy;
  policy.check_resizable_bound = false;
  Memory mem(kCap, static_cast<Tick>(kEps * static_cast<double>(kCap)),
             policy);
  FlexHashAllocator f(mem, flex_config(kCap / 4));
  Engine engine(mem, f);
  const Tick s = tiny_size(f);
  ItemId next = 1;
  for (int i = 0; i < 200; ++i) engine.step(Update::insert(next++, s));
  // One huge push right: many multiples of M.
  const Tick x = 40 * f.unit_size();
  mem.begin_update(x, true);
  f.external_update(x, true);
  mem.end_update();
  f.check_invariants();
  mem.audit();
  mem.begin_update(x, true);
  f.external_update(x, false);
  mem.end_update();
  f.check_invariants();
  mem.audit();
}

TEST(FlexHash, GiantExternalUpdateUsesBulkShift) {
  // An external update far larger than the whole unit array must be
  // absorbed by shifting every unit once (cost O(region)), not by cycling
  // rotations; with zero units it is purely notional bookkeeping.
  ValidationPolicy policy;
  policy.check_resizable_bound = false;
  Memory mem(kCap, static_cast<Tick>(kEps * static_cast<double>(kCap)),
             policy);
  FlexHashAllocator f(mem, flex_config(kCap / 4));
  // Zero units: giant pushes in both directions, instant and consistent.
  const Tick giant = kCap / 16;
  for (int i = 0; i < 4; ++i) {
    mem.begin_update(giant, true);
    f.external_update(giant, /*push_right=*/true);
    mem.end_update();
    f.check_invariants();
  }
  for (int i = 0; i < 4; ++i) {
    mem.begin_update(giant, true);
    f.external_update(giant, /*push_right=*/false);
    mem.end_update();
    f.check_invariants();
  }
  // Now with live units: the shift must physically move each unit once.
  Engine engine(mem, f);
  const Tick s = tiny_size(f);
  for (ItemId i = 1; i <= 100; ++i) engine.step(Update::insert(i, s));
  const std::size_t units = f.unit_count();
  ASSERT_GT(units, 0u);
  const Tick moved_before = mem.total_moved();
  mem.begin_update(giant, true);
  f.external_update(giant, /*push_right=*/true);
  mem.end_update();
  f.check_invariants();
  mem.audit();
  // Every item moved at most a few times — not once per deficit unit.
  EXPECT_LE(mem.total_moved() - moved_before, 3 * mem.live_mass());
}

TEST(FlexHash, UnitDestructionSwapsFinalUnit) {
  ValidationPolicy policy;
  policy.audit_every_n_updates = 1;
  Memory mem(kCap, static_cast<Tick>(kEps * static_cast<double>(kCap)),
             policy);
  FlexHashAllocator f(mem, flex_config(0));
  Engine engine(mem, f);
  const Tick s = tiny_size(f);
  ItemId next = 1;
  for (int i = 0; i < 600; ++i) engine.step(Update::insert(next++, s));
  const std::size_t units_before = f.unit_count();
  ASSERT_GT(units_before, 1u);
  for (ItemId i = 1; i < next - 4; ++i) engine.step(Update::erase(i, s));
  EXPECT_LT(f.unit_count(), units_before);
  f.check_invariants();
  mem.audit();
}

TEST(FlexHash, SurvivesMixedChurnWithRotations) {
  ValidationPolicy policy;
  policy.audit_every_n_updates = 4;
  Memory mem(kCap, static_cast<Tick>(kEps * static_cast<double>(kCap)),
             policy);
  FlexHashAllocator f(mem, flex_config(kCap / 8));
  Engine engine(mem, f);
  Rng rng(17);
  const Tick s_lo = f.tiny().max_item_size() / 8;
  const Tick s_hi = f.tiny().max_item_size();
  std::vector<std::pair<ItemId, Tick>> live;
  ItemId next = 1;
  for (int i = 0; i < 3000; ++i) {
    const bool ins = live.empty() || rng.next_below(2) == 0;
    if (ins) {
      const Tick s = rng.next_in(s_lo, s_hi);
      engine.step(Update::insert(next, s));
      live.emplace_back(next, s);
      ++next;
    } else {
      const auto k = static_cast<std::size_t>(rng.next_below(live.size()));
      engine.step(Update::erase(live[k].first, live[k].second));
      live[k] = live.back();
      live.pop_back();
    }
    if (i % 10 == 0) {
      const Tick x = rng.next_in(f.tiny().max_item_size() + 1,
                                 4 * f.unit_size());
      const bool can_left = f.region_start() >= x;
      const bool right = !can_left || rng.next_below(2) == 0;
      mem.begin_update(x, true);
      f.external_update(x, right);
      mem.end_update();
    }
    if (i % 50 == 0) f.check_invariants();
  }
  f.check_invariants();
  mem.audit();
}

}  // namespace
}  // namespace memreal
