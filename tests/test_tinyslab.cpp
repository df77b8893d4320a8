// TINYSLAB (TINYHASH substitute): unit/slab structure of Lemma 4.9,
// swap-with-last deletes, buddy coalescing, compaction, space bounds.
#include <gtest/gtest.h>

#include <cmath>

#include "alloc/tinyslab.h"
#include "mem/memory.h"
#include "testing.h"
#include "workload/churn.h"

namespace memreal {
namespace {

constexpr Tick kCap = Tick{1} << 50;

Sequence tiny_seq(double eps, std::size_t updates, std::uint64_t seed) {
  const auto cap_d = static_cast<double>(kCap);
  const auto tiny_hi = static_cast<Tick>(std::pow(eps, 4.0) * cap_d);
  ChurnConfig c;
  c.capacity = kCap;
  c.eps = eps;
  c.min_size = std::max<Tick>(1, tiny_hi / 1024);
  c.max_size = tiny_hi;
  // Tiny items cannot fill memory with a sane item count; cap the load so
  // runs stay around a few thousand items.
  c.target_load = std::min(0.5, 3000.0 * static_cast<double>(c.max_size) /
                                    cap_d);
  c.churn_updates = updates;
  c.seed = seed;
  return make_churn(c);
}

TEST(TinySlab, UnitSizeIsPowerOfTwoNearEpsCubed) {
  Memory mem = testing::strict_memory(kCap, 1.0 / 64);
  TinySlabConfig c;
  c.eps = 1.0 / 64;
  TinySlabAllocator t(mem, c);
  const Tick m = t.unit_size();
  EXPECT_EQ(m & (m - 1), 0u);  // power of two
  const auto e3 =
      static_cast<double>(kCap) * std::pow(1.0 / 64, 3.0);
  EXPECT_LE(static_cast<double>(m), e3 + 1);
  EXPECT_GE(static_cast<double>(m), e3 / 4);
}

TEST(TinySlab, MaxSizeDefaultsToEps4) {
  Memory mem = testing::strict_memory(kCap, 1.0 / 64);
  TinySlabConfig c;
  c.eps = 1.0 / 64;
  TinySlabAllocator t(mem, c);
  EXPECT_EQ(t.max_item_size(),
            static_cast<Tick>(std::pow(1.0 / 64, 4.0) *
                              static_cast<double>(kCap)));
}

TEST(TinySlab, MinCapacityIsTheConstructorsFloor) {
  for (const double eps : {0.3, 1.0 / 4, 1.0 / 8, 1.0 / 16, 1.0 / 32}) {
    const Tick min_cap = TinySlabAllocator::min_capacity(eps);
    TinySlabConfig c;
    c.eps = eps;
    for (const Tick cap : {min_cap, min_cap + 1, 2 * min_cap + 3}) {
      Memory mem(cap, Eps::of(eps, cap).ticks);
      EXPECT_NO_THROW(TinySlabAllocator(mem, c))
          << "eps " << eps << " cap " << cap;
    }
    Memory below(min_cap - 1, Eps::of(eps, min_cap - 1).ticks);
    EXPECT_THROW(TinySlabAllocator(below, c), InvariantViolation)
        << "eps " << eps;
  }
  // 4096 / eps^4 ticks: 2^28 at eps 1/16.
  EXPECT_EQ(TinySlabAllocator::min_capacity(1.0 / 16), Tick{1} << 28);
}

TEST(TinySlab, ClassExtentsDecreaseGeometrically) {
  Memory mem = testing::strict_memory(kCap, 1.0 / 64);
  TinySlabConfig c;
  c.eps = 1.0 / 64;
  TinySlabAllocator t(mem, c);
  EXPECT_GT(t.class_count(), 10u);
  // class_of_size maps the bounds correctly.
  EXPECT_EQ(t.class_of_size(t.max_item_size()), 0u);
  const std::size_t deep = t.class_of_size(t.min_item_size());
  EXPECT_EQ(deep, t.class_count() - 1);
}

TEST(TinySlab, InsertEraseSingle) {
  Memory mem = testing::strict_memory(kCap, 1.0 / 64);
  TinySlabConfig c;
  c.eps = 1.0 / 64;
  TinySlabAllocator t(mem, c);
  Engine engine(mem, t);
  const Tick s = t.max_item_size() / 2;
  engine.step(Update::insert(1, s));
  EXPECT_EQ(t.unit_count(), 1u);
  EXPECT_EQ(mem.item_count(), 1u);
  t.check_invariants();
  engine.step(Update::erase(1, s));
  EXPECT_EQ(mem.item_count(), 0u);
  EXPECT_EQ(t.unit_count(), 0u);  // trailing empty unit destroyed
  t.check_invariants();
}

TEST(TinySlab, ExtentIsClassRounded) {
  Memory mem = testing::strict_memory(kCap, 1.0 / 64);
  TinySlabConfig c;
  c.eps = 1.0 / 64;
  TinySlabAllocator t(mem, c);
  Engine engine(mem, t);
  const Tick s = t.max_item_size() / 2;
  engine.step(Update::insert(1, s));
  EXPECT_GE(mem.extent_of(1), s);
  // Rounding overhead is at most the class ratio 1 + eps/4.
  EXPECT_LE(static_cast<double>(mem.extent_of(1)),
            static_cast<double>(s) * (1.0 + (1.0 / 64) / 4.0) + 1);
}

TEST(TinySlab, SwapWithLastOnDelete) {
  Memory mem = testing::strict_memory(kCap, 1.0 / 64);
  TinySlabConfig c;
  c.eps = 1.0 / 64;
  TinySlabAllocator t(mem, c);
  Engine engine(mem, t);
  const Tick s = t.max_item_size() / 2;
  // Same class: deleting the first moves the last into its slot.
  engine.step(Update::insert(1, s));
  engine.step(Update::insert(2, s + 1));
  engine.step(Update::insert(3, s + 2));
  const Tick slot1 = mem.offset_of(1);
  engine.step(Update::erase(1, s));
  EXPECT_EQ(mem.offset_of(3), slot1);
  t.check_invariants();
}

TEST(TinySlab, ItemsNeverSpanUnits) {
  const double eps = 1.0 / 16;
  const Sequence seq = tiny_seq(eps, 800, 3);
  ValidationPolicy policy;
  policy.audit_every_n_updates = 1;
  Memory mem(seq.capacity, seq.eps_ticks, policy);
  TinySlabConfig c;
  c.eps = eps;
  TinySlabAllocator t(mem, c);
  EngineOptions opts;
  opts.check_invariants_every = 1;
  Engine engine(mem, t, opts);
  engine.run(seq.updates);
  const Tick m = t.unit_size();
  for (const auto& it : mem.snapshot()) {
    EXPECT_EQ(it.offset / m, (it.offset + it.extent - 1) / m)
        << "item spans a unit boundary";
  }
}

TEST(TinySlab, CompactionReleasesUnits) {
  Memory mem = testing::strict_memory(kCap, 1.0 / 64);
  TinySlabConfig c;
  c.eps = 1.0 / 64;
  // Tight slack budget so compactions actually fire.
  c.slack_budget = Tick{1} << 30;
  TinySlabAllocator t(mem, c);
  Engine engine(mem, t);
  const Tick s = t.max_item_size() / 2;
  std::size_t next = 1;
  for (std::size_t i = 0; i < 400; ++i) {
    engine.step(Update::insert(next++, s + i % 64));
  }
  const std::size_t peak_units = t.unit_count();
  for (std::size_t i = 1; i < next; i += 2) {
    engine.step(Update::erase(i, s + (i - 1) % 64));
  }
  t.check_invariants();
  EXPECT_LT(t.unit_count(), peak_units);
  EXPECT_GT(t.compactions(), 0u);
}

TEST(TinySlab, RejectsOutOfRangeSizes) {
  Memory mem = testing::strict_memory(kCap, 1.0 / 64);
  TinySlabConfig c;
  c.eps = 1.0 / 64;
  TinySlabAllocator t(mem, c);
  Engine engine(mem, t);
  EXPECT_THROW(engine.step(Update::insert(1, t.max_item_size() * 2)),
               InvariantViolation);
  EXPECT_THROW(engine.step(Update::insert(2, t.min_item_size() / 2)),
               InvariantViolation);
}

TEST(TinySlab, SpaceBoundedUnderChurn) {
  const double eps = 1.0 / 16;
  const Sequence seq = tiny_seq(eps, 1500, 7);
  ValidationPolicy policy;
  policy.audit_every_n_updates = 1;
  Memory mem(seq.capacity, seq.eps_ticks, policy);
  TinySlabConfig c;
  c.eps = eps;
  TinySlabAllocator t(mem, c);
  EngineOptions opts;
  opts.check_invariants_every = 32;
  Engine engine(mem, t, opts);
  engine.run(seq.updates);
  // Units*M stays within live mass plus the slack budget (the substitute's
  // resizable-style guarantee).
  EXPECT_LE(static_cast<double>(t.unit_count()) *
                static_cast<double>(t.unit_size()),
            static_cast<double>(mem.live_mass()) * (1.0 + eps) +
                static_cast<double>(mem.eps_ticks()));
}

TEST(TinySlab, MixedClassesShareUnitsViaBuddySplits) {
  // Two classes with very different slab sizes must coexist inside units:
  // allocating the small class splits the big class's leftover buddies.
  Memory mem = testing::strict_memory(kCap, 1.0 / 64);
  TinySlabConfig c;
  c.eps = 1.0 / 64;
  TinySlabAllocator t(mem, c);
  Engine engine(mem, t);
  const Tick big = t.max_item_size();
  const Tick small = std::max<Tick>(t.min_item_size(), big / 512);
  ItemId next = 1;
  for (int i = 0; i < 8; ++i) engine.step(Update::insert(next++, big));
  for (int i = 0; i < 64; ++i) engine.step(Update::insert(next++, small));
  for (int i = 0; i < 8; ++i) engine.step(Update::insert(next++, big));
  t.check_invariants();
  // Interleaved deletes exercise coalescing across classes.
  for (ItemId i = 1; i < next; i += 2) {
    engine.step(Update::erase(i, mem.size_of(i)));
    if (i % 8 == 1) t.check_invariants();
  }
  t.check_invariants();
  mem.audit();
}

TEST(TinySlab, ReplaceUnitItemsIsIdempotent) {
  Memory mem = testing::strict_memory(kCap, 1.0 / 64);
  TinySlabConfig c;
  c.eps = 1.0 / 64;
  TinySlabAllocator t(mem, c);
  Engine engine(mem, t);
  const Tick s = t.max_item_size() / 2;
  for (ItemId i = 1; i <= 20; ++i) engine.step(Update::insert(i, s));
  const auto before = mem.snapshot();
  mem.begin_update(1, true);
  for (std::size_t u = 0; u < t.unit_count(); ++u) t.replace_unit_items(u);
  mem.place(999, mem.span_end() + s, 1);  // keep the update non-empty
  mem.remove(999);
  // Identity unit space: re-placing everything must be a no-op.
  EXPECT_EQ(mem.moved_in_update(), 1u);  // only the helper placement
  mem.end_update();
  const auto after = mem.snapshot();
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i].offset, after[i].offset);
  }
}

// Parameterized sweep across eps and seeds with exhaustive invariants.
struct TinyParam {
  double eps;
  std::uint64_t seed;
};

class TinySweep : public ::testing::TestWithParam<TinyParam> {};

TEST_P(TinySweep, InvariantsHold) {
  const auto [eps, seed] = GetParam();
  const Sequence seq = tiny_seq(eps, 700, seed);
  ValidationPolicy policy;
  policy.audit_every_n_updates = 1;
  Memory mem(seq.capacity, seq.eps_ticks, policy);
  TinySlabConfig c;
  c.eps = eps;
  c.seed = seed;
  TinySlabAllocator t(mem, c);
  EngineOptions opts;
  opts.check_invariants_every = 4;
  Engine engine(mem, t, opts);
  const RunStats s = engine.run(seq.updates);
  // Tiny-item updates are cheap: mean cost far below eps^-1/2.
  EXPECT_LT(s.mean_cost(), 1.0 / std::sqrt(eps));
}

INSTANTIATE_TEST_SUITE_P(Sweep, TinySweep,
                         ::testing::Values(TinyParam{1.0 / 8, 1},
                                           TinyParam{1.0 / 8, 2},
                                           TinyParam{1.0 / 16, 1},
                                           TinyParam{1.0 / 16, 2},
                                           TinyParam{1.0 / 32, 1},
                                           TinyParam{1.0 / 32, 2}));

}  // namespace
}  // namespace memreal
