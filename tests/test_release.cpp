// Lockstep differential suite for the release engine (ctest -L release).
//
// The release fast path (Engine over a SlabStore) performs no per-update
// model validation — THESE tests are its correctness story.  Every registry
// allocator is driven through identical sequences on a validated cell and
// a release cell in lockstep, asserting:
//
//   * bit-identical per-update costs (exact double equality — both
//     engines compute moved/size from integer tick masses),
//   * bit-identical layouts (full snapshot: id, offset, size, extent, in
//     offset order) at every comparison point and at run end,
//   * identical O(1) model counters every step (item_count, live_mass,
//     extent_mass, span_end, total_moved),
//   * identical RunStats on all deterministic fields.
//
// Workload shapes: per-allocator admissible churn (every registry name),
// sawtooth fill/drain cycles, multi-tenant Zipf, and adversarial near-full
// load — plus fragmenter stress for the universal folklore baselines.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "alloc/registry.h"
#include "harness/cell.h"
#include "mem/memory.h"
#include "release/slab_store.h"
#include "shard/sharded_engine.h"
#include "testing.h"
#include "workload/adversarial.h"
#include "workload/churn.h"
#include "workload/multi_tenant.h"

namespace memreal {
namespace {

constexpr Tick kCap = Tick{1} << 50;

void expect_same_layout(LayoutStore& validated, LayoutStore& release,
                        const std::string& where) {
  const std::vector<PlacedItem> a = validated.snapshot();
  const std::vector<PlacedItem> b = release.snapshot();
  ASSERT_EQ(a.size(), b.size()) << where;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << where << " item " << i;
    EXPECT_EQ(a[i].offset, b[i].offset) << where << " item " << i;
    EXPECT_EQ(a[i].size, b[i].size) << where << " item " << i;
    EXPECT_EQ(a[i].extent, b[i].extent) << where << " item " << i;
  }
}

void expect_same_stats(RunStats validated, RunStats release) {
  EXPECT_EQ(validated.updates, release.updates);
  EXPECT_EQ(validated.inserts, release.inserts);
  EXPECT_EQ(validated.deletes, release.deletes);
  EXPECT_EQ(validated.moved_mass, release.moved_mass);
  EXPECT_EQ(validated.update_mass, release.update_mass);
  EXPECT_EQ(validated.cost.count(), release.cost.count());
  EXPECT_EQ(validated.cost.sum(), release.cost.sum());
  EXPECT_EQ(validated.cost.mean(), release.cost.mean());
  EXPECT_EQ(validated.cost.min(), release.cost.min());
  EXPECT_EQ(validated.cost.max(), release.cost.max());
  EXPECT_EQ(validated.insert_cost.count(), release.insert_cost.count());
  EXPECT_EQ(validated.insert_cost.sum(), release.insert_cost.sum());
  EXPECT_EQ(validated.delete_cost.count(), release.delete_cost.count());
  EXPECT_EQ(validated.delete_cost.sum(), release.delete_cost.sum());
  for (const double q : {0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(validated.cost_quantiles.quantile(q),
              release.cost_quantiles.quantile(q))
        << "q=" << q;
  }
  // wall_seconds / decision_seconds are measured, not replayed — excluded.
}

CellConfig cell_config(const std::string& engine,
                       const std::string& allocator, const Sequence& seq,
                       double delta) {
  CellConfig c;
  c.engine = engine;
  c.allocator = allocator;
  c.params.eps = seq.eps;
  c.params.delta = delta;
  c.params.seed = 17;
  return c;
}

/// Drives both engines through `seq` update-for-update, checking costs and
/// O(1) counters at every step, layouts periodically and at the end, and
/// the full RunStats + a release-store audit at the end.
void lockstep(const std::string& allocator, const Sequence& seq,
              double delta = 0.0) {
  seq.check_well_formed();
  Cell validated(seq.capacity, seq.eps_ticks,
                 cell_config("validated", allocator, seq, delta));
  Cell release(seq.capacity, seq.eps_ticks,
               cell_config("release", allocator, seq, delta));
  for (std::size_t i = 0; i < seq.updates.size(); ++i) {
    const Update& u = seq.updates[i];
    const double vc = validated.step(u);
    const double rc = release.step(u);
    ASSERT_EQ(vc, rc) << "cost diverged at update " << i;
    ASSERT_EQ(validated.memory().item_count(), release.memory().item_count())
        << "item count diverged at update " << i;
    ASSERT_EQ(validated.memory().live_mass(), release.memory().live_mass())
        << "live mass diverged at update " << i;
    ASSERT_EQ(validated.memory().extent_mass(),
              release.memory().extent_mass())
        << "extent mass diverged at update " << i;
    ASSERT_EQ(validated.memory().span_end(), release.memory().span_end())
        << "span diverged at update " << i;
    ASSERT_EQ(validated.memory().total_moved(),
              release.memory().total_moved())
        << "moved mass diverged at update " << i;
    if (i % 64 == 0) {
      expect_same_layout(validated.memory(), release.memory(),
                         "update " + std::to_string(i));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  expect_same_layout(validated.memory(), release.memory(), "final");
  expect_same_stats(validated.stats(), release.stats());
  validated.audit();
  release.audit();
}

TEST(Lockstep, ChurnEveryRegistryAllocator) {
  for (const auto& name : allocator_names()) {
    SCOPED_TRACE(name);
    const testing::RegimeCase c = testing::regime_case(name);
    const Sequence seq = testing::regime_sequence(c, kCap, 400, /*seed=*/23);
    ASSERT_GE(seq.size(), 400u);
    lockstep(name, seq, c.delta);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(Lockstep, SawtoothFillDrainCycles) {
  for (const auto* name :
       {"folklore-compact", "folklore-windowed", "simple"}) {
    SCOPED_TRACE(name);
    SawtoothConfig c;
    c.capacity = kCap;
    c.eps = 1.0 / 32;
    c.high_load = 0.9;
    c.low_load = 0.1;
    c.teeth = 4;
    c.seed = 29;
    lockstep(name, make_sawtooth(c));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(Lockstep, MultiTenantZipf) {
  for (const auto* name :
       {"folklore-compact", "folklore-windowed", "simple"}) {
    SCOPED_TRACE(name);
    MultiTenantConfig c;
    c.capacity = kCap;
    c.eps = 1.0 / 32;
    c.tenants = 4;
    c.zipf_s = 1.0;
    c.churn_updates = 500;
    c.seed = 31;
    lockstep(name, make_multi_tenant(c));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(Lockstep, AdversarialNearFullLoad) {
  for (const auto* name :
       {"folklore-compact", "folklore-windowed", "simple"}) {
    SCOPED_TRACE(name);
    ChurnConfig c;
    c.capacity = kCap;
    c.eps = 1.0 / 32;
    c.min_size = kCap / 32;          // the simple band [eps, 2 eps)
    c.max_size = kCap / 16 - 1;
    c.target_load = 0.98;  // churn pinned just under the budget
    c.churn_updates = 500;
    c.seed = 37;
    lockstep(name, make_churn(c));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(Lockstep, FragmenterOnUniversalBaselines) {
  for (const auto* name : {"folklore-compact", "folklore-windowed"}) {
    SCOPED_TRACE(name);
    FragmenterConfig c;
    c.capacity = kCap;
    c.eps = 1.0 / 32;
    c.seed = 41;
    lockstep(name, make_fragmenter(c));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// A sharded run's routing is engine-independent, so the per-shard layouts
// of a release-engine run must be bit-identical to a validated run of the
// same config — the S>1 extension of the single-cell lockstep guarantee.
TEST(Lockstep, ShardedReleaseMatchesShardedValidated) {
  constexpr Tick kShardCap = Tick{1} << 40;
  constexpr std::size_t kShards = 4;
  MultiTenantConfig w;
  w.capacity = kShards * kShardCap;
  w.eps = 1.0 / 32;
  w.tenants = 4;
  w.zipf_s = 1.0;
  w.min_size = kShardCap / 32;      // band of *shard* capacity
  w.max_size = kShardCap / 16 - 1;
  w.churn_updates = 600;
  w.seed = 43;
  const Sequence seq = make_multi_tenant(w);

  ShardedConfig cfg;
  cfg.allocator = "simple";
  cfg.params.eps = 1.0 / 32;
  cfg.shards = kShards;
  cfg.shard_capacity = kShardCap;
  cfg.eps = 1.0 / 32;
  cfg.batch_size = 128;

  cfg.engine = "validated";
  ShardedEngine validated(cfg);
  const ShardedRunStats vs = validated.run(seq);

  cfg.engine = "release";
  ShardedEngine release(cfg);
  const ShardedRunStats rs = release.run(seq);

  for (std::size_t s = 0; s < kShards; ++s) {
    expect_same_layout(validated.memory(s), release.memory(s),
                       "shard " + std::to_string(s));
  }
  EXPECT_EQ(vs.global.updates, rs.global.updates);
  EXPECT_EQ(vs.global.moved_mass, rs.global.moved_mass);
  EXPECT_EQ(vs.global.update_mass, rs.global.update_mass);
  EXPECT_EQ(vs.fallback_routes, rs.fallback_routes);
  release.audit();
}

// Engine's usage checks are input validation, not model validation, so
// they run on every store: a release cell, with or without an arena,
// refuses a delete of an absent item or one whose size does not match,
// names the id, and leaves the store untouched.
TEST(UsageChecks, ReleaseCellsRefuseMalformedDeletes) {
  auto expect_refusal = [](Cell& cell, const Update& u,
                           const std::string& substr) {
    try {
      cell.step(u);
      ADD_FAILURE() << "expected InvariantViolation containing '" << substr
                    << "'";
    } catch (const InvariantViolation& e) {
      EXPECT_NE(std::string(e.what()).find(substr), std::string::npos)
          << "message was: " << e.what();
    }
  };
  for (const bool arena : {false, true}) {
    SCOPED_TRACE(arena ? "release+arena" : "release");
    CellConfig c;
    c.engine = "release";
    c.allocator = "folklore-compact";
    c.params.eps = 1.0 / 64;
    c.arena = arena;
    Cell cell(1024, 16, c);
    cell.step(Update::insert(7, 20));
    expect_refusal(cell, Update::erase(8, 20), "delete of absent item 8");
    expect_refusal(cell, Update::erase(7, 21),
                   "sequence size mismatch for item 7");
    EXPECT_EQ(cell.stats().updates, 1u);
    EXPECT_TRUE(cell.memory().contains(7));
    cell.audit();
  }
}

TEST(SlabStore, AuditCatchesPlantedCorruption) {
  const Sequence seq =
      make_simple_regime(kCap, 1.0 / 32, /*churn_updates=*/50, /*seed=*/7);
  Cell cell(seq.capacity, seq.eps_ticks,
            cell_config("release", "folklore-compact", seq, 0.0));
  cell.run(seq.updates);
  cell.audit();  // healthy store passes
  ASSERT_GE(cell.memory().item_count(), 2u);
  // Shift the first item onto its right neighbor: the slab record changes
  // but by_offset_/ends_ keep their stale view — exactly a slab bug.
  static_cast<SlabStore&>(cell.memory()).debug_corrupt_first_offset(1);
  EXPECT_THROW(cell.memory().audit(), InvariantViolation);
}

TEST(SlabStore, PointAndOrderedQueriesMatchMemorySemantics) {
  // Hand-driven store exercising the query surface on a known layout.
  SlabStore store(1 << 20, 1 << 10);
  store.begin_update(10, true);
  store.place(/*id=*/5, /*offset=*/100, /*size=*/10);
  store.end_update();
  store.begin_update(7, true);
  store.place(/*id=*/9, /*offset=*/200, /*size=*/7, /*extent=*/20);
  store.end_update();

  EXPECT_TRUE(store.contains(5));
  EXPECT_FALSE(store.contains(6));
  EXPECT_EQ(store.offset_of(9), 200u);
  EXPECT_EQ(store.extent_of(9), 20u);
  EXPECT_EQ(store.end_of(9), 220u);
  EXPECT_EQ(store.span_end(), 220u);
  EXPECT_EQ(store.live_mass(), 17u);
  EXPECT_EQ(store.extent_mass(), 30u);

  ASSERT_TRUE(store.item_at(105).has_value());
  EXPECT_EQ(store.item_at(105)->id, 5u);
  EXPECT_FALSE(store.item_at(110).has_value());  // extent ends at 110
  ASSERT_TRUE(store.item_at(219).has_value());
  EXPECT_EQ(store.item_at(219)->id, 9u);

  ASSERT_TRUE(store.first_at_or_after(101).has_value());
  EXPECT_EQ(store.first_at_or_after(101)->id, 9u);
  ASSERT_TRUE(store.last_before(200).has_value());
  EXPECT_EQ(store.last_before(200)->id, 5u);
  EXPECT_FALSE(store.last_before(100).has_value());

  const auto n = store.neighbors_of(5);
  EXPECT_FALSE(n.prev.has_value());
  ASSERT_TRUE(n.next.has_value());
  EXPECT_EQ(n.next->id, 9u);

  const auto in = store.items_in(0, 150);
  ASSERT_EQ(in.size(), 1u);
  EXPECT_EQ(in[0].id, 5u);

  const auto gs = store.gaps();
  ASSERT_EQ(gs.size(), 2u);
  EXPECT_EQ(gs[0], (std::pair<Tick, Tick>{0, 100}));
  EXPECT_EQ(gs[1], (std::pair<Tick, Tick>{110, 90}));

  store.begin_update(10, false);
  store.remove(5);
  store.end_update();
  EXPECT_FALSE(store.contains(5));
  EXPECT_EQ(store.item_count(), 1u);
  EXPECT_EQ(store.span_end(), 220u);
  store.audit();
}

TEST(SlabStore, BatchedRunAndResetExtentsMatchPerItemSemantics) {
  // The bulk apply_run / reset_extents overrides must charge and land
  // exactly like their per-item loops (the lockstep suites prove this at
  // scale; this pins the arithmetic on a hand-checked layout).
  SlabStore store(1 << 20, 1 << 10);
  store.begin_update(10, true);
  store.place(1, 0, 10);
  store.end_update();
  store.begin_update(10, true);
  store.place(2, 50, 10, /*extent=*/25);  // inflated
  store.end_update();
  store.begin_update(10, true);
  store.place(3, 100, 10);
  store.end_update();
  EXPECT_EQ(store.span_end(), 110u);
  EXPECT_EQ(store.extent_mass(), 45u);

  // Full-layout run in a new order (the SIMPLE-rebuild path): every item
  // moves, charges its true size, and the span is the run's end.
  const ItemId run1[] = {3, 1, 2};
  store.begin_update(1, false);
  const Tick end1 = store.apply_run(run1, 0);
  EXPECT_EQ(store.end_update(), 30u);  // three moves x size 10
  EXPECT_EQ(end1, 45u);                // 10 + 10 + 25 (extent-contiguous)
  EXPECT_EQ(store.span_end(), 45u);
  EXPECT_EQ(store.offset_of(3), 0u);
  EXPECT_EQ(store.offset_of(1), 10u);
  EXPECT_EQ(store.offset_of(2), 20u);
  store.audit();

  // Whole-layout extent revert in one pass: free, deflates the span.
  store.begin_update(1, false);
  store.reset_extents(run1);
  EXPECT_EQ(store.end_update(), 0u);
  EXPECT_EQ(store.extent_of(2), 10u);
  EXPECT_EQ(store.extent_mass(), 30u);
  EXPECT_EQ(store.span_end(), 30u);
  store.audit();

  // Partial run (the covering-compaction path): close the gap a removal
  // leaves; only the item that actually moves is charged.
  store.begin_update(10, false);
  store.remove(1);
  store.end_update();
  const ItemId run2[] = {2};
  store.begin_update(1, false);
  const Tick end2 = store.apply_run(run2, 10);
  EXPECT_EQ(store.end_update(), 10u);
  EXPECT_EQ(end2, 20u);
  EXPECT_EQ(store.offset_of(2), 10u);
  EXPECT_EQ(store.span_end(), 20u);
  store.audit();
}

/// A Memory and a SlabStore driven through the same hand-written updates.
/// After every update both must agree on the charge, the run end, the
/// snapshot, span_end(), total moved mass and every item's neighbors_of,
/// and both must audit clean.  The bounds that hold only for allocator
/// layouts (resizable bound, load factor) are off: these layouts are
/// sparse on purpose.
class StorePair {
 public:
  StorePair()
      : memory_(kCapacity, kEpsTicks, loose()),
        slab_(kCapacity, kEpsTicks, loose()) {}

  void place(ItemId id, Tick offset, Tick size, Tick extent = 0) {
    memory_.begin_update(size, true);
    slab_.begin_update(size, true);
    memory_.place(id, offset, size, extent);
    slab_.place(id, offset, size, extent);
    finish("place " + std::to_string(id));
  }

  void run(const std::vector<ItemId>& ids, Tick offset) {
    memory_.begin_update(1, false);
    slab_.begin_update(1, false);
    const Tick memory_end = memory_.apply_run(ids, offset);
    const Tick slab_end = slab_.apply_run(ids, offset);
    EXPECT_EQ(memory_end, slab_end);
    finish("run");
  }

  /// The slot form on both stores: Memory has no slots and inherits the
  /// id-form default, the slab checks and uses `slots`.
  void run(const std::vector<ItemId>& ids,
           const std::vector<std::uint32_t>& slots, Tick offset) {
    memory_.begin_update(1, false);
    slab_.begin_update(1, false);
    const Tick memory_end = memory_.apply_run(ids, slots, offset);
    const Tick slab_end = slab_.apply_run(ids, slots, offset);
    EXPECT_EQ(memory_end, slab_end);
    finish("slot-form run");
  }

  /// A slot-form run the slab must refuse: it throws with nothing moved
  /// or charged, and the layout still matches the untouched Memory.
  void refused_run(const std::vector<ItemId>& ids,
                   const std::vector<std::uint32_t>& slots, Tick offset) {
    memory_.begin_update(1, false);
    slab_.begin_update(1, false);
    EXPECT_THROW((void)slab_.apply_run(ids, slots, offset),
                 InvariantViolation);
    EXPECT_EQ(slab_.moved_in_update(), 0u);
    finish("refused slot-form run");
  }

  void remove(ItemId id) {
    memory_.begin_update(1, false);
    slab_.begin_update(1, false);
    memory_.remove(id);
    slab_.remove(id);
    finish("remove " + std::to_string(id));
  }

  /// The slab slots of `ids`, as a caller caches them.
  std::vector<std::uint32_t> slots(const std::vector<ItemId>& ids) const {
    std::vector<std::uint32_t> out;
    for (const ItemId id : ids) out.push_back(slab_.slot_of(id));
    return out;
  }

  void reset_extents(const std::vector<ItemId>& ids) {
    memory_.begin_update(1, false);
    slab_.begin_update(1, false);
    memory_.reset_extents(ids);
    slab_.reset_extents(ids);
    finish("reset_extents");
  }

  const SlabStore& slab() const { return slab_; }

 private:
  static constexpr Tick kCapacity = Tick{1} << 20;
  static constexpr Tick kEpsTicks = Tick{1} << 10;

  static ValidationPolicy loose() {
    ValidationPolicy p;
    p.check_resizable_bound = false;
    p.check_load_factor = false;
    return p;
  }

  static ItemId id_or_none(const std::optional<PlacedItem>& p) {
    return p.has_value() ? p->id : kNoItem;
  }

  void finish(const std::string& what) {
    SCOPED_TRACE(what);
    EXPECT_EQ(memory_.end_update(), slab_.end_update());
    EXPECT_EQ(memory_.total_moved(), slab_.total_moved());
    EXPECT_EQ(memory_.span_end(), slab_.span_end());
    expect_same_layout(memory_, slab_, what);
    for (const PlacedItem& p : memory_.snapshot()) {
      const auto a = memory_.neighbors_of(p.id);
      const auto b = slab_.neighbors_of(p.id);
      EXPECT_EQ(id_or_none(a.prev), id_or_none(b.prev)) << "item " << p.id;
      EXPECT_EQ(id_or_none(a.next), id_or_none(b.next)) << "item " << p.id;
    }
    EXPECT_NO_THROW(memory_.audit());
    EXPECT_NO_THROW(slab_.audit());
  }

  Memory memory_;
  SlabStore slab_;
};

TEST(SlabStore, RunNamingAnIdTwiceMatchesMemory) {
  // apply_run promises exactly the per-item move_to loop, so a repeated
  // id moves (and is charged) twice and every other item keeps its index
  // entry.  {1, 3, 3} fills index positions [0, 2] with k = 3, so only
  // the distinctness check keeps it off the block path.
  for (const std::vector<ItemId>& ids :
       {std::vector<ItemId>{3, 2, 3}, std::vector<ItemId>{1, 3, 3}}) {
    SCOPED_TRACE(::testing::PrintToString(ids));
    StorePair pair;
    pair.place(1, 0, 10);
    pair.place(2, 10, 10);
    pair.place(3, 20, 10);
    pair.run(ids, 100);
    EXPECT_EQ(pair.slab().offset_of(3), 120u);
    EXPECT_EQ(pair.slab().total_moved(), 30u + 30u);  // 3 places + 3 moves
  }
}

TEST(SlabStore, ResetExtentsNamingAnIdTwiceMatchesMemory) {
  // reset_extents promises exactly the per-id reset_extent loop.  A list
  // of n ids that repeats one leaves an item unnamed, so it must not take
  // the whole-layout revert: item 2 keeps its inflated extent.  A
  // permutation of every item not in layout order still reverts them all.
  StorePair pair;
  pair.place(1, 0, 10, /*extent=*/15);
  pair.place(2, 15, 10, /*extent=*/20);
  pair.place(3, 35, 10, /*extent=*/12);
  pair.reset_extents({3, 1, 3});
  EXPECT_EQ(pair.slab().extent_of(1), 10u);
  EXPECT_EQ(pair.slab().extent_of(2), 20u);
  EXPECT_EQ(pair.slab().extent_of(3), 10u);
  EXPECT_EQ(pair.slab().extent_mass(), 40u);
  pair.reset_extents({2, 3, 1});
  EXPECT_EQ(pair.slab().extent_of(2), 10u);
  EXPECT_EQ(pair.slab().extent_mass(), 30u);

  // A list that follows the layout order for a prefix and then repeats an
  // id reverts the prefix and leaves the unnamed rightmost item inflated.
  StorePair prefix;
  prefix.place(1, 0, 10, /*extent=*/15);
  prefix.place(2, 15, 10, /*extent=*/20);
  prefix.place(3, 35, 10, /*extent=*/12);
  prefix.reset_extents({1, 2, 2});
  EXPECT_EQ(prefix.slab().extent_of(1), 10u);
  EXPECT_EQ(prefix.slab().extent_of(2), 10u);
  EXPECT_EQ(prefix.slab().extent_of(3), 12u);
  EXPECT_EQ(prefix.slab().extent_mass(), 32u);
}

TEST(SlabStore, ReorderingRunOverMiddleIndexRange) {
  // Items 2, 3, 4 hold index positions [1, 3] with unmoved items on both
  // sides; the run reverses their order and inflates nothing, so the
  // block rewrite owns exactly that index range.
  StorePair pair;
  for (ItemId id = 1; id <= 6; ++id) pair.place(id, (id - 1) * 10, 10);
  pair.run({4, 2, 3}, 10);
  EXPECT_EQ(pair.slab().offset_of(4), 10u);
  EXPECT_EQ(pair.slab().offset_of(2), 20u);
  // A second reordering pass over the same range, now with an inflated
  // extent inside the run.
  StorePair inflated;
  inflated.place(1, 0, 10);
  inflated.place(2, 10, 10, /*extent=*/15);
  inflated.place(3, 25, 10);
  inflated.place(4, 35, 10);
  inflated.place(5, 60, 10);
  inflated.run({3, 4, 2}, 10);
  EXPECT_EQ(inflated.slab().offset_of(2), 30u);
}

TEST(SlabStore, RunOverNonContiguousIndexSlotsFallsBack) {
  // Items 5 and 3 sit at index positions 4 and 2 with item 4 between
  // them: the run's slots do not fill one index range.
  StorePair pair;
  for (ItemId id = 1; id <= 6; ++id) pair.place(id, (id - 1) * 100, 10);
  pair.run({5, 3}, 110);
  EXPECT_EQ(pair.slab().offset_of(5), 110u);
  EXPECT_EQ(pair.slab().offset_of(3), 120u);
  const auto n = pair.slab().neighbors_of(4);
  ASSERT_TRUE(n.prev.has_value());
  EXPECT_EQ(n.prev->id, 3u);
}

TEST(SlabStore, ContiguousRunCrossingAnOutsideNeighborFallsBack) {
  // Items 2 and 3 fill index positions [1, 2], but the run lands them
  // past item 4 (position 3): the last new key crosses by_offset_[hi + 1].
  StorePair pair;
  for (ItemId id = 1; id <= 4; ++id) pair.place(id, (id - 1) * 100, 10);
  pair.run({2, 3}, 310);
  EXPECT_EQ(pair.slab().offset_of(2), 310u);
  EXPECT_EQ(pair.slab().last_item()->id, 3u);
  // Mirror case: the first new key lands before by_offset_[lo - 1].
  StorePair left;
  for (ItemId id = 1; id <= 4; ++id) left.place(id, 100 + (id - 1) * 100, 10);
  left.run({3, 4}, 0);
  EXPECT_EQ(left.slab().first_item()->id, 3u);
}

TEST(SlabStore, SlotSurvivesMovesAndOtherItemsRemovals) {
  StorePair pair;
  for (ItemId id = 1; id <= 5; ++id) pair.place(id, (id - 1) * 10, 10);
  const std::vector<std::uint32_t> before = pair.slots({1, 3, 5});
  pair.run({5, 4, 3, 2, 1}, 0);  // reorders every item
  pair.remove(2);
  pair.remove(4);
  pair.run({1, 3, 5}, 0);
  EXPECT_EQ(pair.slots({1, 3, 5}), before);
  // The cached slots still drive a slot-form run after all of that.
  pair.run({1, 3, 5}, before, 100);
  EXPECT_EQ(pair.slab().offset_of(5), 120u);
}

TEST(SlabStore, FreedSlotIsReused) {
  StorePair pair;
  for (ItemId id = 1; id <= 3; ++id) pair.place(id, (id - 1) * 10, 10);
  const std::uint32_t freed = pair.slab().slot_of(2);
  pair.remove(2);
  EXPECT_EQ(pair.slab().item_count(), 2u);
  pair.place(9, 40, 10);
  EXPECT_EQ(pair.slab().slot_of(9), freed);
  EXPECT_EQ(pair.slab().item_count(), 3u);
  // One more place grows the slab instead of touching a live slot.
  pair.place(10, 50, 10);
  EXPECT_EQ(pair.slots({1, 3, 9, 10}),
            (std::vector<std::uint32_t>{0, 2, freed, 3}));
}

TEST(SlabStore, StaleOrForeignSlotIsRefusedBeforeAnyWrite) {
  StorePair pair;
  for (ItemId id = 1; id <= 4; ++id) pair.place(id, (id - 1) * 10, 10);
  const std::vector<std::uint32_t> cached = pair.slots({1, 2, 3, 4});
  // Item 2 goes and item 7 takes its slot: the cached slot is stale.
  pair.remove(2);
  pair.place(7, 50, 10);
  ASSERT_EQ(pair.slab().slot_of(7), cached[1]);
  // The bad slot comes last, so items 1 and 3 resolve first and would be
  // the ones to move if anything did.
  pair.refused_run({1, 3, 2}, {cached[0], cached[2], cached[1]}, 100);
  pair.refused_run({1, 3, 7}, {cached[0], cached[2], cached[1] + 100}, 100);
  // A live slot naming another live item.
  pair.refused_run({1, 3}, {cached[2], cached[0]}, 100);
  pair.refused_run({1, 3}, {cached[0]}, 100);  // one slot short
  EXPECT_EQ(pair.slab().total_moved(), 50u);   // the five places only
  pair.run({1, 3, 7}, {cached[0], cached[2], cached[1]}, 100);
}

TEST(SlabStore, SlotFormRunsMatchTheIdForm) {
  // The runs the id-form tests above cover — a repeated id, a reordered
  // middle range, a run over non-contiguous index positions, one crossing
  // an outside neighbor — in the slot form, checked against Memory after
  // every update, with removals and slot reuse in between.
  StorePair pair;
  for (ItemId id = 1; id <= 6; ++id) pair.place(id, (id - 1) * 100, 10);
  const auto run = [&](const std::vector<ItemId>& ids, Tick offset) {
    pair.run(ids, pair.slots(ids), offset);
  };
  run({3, 2, 3}, 0);
  run({1, 3, 3}, 0);
  run({4, 2, 3}, 10);
  run({5, 3}, 110);
  run({2, 3}, 310);
  pair.remove(4);
  pair.place(8, 700, 10, /*extent=*/15);
  run({1, 2, 3, 5, 6, 8}, 0);
  run({8, 6, 5}, 30);
  pair.remove(1);
  pair.place(9, 0, 10);
  run({9, 2, 3, 8, 6, 5}, 100);
}

TEST(SlabStore, IdMapSurvivesChurnAcrossGrowthAndDeletion) {
  // Enough distinct ids to force several id-map growths and long
  // backward-shift chains; audit() cross-checks every lookup.
  SlabStore store(Tick{1} << 40, Tick{1} << 20);
  std::vector<ItemId> live;
  for (ItemId id = 0; id < 500; ++id) {
    store.begin_update(4, true);
    store.place(id, id * 8, 4);
    store.end_update();
    live.push_back(id);
  }
  // Delete every third item, then re-insert with new ids.
  for (std::size_t i = 0; i < live.size(); i += 3) {
    store.begin_update(4, false);
    store.remove(live[i]);
    store.end_update();
  }
  for (ItemId id = 1000; id < 1200; ++id) {
    store.begin_update(4, true);
    store.place(id, id * 8, 4);
    store.end_update();
  }
  store.audit();
  EXPECT_EQ(store.item_count(), 500 - (500 + 2) / 3 + 200);
}

// Usage errors: the same refusals as Memory's (test_mem.cpp).
TEST(SlabStore, UnknownItemRejected) {
  SlabStore store(1 << 20, 1 << 10);
  store.begin_update(1, true);
  EXPECT_THROW(store.move_to(42, 0), InvariantViolation);
  EXPECT_THROW(store.remove(42), InvariantViolation);
  store.place(1, 0, 1);
  store.end_update();
  EXPECT_THROW((void)store.offset_of(42), InvariantViolation);
  EXPECT_FALSE(store.contains(42));
  store.audit();
}

TEST(SlabStore, DuplicatePlaceRejected) {
  SlabStore store(1 << 20, 1 << 10);
  store.begin_update(1, true);
  store.place(1, 0, 1);
  store.place(2, 5, 3);
  // The refusal comes before any mutation: the record, the index and the
  // id map still describe exactly the two placed items.
  EXPECT_THROW(store.place(1, 10, 1), InvariantViolation);
  store.end_update();
  EXPECT_EQ(store.item_count(), 2u);
  EXPECT_EQ(store.offset_of(1), 0u);
  EXPECT_EQ(store.live_mass(), 4u);
  EXPECT_EQ(store.span_end(), 8u);
  store.audit();
}

TEST(MakeCell, RejectsUnknownEngineNames) {
  CellConfig c;
  c.engine = "debug";
  c.allocator = "simple";
  EXPECT_THROW((void)make_cell(kCap, Tick{1} << 40, c), InvariantViolation);
}

TEST(MakeCell, EngineNamesMatchFactory) {
  for (const auto& engine : engine_names()) {
    CellConfig c;
    c.engine = engine;
    c.allocator = "folklore-compact";
    auto cell = make_cell(Tick{1} << 30, Tick{1} << 20, c);
    ASSERT_NE(cell, nullptr);
    EXPECT_EQ(cell->name(), "folklore-compact");
  }
}

}  // namespace
}  // namespace memreal
