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
  // Shift the first item onto its right neighbor: the SoA record changes
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

TEST(SlabStore, IdMapSurvivesChurnAcrossGrowthAndDeletion) {
  // Enough distinct ids to force several open-addressed table growths and
  // long backward-shift chains; audit() cross-checks every probe.
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
