// Tests of the benchmark's own machinery: the percentile helper, the
// timing proxies (every call forwarded, layouts and costs bit-identical to
// the bare store), and the pre-flight refusal.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "alloc/registry.h"
#include "harness/cell.h"
#include "percentile.h"
#include "perfadv/zoo.h"
#include "release/slab_store.h"
#include "timed_layers.h"
#include "workloads.h"

namespace perfbench {
namespace {

using memreal::LayoutStore;
using memreal::PlacedItem;
using memreal::SlabStore;

TEST(Percentile, HighestTailNeedsTenSamplesBeyond) {
  EXPECT_EQ(highest_tail_percentile(19), 0.0);
  EXPECT_EQ(highest_tail_percentile(20), 50.0);
  EXPECT_EQ(highest_tail_percentile(99), 50.0);
  EXPECT_EQ(highest_tail_percentile(100), 90.0);
  EXPECT_EQ(highest_tail_percentile(999), 90.0);
  EXPECT_EQ(highest_tail_percentile(1000), 99.0);
  EXPECT_EQ(highest_tail_percentile(9999), 99.0);
  EXPECT_EQ(highest_tail_percentile(10000), 99.9);
  EXPECT_EQ(highest_tail_percentile(100000), 99.99);
  EXPECT_EQ(samples_beyond(1000, 99.0), 10u);
  EXPECT_EQ(samples_beyond(999, 99.0), 9u);
}

TEST(Percentile, NearestRank) {
  std::vector<double> xs;
  for (int i = 100; i >= 1; --i) xs.push_back(i);
  const TailSummary s = summarize(xs);
  EXPECT_EQ(s.n, 100u);
  EXPECT_EQ(s.p50, 50.0);
  EXPECT_EQ(s.p99, 99.0);
  EXPECT_EQ(s.tail_p, 90.0);
  EXPECT_EQ(s.tail, 90.0);
  EXPECT_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_EQ(percentile(xs, 100.0), 100.0);
  EXPECT_EQ(percentile({}, 50.0), 0.0);
}

bool same_item(const std::optional<PlacedItem>& a,
               const std::optional<PlacedItem>& b) {
  if (a.has_value() != b.has_value()) return false;
  return !a || (a->id == b->id && a->offset == b->offset &&
                a->size == b->size && a->extent == b->extent);
}

bool same_items(const std::vector<PlacedItem>& a,
                const std::vector<PlacedItem>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_item(a[i], b[i])) return false;
  }
  return true;
}

/// Every query of the LayoutStore interface answers the same on both.
void expect_same_answers(const LayoutStore& bare, const LayoutStore& proxy) {
  EXPECT_EQ(bare.in_update(), proxy.in_update());
  EXPECT_EQ(bare.moved_in_update(), proxy.moved_in_update());
  EXPECT_EQ(bare.item_count(), proxy.item_count());
  EXPECT_EQ(bare.live_mass(), proxy.live_mass());
  EXPECT_EQ(bare.extent_mass(), proxy.extent_mass());
  EXPECT_EQ(bare.span_end(), proxy.span_end());
  EXPECT_EQ(bare.capacity(), proxy.capacity());
  EXPECT_EQ(bare.eps_ticks(), proxy.eps_ticks());
  EXPECT_EQ(bare.total_moved(), proxy.total_moved());
  EXPECT_EQ(bare.update_count(), proxy.update_count());
  EXPECT_EQ(bare.last_update_bytes(), proxy.last_update_bytes());
  EXPECT_EQ(bare.total_bytes_moved(), proxy.total_bytes_moved());
  EXPECT_TRUE(same_items(bare.snapshot(), proxy.snapshot()));
  EXPECT_TRUE(same_items(bare.items_in(0, 40), proxy.items_in(0, 40)));
  EXPECT_EQ(bare.gaps(), proxy.gaps());
  EXPECT_TRUE(same_item(bare.first_item(), proxy.first_item()));
  EXPECT_TRUE(same_item(bare.last_item(), proxy.last_item()));
  for (memreal::Tick t = 0; t < 60; t += 5) {
    EXPECT_TRUE(same_item(bare.item_at(t), proxy.item_at(t)));
    EXPECT_TRUE(
        same_item(bare.first_at_or_after(t), proxy.first_at_or_after(t)));
    EXPECT_TRUE(same_item(bare.last_before(t), proxy.last_before(t)));
  }
  for (ItemId id = 1; id <= 4; ++id) {
    ASSERT_EQ(bare.contains(id), proxy.contains(id));
    if (!bare.contains(id)) continue;
    EXPECT_EQ(bare.offset_of(id), proxy.offset_of(id));
    EXPECT_EQ(bare.size_of(id), proxy.size_of(id));
    EXPECT_EQ(bare.extent_of(id), proxy.extent_of(id));
    EXPECT_EQ(bare.end_of(id), proxy.end_of(id));
    const auto a = bare.neighbors_of(id);
    const auto b = proxy.neighbors_of(id);
    EXPECT_TRUE(same_item(a.prev, b.prev));
    EXPECT_TRUE(same_item(a.next, b.next));
  }
}

/// Drives one scripted run of every mutating call through `store`.
template <class Check>
void script(LayoutStore& store, Check check) {
  store.begin_update(10, true);
  store.place(1, 0, 10);
  EXPECT_EQ(store.end_update(), 10u);
  check();
  store.begin_update(10, true);
  store.place(2, 10, 10, 12);
  store.end_update();
  check();
  store.begin_update(10, true);
  store.place(3, 30, 10);
  store.end_update();
  check();
  // Item 1 jumps past item 3: a reordering move.
  store.begin_update(5, true);
  store.move_to(1, 40);
  store.place(4, 0, 5);
  store.end_update();
  check();
  // Items 2 and 3 slide left together: two moves, no reordering.
  store.begin_update(5, false);
  store.remove(4);
  const std::vector<ItemId> run{2, 3};
  EXPECT_EQ(store.apply_run(run, 0), 22u);
  store.set_extent(3, 11);
  store.reset_extent(2);
  const std::vector<ItemId> ids{3};
  store.reset_extents(ids);
  store.end_update();
  check();
  store.audit();
}

TEST(TimedStore, ForwardsEveryCallAndCountsMoves) {
  SlabStore bare(100, 2);
  SlabStore inner(100, 2);
  TraceContext ctx;
  TimedStore proxy(inner, ctx);
  // The script leaves a gap before item 1, which the resizable bound
  // forbids; setting the policy through the proxy reaches the inner store.
  bare.policy().check_resizable_bound = false;
  proxy.policy().check_resizable_bound = false;
  EXPECT_FALSE(inner.policy().check_resizable_bound);
  script(bare, [] {});
  script(proxy, [&] {});
  expect_same_answers(bare, proxy);
  EXPECT_EQ(&proxy.policy(), &inner.policy());

  const StoreCounters& c = proxy.counters();
  EXPECT_EQ(c.moves, 3u);          // 1 -> 40, then 2 and 3 in the run
  EXPECT_EQ(c.reorder_moves, 1u);  // only 1 -> 40 changed neighbours
  EXPECT_GT(c.calls, 15u);
  EXPECT_GE(c.outer_ns, c.ns);
  EXPECT_EQ(c.outer_ns_in_alloc, 0.0);  // no allocator was running
}

/// Counts every Allocator call so forwarding can be checked one by one.
class CountingAllocator final : public memreal::Allocator {
 public:
  void insert(ItemId, Tick) override { ++inserts; }
  void erase(ItemId) override { ++erases; }
  [[nodiscard]] std::string_view name() const override { return "counting"; }
  [[nodiscard]] bool resizable() const override { return false; }
  void check_invariants() const override { ++checks; }
  [[nodiscard]] double decision_seconds() const override { return 1.5; }

  int inserts = 0;
  int erases = 0;
  mutable int checks = 0;
};

TEST(TimedAllocator, ForwardsEveryCall) {
  CountingAllocator inner;
  TraceContext ctx;
  SpanLog spans;
  ctx.spans = &spans;
  TimedAllocator proxy(inner, ctx);
  proxy.insert(1, 5);
  proxy.insert(2, 5);
  proxy.erase(1);
  proxy.check_invariants();
  EXPECT_EQ(inner.inserts, 2);
  EXPECT_EQ(inner.erases, 1);
  EXPECT_EQ(inner.checks, 1);
  EXPECT_EQ(proxy.name(), "counting");
  EXPECT_FALSE(proxy.resizable());
  EXPECT_EQ(proxy.decision_seconds(), 1.5);
  EXPECT_EQ(proxy.calls(), 3u);
  EXPECT_EQ(spans.spans().size(), 3u);
  EXPECT_FALSE(ctx.in_alloc);
}

/// The traced cell reproduces the bare release cell's costs and layout
/// update for update, for allocators that do and do not reorder items,
/// with and without an arena.
TEST(TracedCell, BitIdenticalToBareCell) {
  struct Case {
    std::string allocator;
    bool arena;
  };
  // Arena cases use a small capacity (the payloads are real); GEO needs a
  // large one, so it runs tick-native only.
  const Case cases[] = {{"simple", false},
                        {"geo", false},
                        {"folklore-compact", false},
                        {"simple", true},
                        {"folklore-compact", true}};
  for (const auto& [name, arena] : cases) {
    {
      const memreal::Tick capacity = memreal::Tick{1} << (arena ? 20 : 40);
      SCOPED_TRACE(name + (arena ? " +arena" : ""));
      const memreal::AllocatorInfo info = memreal::allocator_info(name);
      const double eps = info.default_eps;
      const memreal::Sequence seq = memreal::make_scenario(
          arena ? "vm_heap" : "churn",
          memreal::scenario_params_for(info, eps, capacity, 300, 7));
      memreal::CellConfig config;
      config.engine = "release";
      config.allocator = name;
      config.params.eps = eps;
      config.params.seed = 7;
      config.arena = arena;
      const memreal::Tick eps_ticks = memreal::Eps::of(eps, capacity).ticks;
      const auto bare = memreal::make_cell(capacity, eps_ticks, config);
      SpanLog spans;
      TracedCell traced(capacity, eps_ticks, config, &spans, 0);
      for (std::size_t i = 0; i < seq.size(); ++i) {
        ASSERT_EQ(bare->step(seq.updates[i]), traced.step(seq.updates[i], i))
            << "update " << i;
      }
      EXPECT_TRUE(same_items(bare->memory().snapshot(),
                             traced.memory().snapshot()));
      EXPECT_EQ(bare->stats().moved_bytes, traced.stats().moved_bytes);
      traced.audit();
      const LayerTotals t = traced.totals();
      EXPECT_EQ(t.updates, seq.size());
      EXPECT_EQ(t.has_arena, arena);
      EXPECT_LE(t.alloc_ns, t.step_ns);
      if (arena) {
        EXPECT_EQ(t.arena_bytes, traced.stats().moved_bytes);
      }
    }
  }
}

TEST(Preflight, RefusesAnInadmissibleConfigAndNamesWhy) {
  for (const WorkloadSpec& spec : workload_specs()) {
    EXPECT_EQ(preflight(spec), "") << spec.name;
  }
  WorkloadSpec coarse = *find_workload("geo_churn");
  coarse.allocator = "flexhash";
  coarse.eps = 1.0 / 8;
  const std::string why = preflight(coarse);
  EXPECT_NE(why.find("flexhash"), std::string::npos) << why;

  WorkloadSpec banded = *find_workload("geo_churn");
  banded.scenario = "db_page_churn";
  banded.allocator = "simple";
  EXPECT_FALSE(preflight(banded).empty());
}

}  // namespace
}  // namespace perfbench
