// GEO (Theorem 4.1): level structure, size classes, huge-item handling,
// swap/inflation, waste recovery, level-size invariant, cost shape.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <map>

#include "alloc/geo.h"
#include "mem/memory.h"
#include "release/slab_store.h"
#include "testing.h"
#include "workload/adversarial.h"
#include "workload/churn.h"

namespace memreal {
namespace {

constexpr Tick kCap = Tick{1} << 50;

GeoAllocator make_geo(LayoutStore& mem, double eps, std::uint64_t seed = 9) {
  GeoConfig c;
  c.eps = eps;
  c.seed = seed;
  return GeoAllocator(mem, c);
}

Sequence geo_seq(double eps, std::size_t updates, std::uint64_t seed,
                 double huge_fraction = 0.0) {
  GeoRegimeConfig c;
  c.capacity = kCap;
  c.eps = eps;
  c.churn_updates = updates;
  c.seed = seed;
  c.huge_fraction = huge_fraction;
  return make_geo_regime(c);
}

TEST(Geo, StructureMatchesPaper) {
  Memory mem = testing::strict_memory(kCap, 1.0 / 64);
  GeoAllocator geo = make_geo(mem, 1.0 / 64);
  // ell = ceil(4.5 * log2(64)) = 27 levels.
  EXPECT_EQ(geo.level_count(), 27);
  // Huge threshold = sqrt(eps)/100.
  EXPECT_EQ(geo.huge_threshold(),
            static_cast<Tick>(std::sqrt(1.0 / 64) / 100.0 *
                              static_cast<double>(kCap)));
  // C = O(eps^-1/2 log eps^-1) classes; for eps = 1/64 about
  // log_{1.125}(eps^-4.5) ~ 160.
  EXPECT_GT(geo.class_count(), 100u);
  EXPECT_LT(geo.class_count(), 400u);
}

TEST(Geo, ClassOfSizeIsMonotone) {
  Memory mem = testing::strict_memory(kCap, 1.0 / 64);
  GeoAllocator geo = make_geo(mem, 1.0 / 64);
  std::size_t prev = 0;
  const Tick lo = static_cast<Tick>(std::pow(1.0 / 64, 5.0) *
                                    static_cast<double>(kCap));
  for (Tick s = lo; s < geo.huge_threshold(); s += (s / 7) + 1) {
    const std::size_t c = geo.class_of_size(s);
    EXPECT_GE(c, prev);
    prev = c;
  }
}

TEST(Geo, DeeperLevelsFitFewerItems) {
  Memory mem = testing::strict_memory(kCap, 1.0 / 64);
  GeoAllocator geo = make_geo(mem, 1.0 / 64);
  // j* is deeper for smaller classes.
  const std::size_t small_cls = geo.class_of_size(
      static_cast<Tick>(std::pow(1.0 / 64, 4.0) * static_cast<double>(kCap)));
  const std::size_t large_cls =
      geo.class_of_size(geo.huge_threshold() - 1);
  EXPECT_GT(geo.deepest_level_for_class(small_cls),
            geo.deepest_level_for_class(large_cls));
  EXPECT_GE(geo.deepest_level_for_class(large_cls), 1);
}

TEST(Geo, LayoutStaysContiguousFromZero) {
  Memory mem = testing::strict_memory(kCap, 1.0 / 64);
  GeoAllocator geo = make_geo(mem, 1.0 / 64);
  Engine engine(mem, geo);
  const Tick s = static_cast<Tick>(1e-4 * static_cast<double>(kCap));
  engine.step(Update::insert(1, s));
  engine.step(Update::insert(2, s + 100));
  engine.step(Update::insert(3, s + 7));
  // Rebuilds may reorder items, but the layout is contiguous from 0.
  EXPECT_EQ(mem.live_mass(), mem.span_end());
  const auto snap = mem.snapshot();
  EXPECT_EQ(snap.front().offset, 0u);
  geo.check_invariants();
}

TEST(Geo, HugeItemsCompactedAtStart) {
  Memory mem = testing::strict_memory(kCap, 1.0 / 64);
  GeoAllocator geo = make_geo(mem, 1.0 / 64);
  Engine engine(mem, geo);
  const Tick small = static_cast<Tick>(1e-3 * static_cast<double>(kCap));
  const Tick huge = geo.huge_threshold() * 2;
  engine.step(Update::insert(1, small));
  engine.step(Update::insert(2, huge));
  engine.step(Update::insert(3, small));
  engine.step(Update::insert(4, huge));
  // Both huge items occupy the prefix.
  const auto snap = mem.snapshot();
  EXPECT_EQ(snap[0].size, huge);
  EXPECT_EQ(snap[1].size, huge);
  geo.check_invariants();
  // Deleting a huge item compacts and keeps the prefix property.
  engine.step(Update::erase(2, huge));
  const auto snap2 = mem.snapshot();
  EXPECT_EQ(snap2[0].size, huge);
  geo.check_invariants();
}

TEST(Geo, SwapInflatesAndRecovers) {
  const double eps = 1.0 / 64;
  // Narrow band of large items: swaps are frequent and each wastes a large
  // class width, so waste recovery fires within a few thousand updates.
  GeoRegimeConfig c;
  c.capacity = kCap;
  c.eps = eps;
  c.band_ratio = 4;
  c.churn_updates = 6000;
  c.seed = 3;
  const Sequence seq = make_geo_regime(c);
  ValidationPolicy policy;
  policy.audit_every_n_updates = 64;
  Memory mem(seq.capacity, seq.eps_ticks, policy);
  GeoAllocator geo = make_geo(mem, eps);
  EngineOptions opts;
  opts.check_invariants_every = 64;
  Engine engine(mem, geo, opts);
  engine.run(seq.updates);
  // The run must have exercised waste recovery at least once...
  EXPECT_GT(geo.waste_recoveries(), 0u);
  // ...and a level rebuild fires on every non-huge update.
  EXPECT_GE(geo.level_rebuilds(), seq.updates.size() / 2);
}

TEST(Geo, WasteBoundedByEps) {
  const double eps = 1.0 / 64;
  const Sequence seq = geo_seq(eps, 800, 5);
  ValidationPolicy policy;
  policy.audit_every_n_updates = 1;
  Memory mem(seq.capacity, seq.eps_ticks, policy);
  GeoAllocator geo = make_geo(mem, eps);
  Engine engine(mem, geo);
  for (const Update& u : seq.updates) {
    engine.step(u);
    // Inflation waste stays below eps at all times (checked exactly).
    EXPECT_LE(mem.extent_mass() - mem.live_mass(), mem.eps_ticks());
  }
}

TEST(Geo, ResizableBoundHolds) {
  const double eps = 1.0 / 64;
  const Sequence seq = geo_seq(eps, 800, 6, /*huge_fraction=*/0.05);
  const RunStats s = testing::run_with_invariants("geo", seq, 1, 0.0, 8);
  EXPECT_GT(s.updates, 0u);
}

TEST(Geo, RejectsTooSmallItems) {
  Memory mem = testing::strict_memory(kCap, 1.0 / 64);
  GeoAllocator geo = make_geo(mem, 1.0 / 64);
  Engine engine(mem, geo);
  EXPECT_THROW(engine.step(Update::insert(1, 2)), InvariantViolation);
}

TEST(Geo, CapacityResolutionGuard) {
  // eps^5 * capacity must stay well above one tick.
  Memory mem = testing::strict_memory(1 << 20, 1.0 / 64);
  GeoConfig c;
  c.eps = 1.0 / 64;
  EXPECT_THROW(GeoAllocator(mem, c), InvariantViolation);
}

TEST(Geo, MinCapacityIsTheConstructorsFloor) {
  for (const double eps : {0.3, 1.0 / 4, 1.0 / 8, 1.0 / 16, 1.0 / 32, 1.0 / 64,
                           0.01, 1.0 / 256}) {
    const Tick min_cap = GeoAllocator::min_capacity(eps);
    GeoConfig c;
    c.eps = eps;
    for (const Tick cap : {min_cap, min_cap + 1, 2 * min_cap + 3}) {
      Memory mem(cap, Eps::of(eps, cap).ticks);
      EXPECT_NO_THROW(GeoAllocator(mem, c)) << "eps " << eps << " cap " << cap;
    }
    Memory below(min_cap - 1, Eps::of(eps, min_cap - 1).ticks);
    EXPECT_THROW(GeoAllocator(below, c), InvariantViolation) << "eps " << eps;
  }
  // eps^-5.5 ticks: 2^33 at eps 1/64.
  EXPECT_EQ(GeoAllocator::min_capacity(1.0 / 64), Tick{1} << 33);
}

TEST(Geo, LevelItemCountsAreNested) {
  const double eps = 1.0 / 64;
  const Sequence seq = geo_seq(eps, 400, 8);
  ValidationPolicy policy;
  policy.audit_every_n_updates = 1;
  Memory mem(seq.capacity, seq.eps_ticks, policy);
  GeoAllocator geo = make_geo(mem, eps);
  Engine engine(mem, geo);
  engine.run(seq.updates);
  for (int j = 2; j <= geo.level_count(); ++j) {
    EXPECT_LE(geo.level_item_count(j), geo.level_item_count(j - 1));
  }
}

// Parameterized sweep: full invariants across eps, seeds and huge mix.
struct GeoParam {
  double eps;
  std::uint64_t seed;
  double huge_fraction;
};

class GeoSweep : public ::testing::TestWithParam<GeoParam> {};

TEST_P(GeoSweep, InvariantsHold) {
  const auto [eps, seed, huge] = GetParam();
  const Sequence seq = geo_seq(eps, 600, seed, huge);
  const RunStats s = testing::run_with_invariants("geo", seq, seed, 0.0, 4);
  EXPECT_GT(s.updates, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GeoSweep,
    ::testing::Values(GeoParam{1.0 / 16, 1, 0.0}, GeoParam{1.0 / 16, 2, 0.1},
                      GeoParam{1.0 / 64, 1, 0.0}, GeoParam{1.0 / 64, 2, 0.05},
                      GeoParam{1.0 / 64, 3, 0.2}, GeoParam{1.0 / 256, 1, 0.0},
                      GeoParam{1.0 / 256, 2, 0.05}));

TEST(Geo, PingPongSameSizeKeepsInvariants) {
  // Insert/delete ping-pong of one size hammers the deepest level's
  // threshold (always 1) and the swap/waste machinery.
  const double eps = 1.0 / 64;
  Memory mem = testing::strict_memory(kCap, eps);
  GeoAllocator geo = make_geo(mem, eps);
  Engine engine(mem, geo);
  const Tick s = static_cast<Tick>(5e-4 * static_cast<double>(kCap));
  // Background population of the same class.
  for (ItemId i = 1; i <= 30; ++i) engine.step(Update::insert(i, s + i));
  ItemId next = 100;
  for (int round = 0; round < 120; ++round) {
    engine.step(Update::insert(next, s + 500));
    engine.step(Update::erase(next, s + 500));
    ++next;
    if (round % 10 == 0) geo.check_invariants();
  }
  geo.check_invariants();
  EXPECT_EQ(mem.item_count(), 30u);
}

TEST(Geo, DeleteEveryOtherThenRefill) {
  const double eps = 1.0 / 64;
  Memory mem = testing::strict_memory(kCap, eps);
  GeoAllocator geo = make_geo(mem, eps);
  Engine engine(mem, geo);
  Rng rng(17);
  const Tick base = static_cast<Tick>(3e-4 * static_cast<double>(kCap));
  std::vector<std::pair<ItemId, Tick>> items;
  for (ItemId i = 1; i <= 60; ++i) {
    const Tick s = base + rng.next_below(base);
    items.emplace_back(i, s);
    engine.step(Update::insert(i, s));
  }
  for (std::size_t i = 0; i < items.size(); i += 2) {
    engine.step(Update::erase(items[i].first, items[i].second));
  }
  geo.check_invariants();
  for (ItemId i = 100; i < 130; ++i) {
    engine.step(Update::insert(i, base + rng.next_below(base)));
  }
  geo.check_invariants();
  EXPECT_EQ(mem.item_count(), 60u);
}

TEST(Geo, DeterministicThresholdAblationStillCorrect) {
  // Correctness must survive the ablation; only the adversarial cost
  // profile changes (bench T8a).
  const double eps = 1.0 / 64;
  SingleClassAttackConfig c;
  c.capacity = kCap;
  c.eps = eps;
  c.attack_pairs = 400;
  const Sequence seq = make_single_class_attack(c);
  ValidationPolicy policy;
  policy.audit_every_n_updates = 1;
  Memory mem(seq.capacity, seq.eps_ticks, policy);
  GeoConfig gc;
  gc.eps = eps;
  gc.deterministic_thresholds = true;
  GeoAllocator geo(mem, gc);
  EngineOptions opts;
  opts.check_invariants_every = 8;
  Engine engine(mem, geo, opts);
  const RunStats s = engine.run(seq.updates);
  EXPECT_GT(s.updates, 0u);
}

// -- Bit-identity pin ---------------------------------------------------------
//
// A GEO run is a pure function of (sequence, config): every RNG draw, every
// rebuild and every move is deterministic.  The digest below folds the
// per-update cost stream, the final layout and the structural event counts
// into one FNV-1a hash; the constants were recorded before GEO's label
// bookkeeping moved from the per-item map into an array parallel to the
// layout order, and any change to GEO's decisions or move order breaks
// them.

struct GeoRunDigest {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  std::size_t level_rebuilds = 0;
  std::size_t waste_recoveries = 0;

  void mix(std::uint64_t x) {
    for (int b = 0; b < 8; ++b) {
      hash ^= (x >> (8 * b)) & 0xff;
      hash *= 0x100000001b3ULL;
    }
  }
};

// eps 1/64 with a narrow band (frequent swap-deletes, so waste recovery
// fires) and a 5% stream of huge items (huge inserts and erases).
Sequence pin_sequence() {
  GeoRegimeConfig c;
  c.capacity = kCap;
  c.eps = 1.0 / 64;
  c.band_ratio = 4;
  c.huge_fraction = 0.05;
  c.churn_updates = 3000;
  c.seed = 11;
  return make_geo_regime(c);
}

template <class Store, class EngineT>
GeoRunDigest pinned_geo_run(const Sequence& seq) {
  Store store(seq.capacity, seq.eps_ticks);
  GeoAllocator geo = make_geo(store, seq.eps, 21);
  EngineT engine(store, geo);
  GeoRunDigest d;
  for (const Update& u : seq.updates) {
    d.mix(std::bit_cast<std::uint64_t>(engine.step(u)));
  }
  for (const PlacedItem& p : store.snapshot()) {
    d.mix(p.id);
    d.mix(p.offset);
    d.mix(p.size);
    d.mix(p.extent);
  }
  store.audit();
  geo.check_invariants();
  d.level_rebuilds = geo.level_rebuilds();
  d.waste_recoveries = geo.waste_recoveries();
  d.mix(d.level_rebuilds);
  d.mix(d.waste_recoveries);
  return d;
}

constexpr std::uint64_t kPinnedHash = 16266812734418821070ULL;
constexpr std::size_t kPinnedRebuilds = 3275;
constexpr std::size_t kPinnedRecoveries = 5;
static_assert(kPinnedRecoveries > 0,
              "the pinned run must reach waste recovery, which only "
              "swap-deletes trigger");

TEST(GeoPin, SequenceHasHugeInsertsAndErases) {
  const Sequence seq = pin_sequence();
  Memory mem(seq.capacity, seq.eps_ticks);
  const Tick huge = make_geo(mem, seq.eps, 21).huge_threshold();
  std::size_t huge_inserts = 0;
  std::size_t huge_erases = 0;
  for (const Update& u : seq.updates) {
    if (u.size < huge) continue;
    ++(u.is_insert() ? huge_inserts : huge_erases);
  }
  EXPECT_GT(huge_inserts, 0u);
  EXPECT_GT(huge_erases, 0u);
}

TEST(GeoPin, MemoryRunIsBitIdentical) {
  const GeoRunDigest d = pinned_geo_run<Memory, Engine>(pin_sequence());
  EXPECT_EQ(d.hash, kPinnedHash);
  EXPECT_EQ(d.level_rebuilds, kPinnedRebuilds);
  EXPECT_EQ(d.waste_recoveries, kPinnedRecoveries);
}

TEST(GeoPin, SlabStoreRunIsBitIdentical) {
  const GeoRunDigest d = pinned_geo_run<SlabStore, Engine>(pin_sequence());
  EXPECT_EQ(d.hash, kPinnedHash);
  EXPECT_EQ(d.level_rebuilds, kPinnedRebuilds);
  EXPECT_EQ(d.waste_recoveries, kPinnedRecoveries);
}

// -- Label bookkeeping --------------------------------------------------------

// Level j is every item labelled >= j; count it by brute force over the
// store's snapshot and compare with GEO's own count.  Labels must also be
// non-decreasing in offset order (the layout discipline).
void expect_level_counts_match(const GeoAllocator& geo, const Memory& mem) {
  const auto snap = mem.snapshot();
  int prev = -1;
  for (const PlacedItem& p : snap) {
    EXPECT_GE(geo.label_of(p.id), prev) << "item " << p.id;
    prev = geo.label_of(p.id);
  }
  for (int j = -1; j <= geo.level_count() + 1; ++j) {
    std::size_t brute = 0;
    for (const PlacedItem& p : snap) brute += geo.label_of(p.id) >= j;
    EXPECT_EQ(geo.level_item_count(j), brute) << "level " << j;
  }
}

TEST(Geo, LevelCountsTrackScriptedUpdates) {
  const double eps = 1.0 / 64;
  Memory mem = testing::strict_memory(kCap, eps);
  GeoAllocator geo = make_geo(mem, eps);
  Engine engine(mem, geo);
  const Tick s = static_cast<Tick>(5e-4 * static_cast<double>(kCap));
  const Tick huge = geo.huge_threshold() * 2;
  const int jstar = geo.deepest_level_for_class(geo.class_of_size(s));
  std::map<ItemId, Tick> live;
  auto step = [&](const Update& u) {
    engine.step(u);
    if (u.is_insert()) {
      live[u.id] = u.size;
    } else {
      live.erase(u.id);
    }
    geo.check_invariants();
    expect_level_counts_match(geo, mem);
  };
  auto erase_where = [&](auto pred) {
    for (const auto& [id, size] : live) {
      if (pred(geo.label_of(id))) return step(Update::erase(id, size));
    }
    FAIL() << "no live item matches";
  };
  for (ItemId i = 1; i <= 12; ++i) step(Update::insert(i, s + i));
  step(Update::insert(100, huge));
  step(Update::insert(13, s + 13));
  step(Update::insert(101, huge + 5));
  step(Update::erase(100, huge));  // huge erase at the front of the prefix
  // Swap-delete: deleting an item outside level j* (label < j*) moves the
  // class minimum into its slot, inflated to the deleted item's extent.
  erase_where([&](int label) { return label >= 0 && label < jstar; });
  EXPECT_GT(mem.extent_mass(), mem.live_mass());
  // In-level delete: an item inside level j* is just removed.
  erase_where([&](int label) { return label >= jstar; });
  step(Update::erase(101, huge + 5));
  EXPECT_EQ(mem.item_count(), 11u);
  EXPECT_EQ(geo.level_item_count(0), 11u);
}

}  // namespace
}  // namespace memreal
