// Registry smoke test: every allocator name that the registry exposes must
// construct via make_allocator and survive a ~100-update random sequence —
// on BOTH cell engines.  The validated engine runs exhaustive memory
// validation and per-update invariant checks; the release engine runs the
// unchecked fast path with a final full audit.  Parameterizing over
// engine_names() means any future registry allocator is smoke-tested on
// the fast path for free.
//
// Each allocator only guarantees behaviour on its admissible size regime,
// so the workload is chosen per name (tests/testing.h regime_sequence) —
// registering a new allocator without adding a mapping there fails the
// test, so new names can never land without minimal coverage.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "alloc/registry.h"
#include "harness/cell.h"
#include "mem/memory.h"
#include "testing.h"

namespace memreal {
namespace {

constexpr Tick kCap = Tick{1} << 50;
constexpr std::size_t kUpdates = 100;

TEST(RegistrySmoke, NamesAreUniqueAndFactoriesResolve) {
  auto names = allocator_names();
  ASSERT_FALSE(names.empty());
  auto sorted = names;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end())
      << "duplicate allocator name registered";
  for (const auto& name : names) {
    EXPECT_TRUE(allocator_factory(name)) << name;
  }
}

class RegistrySmokePerEngine
    : public ::testing::TestWithParam<std::string> {};

TEST_P(RegistrySmokePerEngine, EveryRegisteredAllocatorSurvivesRandomRun) {
  const std::string& engine = GetParam();
  for (const auto& name : allocator_names()) {
    SCOPED_TRACE(name);
    const testing::RegimeCase c = testing::regime_case(name);
    const Sequence seq = testing::regime_sequence(c, kCap, kUpdates,
                                                  /*seed=*/17);
    ASSERT_GE(seq.size(), kUpdates) << "workload too short for " << name;
    seq.check_well_formed();
    RunStats stats;
    if (engine == "validated") {
      // Keep the historical exhaustive mode: audit + allocator
      // check_invariants at every update, not just at run end.
      stats = testing::run_with_invariants(name, seq, /*seed=*/17, c.delta,
                                           /*check_every=*/1);
    } else {
      stats = testing::run_cell(engine, name, seq, /*seed=*/17, c.delta);
    }
    EXPECT_EQ(stats.updates, seq.size());
  }
}

INSTANTIATE_TEST_SUITE_P(AllEngines, RegistrySmokePerEngine,
                         ::testing::ValuesIn(engine_names()),
                         [](const auto& info) { return info.param; });

// A registry band's edges must be sizes its allocator accepts at every eps
// it serves, not only where eps * capacity is an integer.  At eps 0.01 and
// 2^40 ticks, eps * capacity = 10995116277.76: SIMPLE builds [eps, 2eps)
// from the floored eps tick count, so the profile must floor the same way
// before doubling.
TEST(RegistrySmoke, BandEdgesInsertAtNonDyadicEps) {
  constexpr Tick kCapacity = Tick{1} << 40;
  std::size_t checked = 0;
  for (const AllocatorInfo& info : allocator_infos()) {
    for (const double eps : {0.01, 0.03}) {
      const WorkloadShape band = info.sizes.shape(eps, kCapacity);
      if (!info.serves(band, eps, kCapacity)) continue;
      for (const Tick size : {band.min_size, band.max_size}) {
        SCOPED_TRACE(info.name + " at eps " + std::to_string(eps) +
                     ", size " + std::to_string(size));
        CellConfig c;
        c.allocator = info.name;
        c.params.eps = eps;
        Cell cell(kCapacity, Eps::of(eps, kCapacity).ticks, c);
        EXPECT_NO_THROW(cell.step(Update::insert(1, size)));
        EXPECT_NO_THROW(cell.audit());
      }
      ++checked;
    }
  }
  EXPECT_GE(checked, 2u);  // SIMPLE at both eps values, at least
}

TEST(RegistrySmoke, UnknownAllocatorErrorListsRegisteredNames) {
  for (const auto* lookup : {"factory", "info"}) {
    SCOPED_TRACE(lookup);
    try {
      if (std::string(lookup) == "factory") {
        (void)allocator_factory("no-such-allocator");
      } else {
        (void)allocator_info("no-such-allocator");
      }
      FAIL() << "expected InvariantViolation";
    } catch (const InvariantViolation& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("no-such-allocator"), std::string::npos);
      for (const auto& name : allocator_names()) {
        EXPECT_NE(what.find(name), std::string::npos) << name;
      }
    }
  }
}

TEST(RegistrySmoke, ConstructedAllocatorsReportNames) {
  for (const auto& name : allocator_names()) {
    SCOPED_TRACE(name);
    Memory mem = testing::strict_memory(kCap, 1.0 / 32);
    AllocatorParams p;
    p.eps = 1.0 / 32;
    if (name == "rsum") {
      p.eps = 1.0 / 256;
      p.delta = 1.0 / 128;
    }
    auto alloc = make_allocator(name, mem, p);
    ASSERT_NE(alloc, nullptr);
    EXPECT_FALSE(alloc->name().empty());
  }
}

}  // namespace
}  // namespace memreal
