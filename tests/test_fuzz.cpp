// Tests for the differential fuzzing subsystem: profile-driven generation,
// well-formedness-preserving mutation, the lockstep differential oracle,
// the delta-debugging shrinker, corpus round-trips — and the
// mutation-testing sanity check: deliberately broken allocators planted
// via runtime registration must be caught within a bounded iteration
// budget and shrunk to a small reproducer.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "fuzz/corpus.h"
#include "fuzz/differential.h"
#include "fuzz/fuzzer.h"
#include "fuzz/generator.h"
#include "fuzz/mutator.h"
#include "fuzz/shrinker.h"
#include "mem/memory.h"
#include "release/slab_store.h"
#include "util/check.h"
#include "workload/sequence.h"
#include "workload/trace.h"

namespace memreal {
namespace {

constexpr Tick kCap = Tick{1} << 40;

SizeProfile band_profile() {
  return SizeProfile{1.0, 1.0, 2.0, 1.0, false};  // [eps, 2eps)
}

// -- Planted broken allocators -------------------------------------------

/// First-fit placement into the recorded gaps; non-resizable so a healthy
/// run never trips the span bound.  The planted bug: the `overlap_on`-th
/// insert is placed one tick inside the last item's extent.
class OverlapAllocator : public Allocator {
 public:
  OverlapAllocator(LayoutStore& mem, std::size_t overlap_on)
      : mem_(&mem), overlap_on_(overlap_on) {}

  void insert(ItemId id, Tick size) override {
    ++inserts_;
    Tick offset = first_fit(size);
    if (inserts_ == overlap_on_ && offset > 0) offset -= 1;
    mem_->place(id, offset, size);
  }
  void erase(ItemId id) override { mem_->remove(id); }
  [[nodiscard]] std::string_view name() const override {
    return "test-overlap";
  }
  [[nodiscard]] bool resizable() const override { return false; }

 private:
  Tick first_fit(Tick size) const {
    for (const auto& [offset, len] : mem_->gaps()) {
      if (len >= size) return offset;
    }
    return mem_->span_end();
  }

  LayoutStore* mem_;
  std::size_t overlap_on_;
  std::size_t inserts_ = 0;
};

/// First-fit, but every `skip_on`-th insert is silently dropped — the item
/// is never placed, so the accounted live mass diverges from the sequence.
class LeakyAllocator : public Allocator {
 public:
  LeakyAllocator(LayoutStore& mem, std::size_t skip_on)
      : mem_(&mem), skip_on_(skip_on) {}

  void insert(ItemId id, Tick size) override {
    ++inserts_;
    if (inserts_ % skip_on_ == 0) return;  // "forget" the placement
    for (const auto& [offset, len] : mem_->gaps()) {
      if (len >= size) {
        mem_->place(id, offset, size);
        return;
      }
    }
    mem_->place(id, mem_->span_end(), size);
  }
  void erase(ItemId id) override {
    if (mem_->contains(id)) mem_->remove(id);
  }
  [[nodiscard]] std::string_view name() const override { return "test-leaky"; }
  [[nodiscard]] bool resizable() const override { return false; }

 private:
  LayoutStore* mem_;
  std::size_t skip_on_;
  std::size_t inserts_ = 0;
};

/// Keeps a compact layout but reverses the item order on every update, so
/// nearly every live item moves every update — a cost blowout, not an
/// invariant violation.
class ThrashingAllocator : public Allocator {
 public:
  explicit ThrashingAllocator(LayoutStore& mem) : mem_(&mem) {}

  void insert(ItemId id, Tick size) override {
    mem_->place(id, mem_->span_end(), size);
    reverse_compact();
  }
  void erase(ItemId id) override {
    mem_->remove(id);
    reverse_compact();
  }
  [[nodiscard]] std::string_view name() const override {
    return "test-thrash";
  }

 private:
  void reverse_compact() {
    const auto snap = mem_->snapshot();
    Tick offset = 0;
    for (auto it = snap.rbegin(); it != snap.rend(); ++it) {
      mem_->move_to(it->id, offset);
      offset += it->extent;
    }
  }

  LayoutStore* mem_;
};

/// Registers a test allocator for the lifetime of one test.
class ScopedRegistration {
 public:
  ScopedRegistration(AllocatorInfo info, AllocatorFactory factory)
      : name_(info.name) {
    register_allocator(std::move(info), std::move(factory));
  }
  ~ScopedRegistration() { unregister_allocator(name_); }

  ScopedRegistration(const ScopedRegistration&) = delete;
  ScopedRegistration& operator=(const ScopedRegistration&) = delete;

 private:
  std::string name_;
};

AllocatorInfo test_info(const std::string& name, CostBudget budget) {
  AllocatorInfo info;
  info.name = name;
  info.sizes = band_profile();
  info.budget = budget;
  info.default_eps = 1.0 / 64;
  return info;
}

FuzzConfig planted_bug_config(const std::string& allocator) {
  FuzzConfig cfg;
  cfg.seed = 11;
  cfg.iterations = 10;
  cfg.updates_per_sequence = 60;
  cfg.allocators = {allocator};
  cfg.capacity = kCap;
  return cfg;
}

// -- Seeds ----------------------------------------------------------------

TEST(FuzzSeeds, IterationSeedIsPureAndSpreads) {
  EXPECT_EQ(iteration_seed(1, 0), iteration_seed(1, 0));
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 100; ++i) seeds.push_back(iteration_seed(1, i));
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
  EXPECT_NE(iteration_seed(1, 5), iteration_seed(2, 5));
}

TEST(FuzzSeeds, TargetSeedDependsOnName) {
  EXPECT_EQ(target_seed(7, "geo"), target_seed(7, "geo"));
  EXPECT_NE(target_seed(7, "geo"), target_seed(7, "rsum"));
  EXPECT_NE(target_seed(7, "geo"), target_seed(8, "geo"));
}

// -- Target groups --------------------------------------------------------

TEST(FuzzGroups, UniversalBaselinesJoinEveryGroup) {
  const auto groups = make_target_groups(allocator_infos());
  ASSERT_GE(groups.size(), 4u);
  for (const TargetGroup& g : groups) {
    ASSERT_FALSE(g.members.empty());
    const auto has = [&](const std::string& name) {
      return std::any_of(g.members.begin(), g.members.end(),
                         [&](const AllocatorInfo& m) {
                           return m.name == name;
                         });
    };
    EXPECT_TRUE(has("folklore-compact"));
    EXPECT_TRUE(has("folklore-windowed"));
  }
}

TEST(FuzzGroups, OnlyUniversalTargetsFormOneGroup) {
  const auto groups = make_target_groups({allocator_info("folklore-compact"),
                                          allocator_info("folklore-windowed")});
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].members.size(), 2u);
}

// -- Generator / mutator --------------------------------------------------

TEST(FuzzGenerator, ProducesWellFormedSequencesInBand) {
  GeneratorConfig cfg;
  cfg.capacity = kCap;
  cfg.eps = 1.0 / 64;
  cfg.sizes = band_profile();
  cfg.updates = 300;
  Rng rng(5);
  const Sequence seq = generate_sequence(cfg, rng, "gen");
  seq.check_well_formed();
  EXPECT_EQ(seq.size(), 300u);
  const Tick lo = cfg.sizes.min_size(cfg.eps, kCap);
  const Tick hi = cfg.sizes.max_size(cfg.eps, kCap);
  for (const Update& u : seq.updates) {
    EXPECT_GE(u.size, lo);
    EXPECT_LT(u.size, hi);
  }
}

TEST(FuzzGenerator, DeterministicBySeed) {
  GeneratorConfig cfg;
  cfg.capacity = kCap;
  cfg.sizes = band_profile();
  cfg.updates = 100;
  Rng a(9), b(9), c(10);
  EXPECT_EQ(generate_sequence(cfg, a, "g").updates,
            generate_sequence(cfg, b, "g").updates);
  EXPECT_NE(generate_sequence(cfg, a, "g").updates,
            generate_sequence(cfg, c, "g").updates);
}

TEST(FuzzGenerator, PaletteModeUsesFewDistinctSizes) {
  GeneratorConfig cfg;
  cfg.capacity = kCap;
  cfg.sizes = band_profile();
  cfg.sizes.fixed_palette = true;
  cfg.palette = 4;
  cfg.updates = 200;
  Rng rng(3);
  const Sequence seq = generate_sequence(cfg, rng, "palette");
  seq.check_well_formed();
  std::vector<Tick> sizes;
  for (const Update& u : seq.updates) sizes.push_back(u.size);
  std::sort(sizes.begin(), sizes.end());
  sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());
  EXPECT_LE(sizes.size(), 4u);
}

TEST(FuzzMutator, MutantsStayWellFormed) {
  GeneratorConfig gen;
  gen.capacity = kCap;
  gen.sizes = band_profile();
  gen.updates = 150;
  MutatorConfig mut;
  mut.sizes = gen.sizes;
  Rng rng(21);
  Sequence seq = generate_sequence(gen, rng, "mut");
  for (int i = 0; i < 50; ++i) {
    seq = mutate_sequence(seq, mut, rng);
    ASSERT_FALSE(seq.updates.empty());
    seq.check_well_formed();
  }
}

// -- Workload repair hooks ------------------------------------------------

TEST(SequenceRepair, SubsequenceDropsOrphanDeletes) {
  SequenceBuilder b("sub", 1000, 0.1);
  const ItemId a = b.insert(100);
  const ItemId c = b.insert(200);
  b.erase_id(a);
  b.erase_id(c);
  const Sequence seq = b.take();
  // Drop a's insert: its delete must be dropped with it.
  const Sequence sub = subsequence(seq, {false, true, true, true});
  sub.check_well_formed();
  ASSERT_EQ(sub.size(), 2u);
  EXPECT_EQ(sub.updates[0].id, c);
  EXPECT_EQ(sub.updates[1].id, c);
}

TEST(SequenceRepair, RepairDropsOverBudgetInserts) {
  SequenceBuilder b("rep", 1000, 0.1);
  b.insert(500);
  const Sequence seq = b.take();
  std::vector<Update> edited = seq.updates;
  edited.push_back(Update::insert(99, 500));  // 1000 > budget of 900
  const Sequence repaired = repair_sequence(seq, edited);
  repaired.check_well_formed();
  EXPECT_EQ(repaired.size(), 1u);
}

TEST(SequenceRepair, WithSizesRewritesDeletes) {
  SequenceBuilder b("siz", 1000, 0.1);
  const ItemId a = b.insert(100);
  b.erase_id(a);
  const Sequence seq = b.take();
  const Sequence resized = with_sizes(seq, {{a, 7}});
  resized.check_well_formed();
  ASSERT_EQ(resized.size(), 2u);
  EXPECT_EQ(resized.updates[0].size, 7u);
  EXPECT_EQ(resized.updates[1].size, 7u);
}

// -- Differential oracle --------------------------------------------------

DifferentialConfig healthy_group() {
  DifferentialConfig cfg;
  for (const char* name : {"simple", "folklore-compact"}) {
    FuzzTarget t;
    t.allocator = name;
    t.params.eps = 1.0 / 64;
    t.params.seed = 42;
    t.budget = allocator_info(name).budget;
    cfg.targets.push_back(std::move(t));
  }
  return cfg;
}

TEST(Differential, HealthyGroupPasses) {
  GeneratorConfig gen;
  gen.capacity = kCap;
  gen.sizes = band_profile();
  gen.updates = 200;
  Rng rng(8);
  const Sequence seq = generate_sequence(gen, rng, "healthy");
  EXPECT_FALSE(run_differential(seq, healthy_group()).has_value());
}

TEST(Differential, LeakyAllocatorDiverges) {
  ScopedRegistration reg(
      test_info("test-leaky", {4.0, 1.0}),
      [](LayoutStore& mem, const AllocatorParams&) {
        return std::make_unique<LeakyAllocator>(mem, 3);
      });
  GeneratorConfig gen;
  gen.capacity = kCap;
  gen.sizes = band_profile();
  gen.updates = 60;
  Rng rng(8);
  const Sequence seq = generate_sequence(gen, rng, "leaky");
  DifferentialConfig cfg;
  FuzzTarget t;
  t.allocator = "test-leaky";
  t.params.eps = 1.0 / 64;
  t.budget = {4.0, 1.0};
  cfg.targets.push_back(t);
  const auto report = run_differential(seq, cfg);
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->kind, FailureKind::kDivergence);
  EXPECT_EQ(report->allocator, "test-leaky");
}

TEST(Differential, ThrashingAllocatorBlowsTheBudget) {
  ScopedRegistration reg(
      test_info("test-thrash", {0.5, 0.0}),  // bound = 0.5 * log2(64) = 3
      [](LayoutStore& mem, const AllocatorParams&) {
        return std::make_unique<ThrashingAllocator>(mem);
      });
  GeneratorConfig gen;
  gen.capacity = kCap;
  gen.sizes = band_profile();
  gen.updates = 200;
  Rng rng(4);
  const Sequence seq = generate_sequence(gen, rng, "thrash");
  DifferentialConfig cfg;
  FuzzTarget t;
  t.allocator = "test-thrash";
  t.params.eps = 1.0 / 64;
  t.budget = {0.5, 0.0};
  cfg.targets.push_back(t);
  const auto report = run_differential(seq, cfg);
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->kind, FailureKind::kCostBudget);
  EXPECT_GT(report->observed_cost, report->cost_bound);
}

// -- Shrinker -------------------------------------------------------------

TEST(Shrinker, ReducesToMinimalCore) {
  SequenceBuilder b("shrink", kCap, 1.0 / 16);
  const Tick size = kCap / 100;
  for (int i = 0; i < 8; ++i) b.insert(size);
  for (int i = 0; i < 4; ++i) b.erase_at(0);
  const Sequence seq = b.take();
  // The "bug" fires once the sequence carries at least 5 inserts — the
  // same shape as a planted every-Nth-insert fault.
  const FailurePredicate fails = [](const Sequence& s) {
    std::size_t inserts = 0;
    for (const Update& u : s.updates) inserts += u.is_insert();
    return inserts >= 5;
  };
  const ShrinkResult result = shrink_sequence(seq, fails);
  EXPECT_TRUE(result.minimal);
  EXPECT_EQ(result.seq.size(), 5u);
  for (const Update& u : result.seq.updates) {
    EXPECT_TRUE(u.is_insert());
    EXPECT_EQ(u.size, 1u);  // sizes shrink to the floor too
  }
}

TEST(Shrinker, SizeReductionConvergesToThreshold) {
  SequenceBuilder b("thresh", 1000, 0.1);
  b.insert(100);
  const Sequence seq = b.take();
  const FailurePredicate fails = [](const Sequence& s) {
    return !s.updates.empty() && s.updates[0].size >= 50;
  };
  const ShrinkResult result = shrink_sequence(seq, fails);
  EXPECT_TRUE(result.minimal);
  ASSERT_EQ(result.seq.size(), 1u);
  EXPECT_EQ(result.seq.updates[0].size, 50u);
}

TEST(Shrinker, RespectsMinSizeFloor) {
  SequenceBuilder b("floor", 1000, 0.1);
  b.insert(100);
  b.insert(200);
  const Sequence seq = b.take();
  const FailurePredicate fails = [](const Sequence& s) {
    return !s.updates.empty();
  };
  ShrinkConfig cfg;
  cfg.min_size = 10;
  const ShrinkResult result = shrink_sequence(seq, fails, cfg);
  ASSERT_EQ(result.seq.size(), 1u);
  EXPECT_EQ(result.seq.updates[0].size, 10u);
}

// -- Corpus ---------------------------------------------------------------

TEST(FuzzCorpus, RoundTripsMetadataAndTrace) {
  SequenceBuilder b("corpus-roundtrip", 1000, 0.1);
  b.insert(100);
  b.erase_at(0);
  CorpusEntry entry;
  entry.seq = b.take();
  entry.allocator = "simple";
  entry.kind = "invariant-violation";
  entry.seed = 77;
  entry.iteration = 12;
  const CorpusEntry loaded = corpus_from_string(corpus_to_string(entry));
  EXPECT_EQ(loaded.allocator, "simple");
  EXPECT_EQ(loaded.kind, "invariant-violation");
  EXPECT_EQ(loaded.seed, 77u);
  EXPECT_EQ(loaded.iteration, 12u);
  EXPECT_EQ(loaded.seq.updates, entry.seq.updates);
  EXPECT_EQ(corpus_file_name(entry),
            "simple-invariant-violation-s77-i12.trace");
}

TEST(FuzzCorpus, RejectsMalformedMetadataValues) {
  const std::string trace =
      "H 1000 0.1 t\n"
      "I 1 10\n";
  EXPECT_THROW((void)corpus_from_string("#! seed=-1\n" + trace),
               InvariantViolation);
  EXPECT_THROW((void)corpus_from_string("#! iteration=12junk\n" + trace),
               InvariantViolation);
  EXPECT_THROW((void)corpus_from_string("#! seed=\n" + trace),
               InvariantViolation);
  // Out-of-range values throw too (2^64 + ...).
  EXPECT_THROW(
      (void)corpus_from_string("#! seed=99999999999999999999\n" + trace),
      InvariantViolation);
}

TEST(FuzzCorpus, SaveLoadAndList) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "memreal-corpus-test")
          .string();
  std::filesystem::remove_all(dir);
  SequenceBuilder b("corpus-disk", 1000, 0.1);
  b.insert(100);
  CorpusEntry entry;
  entry.seq = b.take();
  entry.allocator = "geo";
  entry.kind = "divergence";
  entry.seed = 1;
  entry.iteration = 2;
  const std::string path = save_corpus_entry(entry, dir);
  const auto files = list_corpus(dir);
  ASSERT_EQ(files.size(), 1u);
  EXPECT_EQ(files[0], path);
  const CorpusEntry loaded = load_corpus_entry(path);
  EXPECT_EQ(loaded.allocator, "geo");
  EXPECT_EQ(loaded.seq.updates, entry.seq.updates);
  EXPECT_TRUE(list_corpus(dir + "-does-not-exist").empty());
  std::filesystem::remove_all(dir);
}

// -- The planted-bug acceptance test --------------------------------------

TEST(FuzzPlantedBug, OverlapIsCaughtAndShrunkSmall) {
  ScopedRegistration reg(
      test_info("test-overlap", {4.0, 1.0}),
      [](LayoutStore& mem, const AllocatorParams&) {
        return std::make_unique<OverlapAllocator>(mem, 5);
      });
  const FuzzSummary summary = run_fuzz(planted_bug_config("test-overlap"));
  ASSERT_FALSE(summary.ok()) << "planted overlap bug not found within "
                             << summary.iterations << " iterations";
  const FuzzFailure& f = summary.failures.front();
  EXPECT_EQ(f.report.allocator, "test-overlap");
  EXPECT_EQ(f.report.kind, FailureKind::kInvariantViolation);
  EXPECT_LE(f.reproducer.size(), 20u)
      << "shrunk reproducer still has " << f.reproducer.size() << " updates";
  f.reproducer.check_well_formed();
  // The reproducer replays to the same failure.
  DifferentialConfig cfg;
  FuzzTarget t;
  t.allocator = "test-overlap";
  t.params.eps = 1.0 / 64;
  t.budget = {4.0, 1.0};
  cfg.targets.push_back(t);
  const auto replay = run_differential(f.reproducer, cfg);
  ASSERT_TRUE(replay.has_value());
  EXPECT_TRUE(replay->same_bug(f.report));
}

TEST(FuzzPlantedBug, FailureTracesAreIdenticalAcrossThreadCounts) {
  ScopedRegistration reg(
      test_info("test-overlap", {4.0, 1.0}),
      [](LayoutStore& mem, const AllocatorParams&) {
        return std::make_unique<OverlapAllocator>(mem, 5);
      });
  auto run = [](std::size_t threads) {
    FuzzConfig cfg = planted_bug_config("test-overlap");
    cfg.threads = threads;
    std::vector<std::string> traces;
    for (const FuzzFailure& f : run_fuzz(cfg).failures) {
      traces.push_back(trace_to_string(f.reproducer));
    }
    return traces;
  };
  const auto serial = run(1);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, run(4));
  EXPECT_EQ(serial, run(0));  // all cores
}

TEST(FuzzPlantedBug, CorpusReproducerReplays) {
  ScopedRegistration reg(
      test_info("test-overlap", {4.0, 1.0}),
      [](LayoutStore& mem, const AllocatorParams&) {
        return std::make_unique<OverlapAllocator>(mem, 5);
      });
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "memreal-fuzz-replay")
          .string();
  std::filesystem::remove_all(dir);
  FuzzConfig cfg = planted_bug_config("test-overlap");
  cfg.corpus_dir = dir;
  const FuzzSummary summary = run_fuzz(cfg);
  ASSERT_FALSE(summary.ok());
  ASSERT_FALSE(summary.failures.front().corpus_path.empty());

  const FuzzSummary replay = replay_corpus(cfg, dir);
  EXPECT_EQ(replay.iterations, summary.failures.size());
  ASSERT_EQ(replay.failures.size(), summary.failures.size());
  EXPECT_EQ(replay.failures.front().report.allocator, "test-overlap");
  std::filesystem::remove_all(dir);
}

// -- Registry registration ------------------------------------------------

TEST(FuzzRegistry, RejectsDuplicateAndUnknownRegistrations) {
  ScopedRegistration reg(test_info("test-dup", {4.0, 1.0}),
                         [](LayoutStore& mem, const AllocatorParams&) {
                           return std::make_unique<ThrashingAllocator>(mem);
                         });
  EXPECT_THROW(register_allocator(test_info("test-dup", {4.0, 1.0}),
                                  [](LayoutStore& mem, const AllocatorParams&) {
                                    return std::make_unique<ThrashingAllocator>(
                                        mem);
                                  }),
               InvariantViolation);
  EXPECT_THROW(register_allocator(test_info("simple", {4.0, 1.0}),
                                  [](LayoutStore& mem, const AllocatorParams&) {
                                    return std::make_unique<ThrashingAllocator>(
                                        mem);
                                  }),
               InvariantViolation);
  EXPECT_THROW(unregister_allocator("simple"), InvariantViolation);
  EXPECT_THROW(unregister_allocator("no-such-allocator"), InvariantViolation);
  EXPECT_EQ(allocator_info("test-dup").name, "test-dup");
}

TEST(FuzzCampaign, CleanOnHealthyRegistrySmoke) {
  FuzzConfig cfg;
  cfg.seed = 2;
  cfg.iterations = 12;  // two passes over the six regime groups
  cfg.updates_per_sequence = 80;
  cfg.mutants_per_sequence = 1;
  const FuzzSummary summary = run_fuzz(cfg);
  EXPECT_TRUE(summary.ok()) << summary.failures.front().report.message;
  EXPECT_EQ(summary.iterations, 12u);
  EXPECT_GE(summary.sequences, 24u);
}

// -- Release-engine oracle mode ------------------------------------------

TEST(ReleaseOracle, HealthyGroupPassesInLockstep) {
  GeneratorConfig gen;
  gen.capacity = kCap;
  gen.sizes = band_profile();
  gen.updates = 200;
  Rng rng(11);
  const Sequence seq = generate_sequence(gen, rng, "release-healthy");
  DifferentialConfig cfg = healthy_group();
  cfg.engine = "release";
  EXPECT_FALSE(run_differential(seq, cfg).has_value());
}

TEST(ReleaseOracle, PlantedSlabCorruptionIsCaughtAndShrunkSmall) {
  GeneratorConfig gen;
  gen.capacity = kCap;
  gen.sizes = band_profile();
  gen.updates = 200;
  Rng rng(13);
  const Sequence seq = generate_sequence(gen, rng, "release-tamper");

  DifferentialConfig cfg;
  FuzzTarget t;
  t.allocator = "simple";
  t.params.eps = 1.0 / 64;
  t.params.seed = 42;
  t.budget = allocator_info("simple").budget;
  cfg.targets.push_back(std::move(t));
  cfg.engine = "release";
  cfg.audit_every = 8;  // tight layout-compare cadence for a small repro
  // Stateless tamper (shrink candidates replay it identically): shift the
  // lowest item's offset whenever at least three items are live — the SoA
  // record drifts from by_offset_/ends_ exactly like a slab indexing bug.
  cfg.release_tamper = [](SlabStore& store, std::size_t) {
    if (store.item_count() >= 3) store.debug_corrupt_first_offset(1);
  };

  const auto report = run_differential(seq, cfg);
  ASSERT_TRUE(report.has_value()) << "planted slab corruption not caught";
  EXPECT_EQ(report->kind, FailureKind::kEngineDivergence);
  EXPECT_EQ(report->allocator, "simple");
  EXPECT_STREQ(to_string(report->kind), "engine-divergence");

  FailurePredicate same_bug = [&](const Sequence& cand) {
    const auto r = run_differential(cand, cfg);
    return r.has_value() && r->same_bug(*report);
  };
  ShrinkConfig sc;
  sc.min_size = band_profile().min_size(1.0 / 64, kCap);
  const ShrinkResult shrunk = shrink_sequence(seq, same_bug, sc);
  shrunk.seq.check_well_formed();
  EXPECT_LE(shrunk.seq.size(), 20u)
      << "shrunk reproducer still has " << shrunk.seq.size() << " updates";
  EXPECT_TRUE(same_bug(shrunk.seq));
}

TEST(ReleaseOracle, CampaignCleanOnReleaseEngine) {
  FuzzConfig cfg;
  cfg.seed = 3;
  cfg.engine = "release";
  cfg.iterations = 6;  // one pass over the regime groups
  cfg.updates_per_sequence = 80;
  cfg.mutants_per_sequence = 1;
  const FuzzSummary summary = run_fuzz(cfg);
  EXPECT_TRUE(summary.ok()) << summary.failures.front().report.message;
}

TEST(ReleaseOracle, RejectsUnknownEngineName) {
  FuzzConfig cfg;
  cfg.engine = "debug";
  cfg.iterations = 1;
  EXPECT_THROW((void)run_fuzz(cfg), InvariantViolation);
}

}  // namespace
}  // namespace memreal
