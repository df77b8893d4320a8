// The fuzz campaign driver: fans iterations out over parallel_for, each
// iteration deriving its RNG state purely from (campaign seed, iteration
// index) so a campaign is reproducible run-to-run and across thread
// counts, and any single failing iteration can be replayed alone with
// --start-iter.
//
// Targets are grouped by admissible size regime (registry SizeProfile +
// default eps): every allocator in a group can legally serve the same
// sequences, and the universal baselines join every group as differential
// references.  Iteration i exercises group i mod #groups: one generated
// base sequence plus a chain of mutants, each run through the lockstep
// differential oracle; the first failure is (optionally) shrunk and
// persisted to the corpus.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "alloc/registry.h"
#include "fuzz/differential.h"
#include "fuzz/shrinker.h"
#include "workload/sequence.h"

namespace memreal {

struct FuzzConfig {
  std::uint64_t seed = 1;
  /// First iteration index; the campaign covers
  /// [start_iteration, start_iteration + iterations).  Lets a failure at
  /// iteration i be reproduced alone via start_iteration = i, iterations=1.
  std::uint64_t start_iteration = 0;
  std::size_t iterations = 100;
  std::size_t updates_per_sequence = 200;
  /// Mutants chained off each base sequence (0 = generation only).
  std::size_t mutants_per_sequence = 2;
  /// Registry names to fuzz; empty = every fuzz_default registration.
  std::vector<std::string> allocators;
  /// Scenario-zoo name to generate base sequences from (perfadv/zoo.h)
  /// instead of the free-form fuzz generator; empty = free-form.  Every
  /// resolved target must be able to serve the scenario at its group's
  /// (eps, band) — run_fuzz throws up front listing each incompatible
  /// target's compatible scenarios rather than failing mid-campaign.
  std::string scenario;
  Tick capacity = Tick{1} << 40;
  /// "validated" fuzzes the validating cells alone; "release" additionally
  /// runs every target on a release cell in lockstep and reports any
  /// cost/counter/layout difference as engine-divergence (harness/cell.h
  /// engine_names()); "arena" instead locksteps each target against a
  /// byte-backed arena cell (payload stamps, memmove traffic, rounding
  /// bound) and reports differences as arena-divergence.  Arena campaigns
  /// should run at a much smaller capacity than the tick-only default —
  /// the arena materially allocates the address space it places into.
  std::string engine = "validated";
  bool shrink = true;
  double budget_slack = 1.0;
  std::size_t audit_every = 64;
  std::size_t check_invariants_every = 16;
  std::size_t threads = 0;  ///< 0 = all cores
  /// Directory for shrunk reproducers; empty = don't persist.
  std::string corpus_dir;
  /// Predicate-evaluation ceiling per shrink (min_size is derived from the
  /// failing group's size profile).
  std::size_t max_shrink_checks = 2000;
};

/// One admissible-regime group of fuzz targets.
struct TargetGroup {
  double eps = 1.0 / 64;
  double delta = 0.0;
  SizeProfile sizes;
  std::vector<AllocatorInfo> members;
};

/// Groups `infos` by identical (size profile, default eps/delta); universal
/// allocators join every group.  Throws if `infos` is empty.
[[nodiscard]] std::vector<TargetGroup> make_target_groups(
    const std::vector<AllocatorInfo>& infos);

/// The target set a campaign with this config fuzzes: config.allocators
/// resolved through the registry, or every fuzz_default registration when
/// the filter is empty.  Shared by run_fuzz and the CLI's --list so the
/// two can never drift.
[[nodiscard]] std::vector<AllocatorInfo> resolve_fuzz_targets(
    const FuzzConfig& config);

/// The per-iteration RNG seed: a pure function of (campaign seed,
/// iteration), independent of scheduling and thread count.
[[nodiscard]] std::uint64_t iteration_seed(std::uint64_t campaign_seed,
                                           std::uint64_t iteration);

/// The allocator seed used inside one iteration: a pure function of the
/// iteration seed and the target's name, so replays reconstruct the exact
/// allocator randomness from corpus metadata alone.
[[nodiscard]] std::uint64_t target_seed(std::uint64_t iteration_seed,
                                        const std::string& allocator);

struct FuzzFailure {
  FailureReport report;
  Sequence reproducer;  ///< shrunk when FuzzConfig::shrink
  std::uint64_t iteration = 0;
  std::uint64_t sequence_seed = 0;   ///< iteration_seed(seed, iteration)
  std::size_t original_updates = 0;  ///< pre-shrink length
  std::string corpus_path;           ///< set when persisted
};

struct FuzzSummary {
  std::size_t iterations = 0;
  std::size_t sequences = 0;  ///< base sequences + mutants executed
  std::size_t updates = 0;    ///< updates stepped per target set
  std::vector<FuzzFailure> failures;  ///< sorted by iteration

  [[nodiscard]] bool ok() const { return failures.empty(); }
};

/// Runs the campaign.  Deterministic: identical config (minus threads)
/// yields byte-identical reproducer traces.
[[nodiscard]] FuzzSummary run_fuzz(const FuzzConfig& config);

/// Replays every *.trace reproducer under `dir` against its recorded
/// allocator (falling back to the universal baselines when the metadata
/// names no registered allocator), with full validation.  Failures are
/// reported like run_fuzz's, without shrinking.
[[nodiscard]] FuzzSummary replay_corpus(const FuzzConfig& config,
                                        const std::string& dir);

}  // namespace memreal
