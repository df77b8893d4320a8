// A name-keyed factory over all allocators, used by the harness, benches,
// the fuzzer and the allocator_race example.
//
// Besides construction, the registry carries per-allocator *metadata*
// (AllocatorInfo): the size regime the allocator guarantees to serve, the
// eps/delta defaults it is usually run with, and a generous amortized cost
// budget.  The differential fuzzer enumerates targets through this metadata
// so that every generated sequence is admissible for every allocator it is
// replayed against, and so cost blowouts can be flagged without hard-coding
// per-allocator knowledge outside the registry.
//
// Tests may inject additional (deliberately broken) allocators at runtime
// via register_allocator; built-in names cannot be replaced.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/allocator.h"
#include "core/layout_store.h"

namespace memreal {

/// Everything an allocator needs to instantiate itself for a run.
struct AllocatorParams {
  double eps = 1.0 / 64;
  double delta = 0.0;  ///< RSUM only; 0 = eps^{3/4}
  std::uint64_t seed = 1;
};

using AllocatorFactory =
    std::function<std::unique_ptr<Allocator>(LayoutStore&, const AllocatorParams&)>;

/// The size shape of a workload: the tick band its inserts draw from and
/// whether the sizes form a small reused palette.  Drivers derive one from
/// a generator's configuration and ask AllocatorInfo::serves before a run,
/// so an inadmissible (workload, allocator) pair is rejected up front with
/// a reason instead of failing mid-run.
struct WorkloadShape {
  Tick min_size = 1;  ///< smallest insert, inclusive
  Tick max_size = 1;  ///< largest insert, inclusive
  /// Sizes are drawn once as a small fixed set and reused (DISCRETE-style
  /// structured sizes) rather than sampled freely from the band.
  bool fixed_palette = false;
};

/// The item-size band an allocator guarantees to serve, as a function of
/// eps: sizes (as fractions of capacity) in
///   [lo_factor * eps^lo_pow, hi_factor * eps^hi_pow).
/// Converted to ticks with a >= 1 clamp, mirroring Eps::of; a linear
/// edge (pow 1) scales Eps::of(eps, capacity).ticks, the eps tick count
/// the cell and the allocator see.
struct SizeProfile {
  double lo_factor = 1.0;
  double lo_pow = 1.0;
  double hi_factor = 2.0;
  double hi_pow = 1.0;
  /// DISCRETE-style structured sizes: generators must draw a small fixed
  /// palette from the band and reuse it, instead of sampling freely.
  bool fixed_palette = false;

  [[nodiscard]] Tick min_size(double eps, Tick capacity) const;
  [[nodiscard]] Tick max_size(double eps, Tick capacity) const;
  /// The whole band at (eps, capacity) as a workload shape — what drivers
  /// that sample an allocator's own band generate.
  [[nodiscard]] WorkloadShape shape(double eps, Tick capacity) const;

  friend bool operator==(const SizeProfile&, const SizeProfile&) = default;
};

/// A (deliberately generous) amortized cost ceiling:
///   ratio_cost <= factor * (1/eps)^pow * max(1, log2(1/eps)).
/// The fuzzer flags runs that exceed it — the budgets are calibrated with
/// ample slack above the paper's bounds, so a trip means a blowout, not a
/// bad constant.
struct CostBudget {
  double factor = 8.0;
  double pow = 0.0;

  [[nodiscard]] double bound(double eps) const;
};


/// Registry metadata for one allocator: everything the fuzzer needs to
/// generate admissible workloads and judge the run.
struct AllocatorInfo {
  std::string name;
  SizeProfile sizes;
  CostBudget budget;
  double default_eps = 1.0 / 64;
  double default_delta = 0.0;
  /// Serves *any* well-formed sequence (the folklore baselines).  Universal
  /// allocators join every fuzz target group as cross-checking references.
  bool universal = false;
  /// Included in memreal_fuzz's default target set.
  bool fuzz_default = true;
  /// Largest eps the allocator's guarantee (and implementation) supports;
  /// serves() rejects coarser regimes.  FLEXHASH's hashed placement needs
  /// eps <= 1/16 — beyond that its headroom constants collapse and items
  /// land past the end of memory.
  double max_eps = 0.25;
  /// Smallest capacity (in ticks) the allocator can be built over at a
  /// given eps; null = no floor.  GEO's geometric size classes collapse
  /// when eps^5 * capacity is too few ticks, and its constructor refuses.
  Tick (*min_capacity)(double eps) = nullptr;

  /// True when this allocator guarantees to serve every sequence of
  /// `shape` at (`eps`, `capacity`): the capacity meets the allocator's
  /// floor, the shape's band lies inside the allocator's SizeProfile band
  /// and a fixed-palette requirement is met.  Universal allocators serve
  /// every shape.  On rejection, `why` (when
  /// non-null) receives a one-line reason naming the violated bound.
  [[nodiscard]] bool serves(const WorkloadShape& shape, double eps,
                            Tick capacity, std::string* why = nullptr) const;
};

/// Returns the factory for `name`; throws InvariantViolation for unknown
/// names.  Known names: folklore-compact, folklore-windowed, simple, geo,
/// tinyslab, flexhash, combined, rsum, discrete — plus any runtime
/// registrations.
[[nodiscard]] AllocatorFactory allocator_factory(const std::string& name);

/// All registered allocator names (built-ins first, then runtime extras in
/// registration order).
[[nodiscard]] std::vector<std::string> allocator_names();

/// Metadata for `name`; throws InvariantViolation for unknown names.
[[nodiscard]] AllocatorInfo allocator_info(const std::string& name);

/// Metadata for every registered allocator, in allocator_names() order.
[[nodiscard]] std::vector<AllocatorInfo> allocator_infos();

/// Registers a runtime allocator (tests use this to plant broken
/// allocators as fuzz targets).  Throws if the name is empty or already
/// registered.
void register_allocator(AllocatorInfo info, AllocatorFactory factory);

/// Removes a runtime registration; built-ins cannot be removed.  Throws
/// for unknown or built-in names.
void unregister_allocator(const std::string& name);

/// Convenience: construct by name.
[[nodiscard]] std::unique_ptr<Allocator> make_allocator(
    const std::string& name, LayoutStore& mem, const AllocatorParams& params);

}  // namespace memreal
