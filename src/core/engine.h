// The engine drives an allocator through an update sequence against a
// LayoutStore, bracketing each update in a transaction and collecting
// RunStats.  It is the one engine every Cell runs (harness/cell.h),
// whatever the store: the validating Memory model, the release SlabStore,
// or either under an ArenaStore.  Its usage checks (a delete names a live
// item of the stated size) validate the input stream, so they run on
// every store; validating the layout is the store's job.
#pragma once

#include <cstddef>
#include <functional>
#include <span>

#include "core/allocator.h"
#include "core/run_stats.h"
#include "core/update.h"
#include "core/layout_store.h"
#include "obs/metrics.h"

namespace memreal {

struct EngineOptions {
  /// Call allocator.check_invariants() every n-th update (0 = never).
  std::size_t check_invariants_every = 0;
  /// Invoked after each update with (index, update, cost); used by tests,
  /// the potential certifier and the figure renderers.
  std::function<void(std::size_t, const Update&, double)> on_update;
  /// Invoked before each update is applied, ahead of the usage checks.
  /// The arena cell uses this to stage the update's byte-space payload
  /// size into its store before the allocator places the item.
  std::function<void(const Update&)> before_update;
  /// Observability instruments for this cell (null pointers = off).
  /// Updated alongside RunStats so counters stay exactly equal to the
  /// stats the run reports.
  obs::CellMetrics metrics;
};

class Engine {
 public:
  Engine(LayoutStore& memory, Allocator& allocator,
         EngineOptions options = {});

  /// Applies all updates; throws InvariantViolation on any model or
  /// allocator invariant failure.  Returns the accumulated statistics.
  RunStats run(std::span<const Update> updates);

  /// Applies a single update and returns its cost L/k.
  double step(const Update& update);

  [[nodiscard]] const RunStats& stats() const { return stats_; }
  [[nodiscard]] LayoutStore& memory() { return *memory_; }
  [[nodiscard]] Allocator& allocator() { return *allocator_; }

 private:
  LayoutStore* memory_;
  Allocator* allocator_;
  EngineOptions options_;
  RunStats stats_;
  std::size_t step_index_ = 0;
};

}  // namespace memreal
