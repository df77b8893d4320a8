// One cell = one (layout store, allocator, engine) triple driving a single
// contiguous address space.  CellConfig names the allocator and the store
// stack; the Cell builds it and always drives it with the one Engine:
//
//   engine = "validated"  ->  Memory     (per-update incremental checks,
//                                          audit cadence)
//   engine = "release"    ->  SlabStore  (no per-update model validation;
//                                          audit() is explicit)
//   arena = true          ->  the store above wrapped in the byte-backed
//                             ArenaStore (src/arena)
//
// The engine flavour is only a choice of store: an update's cost is the
// mass the allocator moves, so every stack produces the same per-update
// costs and layouts (ctest -L release / -L arena hold that equality).
// Engine's usage checks (a delete names a live item of the stated size)
// are input validation and run on every stack.
//
// ShardedEngine, the serving layer, the fuzz oracle and the drivers all
// hold Cells.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "alloc/registry.h"
#include "arena/arena_store.h"
#include "core/engine.h"
#include "core/layout_store.h"
#include "core/run_stats.h"
#include "core/update.h"
#include "obs/metrics.h"
#include "util/types.h"
#include "workload/sequence.h"

namespace memreal {

struct CellConfig {
  std::string engine = "validated";  ///< "validated" or "release"
  std::string allocator;             ///< registry name
  AllocatorParams params;
  /// Incremental O(log n) model validation at every update (validated
  /// engine only; the release store never validates per update).
  bool incremental_validation = true;
  /// Full O(n) audit cadence; 0 = explicit-only (validated engine only).
  std::size_t audit_every = 0;
  /// Allocator self-check cadence; 0 = never.
  std::size_t check_invariants_every = 0;

  /// Back the cell with a real byte arena (src/arena): items get physical
  /// payloads, moves execute memmoves, and RunStats gains the moved-bytes
  /// channel.  Composes with either engine — the inner store stays the
  /// one `engine` names.
  bool arena = false;
  /// Byte-space granule: bytes per tick, also the arena's alignment and
  /// minimum allocation size (arena cells only).
  Tick bytes_per_tick = 8;
  /// Verify payload fill patterns after every move and on audit (arena
  /// cells only); disable to measure raw memmove bandwidth.
  bool verify_payloads = true;

  /// Observability: when set, the cell registers per-cell instruments
  /// (update/moved-tick counters, cost histograms — see src/obs/) under
  /// labels {allocator, engine, shard_index, workload_label}.  Null
  /// keeps the cell instrument-free (zero overhead).
  obs::MetricRegistry* metrics = nullptr;
  int shard_index = -1;
  std::string workload_label;
};

/// The instrument bundle for a cell built from `config`; an all-null
/// bundle when config.metrics is unset.
[[nodiscard]] obs::CellMetrics cell_metrics(const CellConfig& config);

/// A constructed cell for one update stream.  Non-movable: the allocator
/// and engine hold references into the store members, so the cell must
/// stay put (heap-allocate to store in containers).
class Cell {
 public:
  /// Throws InvariantViolation for an unknown config.engine.
  Cell(Tick capacity, Tick eps_ticks, const CellConfig& config);

  Cell(const Cell&) = delete;
  Cell& operator=(const Cell&) = delete;

  /// The store the allocator and engine drive (the ArenaStore for arena
  /// cells, else the inner store).
  [[nodiscard]] LayoutStore& memory() { return *top_; }
  [[nodiscard]] Allocator& allocator() { return *allocator_; }
  [[nodiscard]] Engine& engine() { return engine_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  /// The byte arena; null unless CellConfig::arena was set.
  [[nodiscard]] ArenaStore* arena() { return arena_.get(); }

  /// Applies a single update and returns its cost L/k.
  double step(const Update& update) { return engine_.step(update); }
  /// Applies all updates and returns the accumulated statistics.
  RunStats run(std::span<const Update> updates) {
    return engine_.run(updates);
  }
  [[nodiscard]] const RunStats& stats() const { return engine_.stats(); }

  /// Full store audit (payload sweep included for arena cells) plus the
  /// allocator self-check.
  void audit();

 private:
  std::string name_;
  std::unique_ptr<LayoutStore> inner_;
  std::unique_ptr<ArenaStore> arena_;
  LayoutStore* top_;
  std::unique_ptr<Allocator> allocator_;
  Engine engine_;
};

/// Builds a heap-allocated cell (see Cell's constructor).
[[nodiscard]] std::unique_ptr<Cell> make_cell(Tick capacity, Tick eps_ticks,
                                              const CellConfig& config);

/// The engine names CellConfig::engine accepts, for CLI validation and
/// help text.
[[nodiscard]] std::vector<std::string> engine_names();

/// Runs the whole sequence through a fresh cell: engine run, final full
/// audit, final allocator self-check.  Throws InvariantViolation on any
/// model or allocator invariant failure.
[[nodiscard]] RunStats run_validated(const Sequence& seq,
                                     const CellConfig& config);

}  // namespace memreal
