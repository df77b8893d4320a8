// The benchmark's three workloads, driven through memreal's public API.
//
//   geo_churn        GEO on one release cell (make_cell / Cell::step):
//                    the allocator decision and SlabStore's reorder path.
//   serve_mixed      open-loop ServingEngine traffic, 80% updates and 20%
//                    reads, over a fixed ladder of offered rates, then
//                    unpaced bursts of updates: routing, queue handoff and
//                    the per-shard locks.
//   vm_heap_sharded  ShardedEngine rounds over four arena cells whose live
//                    payload exceeds the last-level cache: memmove,
//                    payload verification and parallel apply.
//
// Every run prints the same metric names (README.md defines each one per
// workload); a layer a workload never enters reports 0 for its per-layer
// metrics.  The workload seed is the only input; the library only ever
// sees the generated update stream.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/types.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans; empty = keep them in memory.
  std::string trace_dir;
};

/// The library configuration one workload runs.
struct WorkloadSpec {
  std::string name;
  std::string scenario;   ///< scenario-zoo member
  std::string allocator;  ///< registry name
  double eps = 1.0 / 64;
  std::size_t shards = 1;
  memreal::Tick shard_capacity = memreal::kDefaultCapacity;
  bool arena = false;
};

[[nodiscard]] const std::vector<WorkloadSpec>& workload_specs();
/// nullptr for unknown names.
[[nodiscard]] const WorkloadSpec* find_workload(const std::string& name);

/// Empty when the allocator serves the spec's scenario at its eps and
/// shard capacity (AllocatorInfo::serves via scenario_incompatibility);
/// otherwise the reason.  Builds nothing.
[[nodiscard]] std::string preflight(const WorkloadSpec& spec);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;  ///< updates plus reads
  std::uint64_t failed = 0;     ///< failed, refused or wrong operations
  std::vector<Metric> end_to_end;
  std::vector<Metric> tails;      ///< end-to-end, printed but not bounded
  std::vector<Metric> per_layer;  ///< filled by traced runs only
  std::vector<std::string> errors;
  std::vector<std::string> notes;  ///< informational lines (rung table)
};

/// Runs one workload; never throws for library failures (they land in
/// Result::errors and Result::failed).
[[nodiscard]] Result run_workload(const WorkloadSpec& spec, const Options& o);

}  // namespace perfbench
