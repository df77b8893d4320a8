// Flag-value helpers shared by the memreal command-line tools.
//
// Every tool reports a bad invocation the same way: one stderr line
// prefixed with the tool's name, exit status 2, nothing on stdout.  The
// number parsers refuse anything that is not a complete, in-range, finite
// value, so a flag like `--eps nan` or an overflowing `--updates` is a
// usage error instead of reaching the library.
#pragma once

#include <cstdint>
#include <string>

#include "perfadv/zoo.h"

namespace memreal::obs {
class MetricRegistry;
}  // namespace memreal::obs

namespace memreal::cli {

/// Names the running tool in usage errors; `hint` follows the message in
/// parentheses.  Call once at the top of main.
void set_tool(const char* name,
              const char* hint = "run with --help for usage");

/// Prints "<tool>: <what> (<hint>)" to stderr and exits with status 2.
[[noreturn]] void usage_error(const std::string& what);

/// A whole unsigned decimal; signs, trailing text and values beyond
/// 2^64-1 are usage errors naming `flag`.
[[nodiscard]] std::uint64_t parse_u64(const std::string& flag,
                                      const char* value);

/// A whole finite number; trailing text, NaN, infinities and values that
/// overflow a double are usage errors naming `flag`.
[[nodiscard]] double parse_double(const std::string& flag, const char* value);

/// Resolves an `--engine` value: "validated" and "release" name the cell
/// store, "arena" is an alias for `--arena` over the validated store.
/// Anything else is a usage error.
void parse_engine(const char* value, std::string& engine, bool& arena);

/// Resolves a driver's `--allocator` and `--workload`: an unknown
/// allocator is a usage error listing the registry, an unknown workload
/// one listing the scenario zoo, and a pair scenario_incompatibility
/// rejects one giving its reason and the compatible list.
/// Otherwise returns scenario_params_for: sizes come from the allocator's
/// band over one shard, the live-mass budget spans every shard (capacity =
/// shards x shard_capacity).  `tenants` is also the palette size of
/// fixed-palette streams; `zipf` and `bytes_per_tick` pass through.
[[nodiscard]] ScenarioParams workload_params(
    const std::string& workload, const std::string& allocator, double eps,
    Tick shard_capacity, std::size_t shards, std::size_t updates,
    std::uint64_t seed, std::size_t tenants = 8, double zipf = 1.0,
    Tick bytes_per_tick = 8);

/// The metrics output flags of the tools that run with the observability
/// subsystem armed.
struct MetricsFlags {
  bool summary = false;  ///< --metrics-summary: print the summary table
  std::string out;       ///< --metrics-out FILE
  std::string prom_out;  ///< --prom-out FILE: Prometheus text dump

  [[nodiscard]] bool any() const {
    return summary || !out.empty() || !prom_out.empty();
  }
};

/// Consumes argv[i] when it is --metrics-summary, --metrics-out or
/// --prom-out, advancing `i` past a flag's value (a missing value is a
/// usage error); returns whether it did.
bool parse_metrics_flag(int argc, char** argv, int& i, MetricsFlags& flags);

/// Writes the final registry snapshot (JSON), the Prometheus dump and the
/// summary table that `flags` ask for.  Returns 0, or 1 after a
/// "<tool>: cannot write" line on stderr when a file cannot be opened.
int write_metrics_outputs(const MetricsFlags& flags,
                          const obs::MetricRegistry& reg);

}  // namespace memreal::cli
