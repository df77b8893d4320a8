#include "cli.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <vector>

#include "alloc/registry.h"
#include "obs/metrics.h"

namespace memreal::cli {

namespace {

const char* g_tool = "memreal";
const char* g_hint = "run with --help for usage";

std::string join(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& n : names) {
    if (!out.empty()) out += ", ";
    out += n;
  }
  return out;
}

[[noreturn]] void bad_value(const std::string& flag, const char* value,
                            const char* why) {
  usage_error("bad value '" + std::string(value) + "' for " + flag + ": " +
              why);
}

}  // namespace

void set_tool(const char* name, const char* hint) {
  g_tool = name;
  g_hint = hint;
}

void usage_error(const std::string& what) {
  std::fprintf(stderr, "%s: %s (%s)\n", g_tool, what.c_str(), g_hint);
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const char* value) {
  // strtoull would silently wrap negatives ("-1" -> 2^64-1); reject them.
  if (value[0] == '-' || value[0] == '+') {
    bad_value(flag, value, "not an unsigned integer");
  }
  char* end = nullptr;
  errno = 0;
  const std::uint64_t v = std::strtoull(value, &end, 10);
  if (end == value || *end != '\0') {
    bad_value(flag, value, "not an unsigned integer");
  }
  if (errno == ERANGE) bad_value(flag, value, "out of range");
  return v;
}

double parse_double(const std::string& flag, const char* value) {
  char* end = nullptr;
  const double v = std::strtod(value, &end);
  if (end == value || *end != '\0') bad_value(flag, value, "not a number");
  // strtod accepts "nan" and "inf" and overflows to infinity; NaN would
  // slip through every range check a caller writes as a comparison.
  if (!std::isfinite(v)) bad_value(flag, value, "not a finite number");
  return v;
}

void parse_engine(const char* value, std::string& engine, bool& arena) {
  engine = value;
  if (engine == "arena") {
    engine = "validated";
    arena = true;
  } else if (engine != "validated" && engine != "release") {
    usage_error("--engine must be 'validated', 'release', or 'arena'");
  }
}

double bounded_load(double want, Tick min_size, Tick max_size, Tick capacity,
                    std::size_t max_items) {
  const double mean = (static_cast<double>(min_size) +
                       static_cast<double>(max_size)) / 2.0;
  const double cap = static_cast<double>(max_items) * mean /
                     static_cast<double>(capacity);
  return std::min(want, cap);
}

ScenarioParams workload_params(const std::string& workload,
                               const std::string& allocator, double eps,
                               Tick shard_capacity, std::size_t shards,
                               std::size_t updates, std::uint64_t seed,
                               std::size_t tenants, double zipf,
                               Tick bytes_per_tick,
                               std::size_t max_fill_items) {
  const std::vector<std::string> allocators = allocator_names();
  if (std::find(allocators.begin(), allocators.end(), allocator) ==
      allocators.end()) {
    usage_error("unknown allocator '" + allocator + "' (known: " +
                join(allocators) + ")");
  }
  if (find_scenario(workload) == nullptr) {
    usage_error("unknown workload '" + workload + "' (known: " +
                join(scenario_names()) + ")");
  }
  const AllocatorInfo info = allocator_info(allocator);
  ScenarioParams p =
      scenario_params_for(info, eps, shard_capacity, updates, seed);
  if (max_fill_items > 0) {
    p.target_load = bounded_load(p.target_load, p.min_size, p.max_size,
                                 shard_capacity, max_fill_items);
  }
  const std::string why = scenario_incompatibility(workload, info, eps,
                                                   shard_capacity,
                                                   p.target_load);
  if (!why.empty()) {
    const std::string compat = join(
        compatible_scenarios(info, eps, shard_capacity, p.target_load));
    usage_error(why + " (compatible scenarios for " + allocator + ": " +
                (compat.empty() ? "none at this eps and capacity" : compat) +
                ")");
  }
  p.capacity = shard_capacity * shards;
  p.tenants = tenants;
  p.palette = tenants;
  p.zipf_s = zipf;
  p.bytes_per_tick = bytes_per_tick;
  if (workload == "vm_heap") {
    // The default fill is admissible for one cell but leaves no routing
    // headroom across shards: a GC burst's refill wave can find every
    // shard near its own budget.
    p.target_load = 0.7;
  }
  return p;
}

bool parse_metrics_flag(int argc, char** argv, int& i, MetricsFlags& flags) {
  const std::string flag = argv[i];
  std::string* value = nullptr;
  if (flag == "--metrics-summary") {
    flags.summary = true;
    return true;
  } else if (flag == "--metrics-out") {
    value = &flags.out;
  } else if (flag == "--prom-out") {
    value = &flags.prom_out;
  } else {
    return false;
  }
  if (i + 1 >= argc) usage_error("missing value for " + flag);
  *value = argv[++i];
  return true;
}

int write_metrics_outputs(const MetricsFlags& flags,
                          const obs::MetricRegistry& reg) {
  auto write = [](const std::string& path, const std::string& text) {
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "%s: cannot write '%s'\n", g_tool, path.c_str());
      return false;
    }
    out << text;
    return true;
  };
  if (!flags.out.empty() &&
      !write(flags.out, reg.snapshot_json().dump(2) + "\n")) {
    return 1;
  }
  if (!flags.prom_out.empty() &&
      !write(flags.prom_out, reg.prometheus_text())) {
    return 1;
  }
  if (flags.summary) {
    std::cout << "metrics summary:\n" << reg.summary_table();
  }
  return 0;
}

}  // namespace memreal::cli
