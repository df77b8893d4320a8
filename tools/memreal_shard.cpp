// memreal_shard — throughput driver for the sharded multi-cell engine.
// Run with --help for usage.  Exit status 0 = clean, 1 = invariant
// violation, 2 = usage error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>

#include "alloc/registry.h"
#include "cli.h"
#include "obs/metrics.h"
#include "perfadv/zoo.h"
#include "shard/sharded_engine.h"
#include "util/check.h"
#include "util/json.h"
#include "util/table.h"
#include "workload/churn.h"
#include "workload/multi_tenant.h"
#include "workload/vm_heap.h"

namespace {

using namespace memreal;
using namespace memreal::cli;

constexpr const char* kUsage = R"(memreal_shard [options]
  --allocator NAME   registry allocator for every cell (default simple)
  --engine E         cell engine: validated (default), release or arena.
                     release is the unchecked slab fast path (its
                     correctness story is ctest -L release plus
                     memreal_fuzz --engine release); arena is an alias
                     for --arena below (matching memreal_fuzz)
  --arena            back every shard's cell with a real byte arena:
                     payloads get physical addresses, moves execute real
                     memmoves, and the run reports measured byte traffic.
                     Lowers the default per-shard capacity to 2^22 ticks
                     (a byte payload per tick; override with
                     --capacity-log2)
  --bytes-per-tick N byte-space granule for --arena (default 8); also
                     the minimum allocation and alignment
  --no-verify-payloads
                     skip payload fill-pattern checks under --arena:
                     measures raw memmove bandwidth instead of
                     integrity-checked movement
  --shards N         cell count (default 8)
  --threads N        worker threads (default 0 = all cores)
  --eps X            free-space parameter (default 0.015625)
  --router P         hash | size-class | round-robin (default hash)
  --workload W       churn | multi-tenant | skewed | vm_heap (default
                     churn), or any scenario-zoo name (memreal_adv
                     --list-scenarios); a zoo workload the allocator
                     cannot serve errors up front with the compatible
                     list.  vm_heap is the byte-addressed GC-heap
                     stream (grow-realloc chains, generational death,
                     compaction bursts); pair it with --arena to
                     exercise real payload movement
  --updates N        churn updates in the workload (default 20000)
  --tenants N        tenants for multi-tenant/skewed; palette size for
                     vm_heap on fixed-palette allocators (default 8)
  --zipf S           tenant skew exponent (default 1 / 2 for skewed)
  --batch N          updates per parallel round (default 4096)
  --rebalance X      live-mass imbalance threshold, >= 1 enables the
                     between-batch rebalancer (default 0 = off)
  --seed N           workload + allocator seed (default 1)
  --capacity-log2 N  per-shard capacity 2^N ticks (default 40; 22 under
                     --arena)
  --audit-every N    full per-cell audit cadence (default 0 = final only)
  --no-validate      disable incremental per-update validation
  --json FILE        also write the results as JSON to FILE
  --metrics-summary  print the end-of-run metrics table (wires the
                     observability registry through every cell)
  --metrics-out FILE write a final metrics snapshot (JSON) to FILE
  --prom-out FILE    write a Prometheus text-format dump to FILE
  --quiet            suppress the tables (summary line + JSON only)

The workload's size band comes from the allocator's registered
AllocatorInfo size profile, evaluated against the *shard* capacity, so
every generated item is admissible for the chosen allocator.  The run
ends with a full audit of every cell (including payload pattern
verification under --arena).
)";

struct Options {
  std::string allocator = "simple";
  std::string engine = "validated";
  bool arena = false;
  Tick bytes_per_tick = 8;
  bool verify_payloads = true;
  std::size_t shards = 8;
  std::size_t threads = 0;
  double eps = 1.0 / 64;
  std::string router = "hash";
  std::string workload = "churn";
  std::size_t updates = 20'000;
  std::size_t tenants = 8;
  double zipf = -1.0;  ///< -1 = workload default
  std::size_t batch = 4'096;
  double rebalance = 0.0;
  std::uint64_t seed = 1;
  unsigned capacity_log2 = 40;
  bool capacity_log2_set = false;
  std::size_t audit_every = 0;
  bool validate = true;
  std::string json_path;
  bool metrics_summary = false;
  std::string metrics_out;
  std::string prom_out;
  bool quiet = false;

  [[nodiscard]] bool metrics_wired() const {
    return metrics_summary || !metrics_out.empty() || !prom_out.empty();
  }
};

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage_error("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--help" || flag == "-h") {
      std::fputs(kUsage, stdout);
      std::exit(0);
    } else if (flag == "--allocator") {
      o.allocator = next();
    } else if (flag == "--engine") {
      parse_engine(next(), o.engine, o.arena);
    } else if (flag == "--arena") {
      o.arena = true;
    } else if (flag == "--bytes-per-tick") {
      o.bytes_per_tick = parse_u64(flag, next());
      if (o.bytes_per_tick == 0) usage_error("--bytes-per-tick must be >= 1");
    } else if (flag == "--no-verify-payloads") {
      o.verify_payloads = false;
    } else if (flag == "--shards") {
      o.shards = static_cast<std::size_t>(parse_u64(flag, next()));
    } else if (flag == "--threads") {
      o.threads = static_cast<std::size_t>(parse_u64(flag, next()));
    } else if (flag == "--eps") {
      o.eps = parse_double(flag, next());
    } else if (flag == "--router") {
      o.router = next();
    } else if (flag == "--workload") {
      o.workload = next();
    } else if (flag == "--updates") {
      o.updates = static_cast<std::size_t>(parse_u64(flag, next()));
    } else if (flag == "--tenants") {
      o.tenants = static_cast<std::size_t>(parse_u64(flag, next()));
    } else if (flag == "--zipf") {
      o.zipf = parse_double(flag, next());
    } else if (flag == "--batch") {
      o.batch = static_cast<std::size_t>(parse_u64(flag, next()));
    } else if (flag == "--rebalance") {
      o.rebalance = parse_double(flag, next());
    } else if (flag == "--seed") {
      o.seed = parse_u64(flag, next());
    } else if (flag == "--capacity-log2") {
      const std::uint64_t v = parse_u64(flag, next());
      if (v < 10 || v > 50) usage_error("--capacity-log2 must be in [10, 50]");
      o.capacity_log2 = static_cast<unsigned>(v);
      o.capacity_log2_set = true;
    } else if (flag == "--audit-every") {
      o.audit_every = static_cast<std::size_t>(parse_u64(flag, next()));
    } else if (flag == "--no-validate") {
      o.validate = false;
    } else if (flag == "--json") {
      o.json_path = next();
    } else if (flag == "--metrics-summary") {
      o.metrics_summary = true;
    } else if (flag == "--metrics-out") {
      o.metrics_out = next();
    } else if (flag == "--prom-out") {
      o.prom_out = next();
    } else if (flag == "--quiet") {
      o.quiet = true;
    } else {
      usage_error("unknown flag '" + flag + "'");
    }
  }
  if (o.shards == 0) usage_error("--shards must be >= 1");
  // An arena shard carries a real byte payload per tick; the tick-only
  // default capacity would ask for terabytes of physical arena.
  if (o.arena && !o.capacity_log2_set) o.capacity_log2 = 22;
  // The global workload spans shards * 2^capacity-log2 ticks; reject
  // combinations that would wrap the tick space.
  if (o.shards > (std::numeric_limits<Tick>::max() >> o.capacity_log2)) {
    usage_error("--shards x 2^capacity-log2 overflows the tick space");
  }
  if (o.eps <= 0.0 || o.eps >= 1.0) usage_error("--eps must be in (0, 1)");
  if (o.workload != "churn" && o.workload != "multi-tenant" &&
      o.workload != "skewed" && o.workload != "vm_heap" &&
      find_scenario(o.workload) == nullptr) {
    std::string zoo;
    for (const std::string& s : scenario_names()) zoo += ", " + s;
    usage_error("unknown workload '" + o.workload +
                "' (known: churn, multi-tenant, skewed, vm_heap" + zoo +
                ")");
  }
  return o;
}

/// Builds the workload: item sizes come from the allocator's registered
/// size band over the *shard* capacity; the live-mass budget spans all
/// shards (global capacity = shards * shard_capacity).
Sequence make_workload(const Options& o, Tick shard_capacity) {
  const AllocatorInfo info = allocator_info(o.allocator);
  const Tick global_capacity = shard_capacity * o.shards;
  const Tick min_size = info.sizes.min_size(o.eps, shard_capacity);
  const Tick max_size = info.sizes.max_size(o.eps, shard_capacity) - 1;
  const bool legacy = o.workload == "churn" || o.workload == "multi-tenant" ||
                      o.workload == "skewed" || o.workload == "vm_heap";
  if (!legacy) {
    // Scenario-zoo workload: band over the shard capacity (like the
    // legacy paths), live-mass budget over the global capacity.
    const std::string why =
        scenario_incompatibility(o.workload, info, o.eps, shard_capacity);
    if (!why.empty()) {
      std::string compat;
      for (const std::string& s :
           compatible_scenarios(info, o.eps, shard_capacity)) {
        if (!compat.empty()) compat += ", ";
        compat += s;
      }
      usage_error(why + " (compatible scenarios for " + o.allocator + ": " +
                  (compat.empty() ? "none at this eps" : compat) + ")");
    }
    ScenarioParams p =
        scenario_params_for(info, o.eps, shard_capacity, o.updates, o.seed);
    p.capacity = global_capacity;
    p.tenants = o.tenants;
    if (o.zipf >= 0.0) p.zipf_s = o.zipf;
    p.bytes_per_tick = o.bytes_per_tick;
    return make_scenario(o.workload, p);
  }
  // The legacy generators draw from the allocator's own band, so only the
  // eps ceiling and the capacity floor can refuse them.
  std::string why;
  if (!info.serves(info.sizes.shape(o.eps, shard_capacity), o.eps,
                   shard_capacity, &why)) {
    usage_error(why);
  }
  if (o.workload == "vm_heap") {
    // Byte band derived from the allocator's tick band: the smallest
    // byte size that still rounds up to min_size ticks, up to the
    // largest that fits in max_size ticks.
    const Tick bpt = o.bytes_per_tick;
    VmHeapConfig c;
    c.capacity = global_capacity;
    c.eps = o.eps;
    c.bytes_per_tick = bpt;
    c.min_bytes = (min_size - 1) * bpt + 1;
    c.max_bytes = max_size * bpt;
    c.distinct_sizes = info.sizes.fixed_palette ? o.tenants : 0;
    // The generator's default fill (0.85) is admissible for one cell but
    // leaves no routing headroom across shards: a GC burst's refill wave
    // can find every shard near its own budget.  Match the headroom the
    // other workloads run with.
    c.target_load = 0.7;
    c.churn_updates = o.updates;
    c.seed = o.seed;
    return make_vm_heap(c);
  }
  if (o.workload == "churn") {
    if (info.sizes.fixed_palette) {
      DiscreteChurnConfig c;
      c.capacity = global_capacity;
      c.eps = o.eps;
      c.min_size = min_size;
      c.max_size = max_size;
      c.target_load = 0.8;
      c.churn_updates = o.updates;
      c.seed = o.seed;
      return make_discrete_churn(c);
    }
    ChurnConfig c;
    c.capacity = global_capacity;
    c.eps = o.eps;
    c.min_size = min_size;
    c.max_size = max_size;
    c.target_load = 0.8;
    c.churn_updates = o.updates;
    c.seed = o.seed;
    return make_churn(c);
  }
  const double zipf =
      o.zipf >= 0.0 ? o.zipf : (o.workload == "skewed" ? 2.0 : 1.0);
  if (info.sizes.fixed_palette) {
    // Fixed-palette allocators (DISCRETE) must see a small reused size
    // set, not free samples; model the tenant skew as Zipf weights over
    // a palette of `tenants` distinct sizes.
    DiscreteChurnConfig c;
    c.capacity = global_capacity;
    c.eps = o.eps;
    c.distinct_sizes = o.tenants;
    c.min_size = min_size;
    c.max_size = max_size;
    c.zipf_s = zipf;
    c.target_load = 0.8;
    c.churn_updates = o.updates;
    c.seed = o.seed;
    return make_discrete_churn(c);
  }
  MultiTenantConfig c;
  c.capacity = global_capacity;
  c.eps = o.eps;
  c.tenants = o.tenants;
  c.zipf_s = zipf;
  c.min_size = min_size;
  c.max_size = max_size;
  c.target_load = 0.8;
  c.churn_updates = o.updates;
  c.seed = o.seed;
  return make_multi_tenant(c);
}

Json results_json(const Options& o, const ShardedEngine& engine,
                  const Sequence& seq, const ShardedRunStats& stats) {
  Json config = Json::object();
  config.set("allocator", o.allocator)
      .set("engine", o.engine)
      .set("arena", o.arena)
      .set("bytes_per_tick", o.bytes_per_tick)
      .set("shards", static_cast<std::uint64_t>(o.shards))
      .set("threads", static_cast<std::uint64_t>(engine.thread_count()))
      .set("eps", o.eps)
      .set("router", o.router)
      .set("workload", seq.name)
      .set("batch", static_cast<std::uint64_t>(o.batch))
      .set("rebalance_threshold", o.rebalance)
      .set("seed", o.seed)
      .set("shard_capacity_log2",
           static_cast<std::uint64_t>(o.capacity_log2))
      .set("validated", o.validate);

  Json global = Json::object();
  global.set("updates", static_cast<std::uint64_t>(stats.global.updates))
      .set("wall_seconds", stats.global.wall_seconds)
      .set("updates_per_second", stats.updates_per_second())
      .set("mean_cost", stats.global.mean_cost())
      .set("ratio_cost", stats.global.ratio_cost())
      .set("max_cost", stats.global.max_cost())
      .set("moved_mass", stats.global.moved_mass)
      .set("update_mass", stats.global.update_mass);
  if (o.arena) {
    global.set("moved_bytes", stats.global.moved_bytes)
        .set("bytes_per_second",
             stats.global.wall_seconds > 0.0
                 ? static_cast<double>(stats.global.moved_bytes) /
                       stats.global.wall_seconds
                 : 0.0);
  }

  Json routing = Json::object();
  routing.set("batches", static_cast<std::uint64_t>(stats.batches))
      .set("fallback_routes",
           static_cast<std::uint64_t>(stats.fallback_routes))
      .set("migrations", static_cast<std::uint64_t>(stats.migrations))
      .set("migrated_mass", stats.migrated_mass)
      .set("imbalance", stats.imbalance())
      .set("max_shard_cost", stats.max_shard_cost())
      .set("median_shard_cost", stats.median_shard_cost());

  Json shards = Json::array();
  for (std::size_t s = 0; s < stats.per_shard.size(); ++s) {
    const RunStats& ps = stats.per_shard[s];
    Json row = Json::object();
    row.set("shard", static_cast<std::uint64_t>(s))
        .set("updates", static_cast<std::uint64_t>(ps.updates))
        .set("update_mass", ps.update_mass)
        .set("moved_mass", ps.moved_mass)
        .set("ratio_cost", ps.ratio_cost())
        .set("mean_cost", ps.mean_cost());
    shards.push(std::move(row));
  }

  Json doc = Json::object();
  doc.set("tool", "memreal_shard")
      .set("schema", std::uint64_t{1})
      .set("config", std::move(config))
      .set("global", std::move(global))
      .set("stats", stats.global.to_json())
      .set("routing", std::move(routing))
      .set("shards", std::move(shards));
  return doc;
}

/// Writes the final registry snapshot / Prometheus dump / summary table
/// the --metrics-* flags asked for.  Shared verbatim by memreal_trace.
int write_metrics_outputs(const char* tool, const obs::MetricRegistry& reg,
                          const std::string& metrics_out,
                          const std::string& prom_out, bool summary) {
  if (!metrics_out.empty()) {
    std::ofstream out(metrics_out);
    if (!out) {
      std::fprintf(stderr, "%s: cannot write '%s'\n", tool,
                   metrics_out.c_str());
      return 1;
    }
    out << reg.snapshot_json().dump(2) << "\n";
  }
  if (!prom_out.empty()) {
    std::ofstream out(prom_out);
    if (!out) {
      std::fprintf(stderr, "%s: cannot write '%s'\n", tool,
                   prom_out.c_str());
      return 1;
    }
    out << reg.prometheus_text();
  }
  if (summary) {
    std::cout << "metrics summary:\n" << reg.summary_table();
  }
  return 0;
}

int run(const Options& o) {
  const Tick shard_capacity = Tick{1} << o.capacity_log2;

  ShardedConfig config;
  config.engine = o.engine;
  config.allocator = o.allocator;
  config.arena = o.arena;
  config.bytes_per_tick = o.bytes_per_tick;
  config.verify_payloads = o.verify_payloads;
  config.params.eps = o.eps;
  config.params.seed = o.seed;
  config.shards = o.shards;
  config.shard_capacity = shard_capacity;
  config.eps = o.eps;
  config.router = o.router;
  config.threads = o.threads;
  config.batch_size = o.batch;
  config.rebalance_threshold = o.rebalance;
  config.incremental_validation = o.validate;
  config.audit_every = o.audit_every;
  if (o.metrics_wired()) {
    obs::MetricRegistry::global().reset();
    config.metrics = &obs::MetricRegistry::global();
    config.workload_label = o.workload;
  }

  const Sequence seq = make_workload(o, shard_capacity);
  ShardedEngine engine(config);
  const ShardedRunStats stats = engine.run(seq);
  engine.audit();

  if (!o.quiet) {
    Table per_shard({"shard", "updates", "update_mass", "moved_mass",
                     "ratio_cost", "mean_cost"});
    for (std::size_t s = 0; s < stats.per_shard.size(); ++s) {
      const RunStats& ps = stats.per_shard[s];
      per_shard.add_row({std::to_string(s), std::to_string(ps.updates),
                         std::to_string(ps.update_mass),
                         std::to_string(ps.moved_mass),
                         Table::num(ps.ratio_cost(), 4),
                         Table::num(ps.mean_cost(), 4)});
    }
    per_shard.print(std::cout);
    std::cout << "imbalance " << Table::num(stats.imbalance(), 3)
              << "  max shard cost " << Table::num(stats.max_shard_cost(), 4)
              << "  median shard cost "
              << Table::num(stats.median_shard_cost(), 4)
              << "  fallback routes " << stats.fallback_routes
              << "  migrations " << stats.migrations << " ("
              << stats.migrated_mass << " ticks)\n";
  }
  std::cout << seq.name << ": " << stats.global.updates << " updates over "
            << o.shards << " shards x " << engine.thread_count()
            << " threads in " << Table::num(stats.global.wall_seconds, 4)
            << " s = " << Table::num(stats.updates_per_second(), 6)
            << " updates/s (mean cost "
            << Table::num(stats.global.mean_cost(), 4) << ", ratio cost "
            << Table::num(stats.global.ratio_cost(), 4) << ")\n";
  if (o.arena) {
    std::cout << "arena: " << stats.global.moved_bytes
              << " bytes physically moved ("
              << Table::num(stats.global.wall_seconds > 0.0
                                ? static_cast<double>(
                                      stats.global.moved_bytes) /
                                      stats.global.wall_seconds
                                : 0.0,
                            6)
              << " bytes/s, granule " << o.bytes_per_tick
              << " bytes/tick)\n";
  }

  if (!o.json_path.empty()) {
    std::ofstream out(o.json_path);
    if (!out) {
      std::fprintf(stderr, "memreal_shard: cannot write '%s'\n",
                   o.json_path.c_str());
      return 1;
    }
    out << results_json(o, engine, seq, stats).dump(2) << "\n";
  }
  if (o.metrics_wired()) {
    const int rc = write_metrics_outputs(
        "memreal_shard", obs::MetricRegistry::global(), o.metrics_out,
        o.prom_out, o.metrics_summary);
    if (rc != 0) return rc;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  set_tool("memreal_shard");
  const Options o = parse_args(argc, argv);
  try {
    return run(o);
  } catch (const memreal::InvariantViolation& e) {
    std::fprintf(stderr, "memreal_shard: invariant violation: %s\n",
                 e.what());
    return 1;
  }
}
