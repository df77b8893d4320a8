// memreal_trace — lifecycle-trace driver: runs any registry allocator x
// engine x workload with the observability subsystem armed and writes a
// Chrome trace_event JSON file (open it in Perfetto or chrome://tracing).
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
#include "obs/trace.h"
#include "serve/serving_engine.h"
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

constexpr const char* kUsage = R"(memreal_trace [options]
  --allocator NAME   registry allocator for every cell (default simple)
  --engine E         cell engine: validated (default), release or arena
  --arena            byte-backed cells (real payload movement; lowers the
                     default per-shard capacity to 2^22 ticks)
  --workload W       churn | multi-tenant | skewed | vm_heap (default
                     churn); sizes come from the allocator's registered
                     band, like memreal_shard
  --updates N        workload churn updates (default 20000)
  --tenants N        tenants / palette size (default 8)
  --shards N         cell count (default 4)
  --serve            drive the updates through the online ServingEngine
                     (serve_deterministic) instead of the batch path, so
                     the trace includes queue-wait spans
  --lanes N          client lanes for --serve (default 4)
  --clock C          wall | logical (default wall; logical stamps spans
                     with deterministic tick counters — the clock
                     serve-deterministic verification runs under)
  --ring N           per-thread span ring capacity (default 65536;
                     oldest spans are overwritten beyond it)
  --seed N           workload + allocator seed (default 1)
  --eps X            free-space parameter (default 0.015625)
  --capacity-log2 N  per-shard capacity 2^N ticks (default 40; 22 under
                     --arena)
  --out FILE         trace output path (default trace.json)
  --metrics-summary  print the end-of-run metrics table
  --metrics-out FILE write a final metrics snapshot (JSON) to FILE
  --prom-out FILE    write a Prometheus text-format dump to FILE
  --quiet            suppress everything but errors

The run ends with a full audit; the trace covers the update pipeline
(route -> queue-wait -> apply -> validate -> arena-flush).
)";

struct Options {
  std::string allocator = "simple";
  std::string engine = "validated";
  bool arena = false;
  std::string workload = "churn";
  std::size_t updates = 20'000;
  std::size_t tenants = 8;
  std::size_t shards = 4;
  bool serve = false;
  std::size_t lanes = 4;
  std::string clock = "wall";
  std::size_t ring = obs::TraceSession::kDefaultRingCapacity;
  std::uint64_t seed = 1;
  double eps = 1.0 / 64;
  unsigned capacity_log2 = 40;
  bool capacity_log2_set = false;
  std::string out_path = "trace.json";
  bool metrics_summary = false;
  std::string metrics_out;
  std::string prom_out;
  bool quiet = false;
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
    } else if (flag == "--workload") {
      o.workload = next();
    } else if (flag == "--updates") {
      o.updates = static_cast<std::size_t>(parse_u64(flag, next()));
    } else if (flag == "--tenants") {
      o.tenants = static_cast<std::size_t>(parse_u64(flag, next()));
    } else if (flag == "--shards") {
      o.shards = static_cast<std::size_t>(parse_u64(flag, next()));
    } else if (flag == "--serve") {
      o.serve = true;
    } else if (flag == "--lanes") {
      o.lanes = static_cast<std::size_t>(parse_u64(flag, next()));
      if (o.lanes == 0) usage_error("--lanes must be >= 1");
    } else if (flag == "--clock") {
      o.clock = next();
      if (o.clock != "wall" && o.clock != "logical") {
        usage_error("--clock must be 'wall' or 'logical'");
      }
    } else if (flag == "--ring") {
      o.ring = static_cast<std::size_t>(parse_u64(flag, next()));
      if (o.ring == 0) usage_error("--ring must be >= 1");
    } else if (flag == "--seed") {
      o.seed = parse_u64(flag, next());
    } else if (flag == "--eps") {
      o.eps = parse_double(flag, next());
    } else if (flag == "--capacity-log2") {
      const std::uint64_t v = parse_u64(flag, next());
      if (v < 10 || v > 50) usage_error("--capacity-log2 must be in [10, 50]");
      o.capacity_log2 = static_cast<unsigned>(v);
      o.capacity_log2_set = true;
    } else if (flag == "--out") {
      o.out_path = next();
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
  if (o.arena && !o.capacity_log2_set) o.capacity_log2 = 22;
  if (o.shards > (std::numeric_limits<Tick>::max() >> o.capacity_log2)) {
    usage_error("--shards x 2^capacity-log2 overflows the tick space");
  }
  if (o.eps <= 0.0 || o.eps >= 1.0) usage_error("--eps must be in (0, 1)");
  if (o.workload != "churn" && o.workload != "multi-tenant" &&
      o.workload != "skewed" && o.workload != "vm_heap") {
    usage_error("unknown workload '" + o.workload +
                "' (known: churn, multi-tenant, skewed, vm_heap)");
  }
  return o;
}

/// Workload construction mirrors memreal_shard: item sizes come from the
/// allocator's registered band over the shard capacity.
Sequence make_workload(const Options& o, Tick shard_capacity) {
  const AllocatorInfo info = allocator_info(o.allocator);
  const Tick global_capacity = shard_capacity * o.shards;
  const Tick min_size = info.sizes.min_size(o.eps, shard_capacity);
  const Tick max_size = info.sizes.max_size(o.eps, shard_capacity) - 1;
  if (o.workload == "vm_heap") {
    const Tick bpt = 8;
    VmHeapConfig c;
    c.capacity = global_capacity;
    c.eps = o.eps;
    c.bytes_per_tick = bpt;
    c.min_bytes = (min_size - 1) * bpt + 1;
    c.max_bytes = max_size * bpt;
    c.distinct_sizes = info.sizes.fixed_palette ? o.tenants : 0;
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
  const double zipf = o.workload == "skewed" ? 2.0 : 1.0;
  if (info.sizes.fixed_palette) {
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

int run(const Options& o) {
  const Tick shard_capacity = Tick{1} << o.capacity_log2;

  ShardedConfig config;
  config.engine = o.engine;
  config.allocator = o.allocator;
  config.arena = o.arena;
  config.params.eps = o.eps;
  config.params.seed = o.seed;
  config.shards = o.shards;
  config.shard_capacity = shard_capacity;
  config.eps = o.eps;
  config.metrics = &obs::MetricRegistry::global();
  config.workload_label = o.workload;
  obs::MetricRegistry::global().reset();

  const Sequence seq = make_workload(o, shard_capacity);

  obs::TraceSession& trace = obs::TraceSession::global();
  trace.start(o.clock == "logical" ? obs::TraceSession::Clock::kLogical
                                   : obs::TraceSession::Clock::kWall,
              o.ring);
  if (o.serve) {
    // Scope the engine so its workers are joined (and every span is
    // recorded) before the export below reads the rings.
    ServingEngine engine(config);
    serve_deterministic(engine, seq, o.lanes, o.seed);
    engine.stop();
    engine.sharded().audit();
  } else {
    ShardedEngine engine(config);
    engine.run(seq);
    engine.audit();
  }
  trace.stop();

  std::ofstream out(o.out_path);
  if (!out) {
    std::fprintf(stderr, "memreal_trace: cannot write '%s'\n",
                 o.out_path.c_str());
    return 1;
  }
  out << trace.chrome_json() << "\n";
  if (!o.quiet) {
    std::cout << "memreal_trace: " << trace.event_count() << " spans ("
              << trace.dropped() << " overwritten) -> " << o.out_path
              << "  [" << o.allocator << " x " << o.engine
              << (o.arena ? "+arena" : "") << " x " << o.workload << ", "
              << (o.serve ? "serve" : "batch") << ", " << o.clock
              << " clock]\n";
  }

  if (!o.metrics_out.empty()) {
    std::ofstream mout(o.metrics_out);
    if (!mout) {
      std::fprintf(stderr, "memreal_trace: cannot write '%s'\n",
                   o.metrics_out.c_str());
      return 1;
    }
    mout << obs::MetricRegistry::global().snapshot_json().dump(2) << "\n";
  }
  if (!o.prom_out.empty()) {
    std::ofstream pout(o.prom_out);
    if (!pout) {
      std::fprintf(stderr, "memreal_trace: cannot write '%s'\n",
                   o.prom_out.c_str());
      return 1;
    }
    pout << obs::MetricRegistry::global().prometheus_text();
  }
  if (o.metrics_summary) {
    std::cout << "metrics summary:\n"
              << obs::MetricRegistry::global().summary_table();
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  set_tool("memreal_trace");
  const Options o = parse_args(argc, argv);
  try {
    return run(o);
  } catch (const memreal::InvariantViolation& e) {
    std::fprintf(stderr, "memreal_trace: invariant violation: %s\n",
                 e.what());
    return 1;
  }
}
