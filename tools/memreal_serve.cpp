// memreal_serve — closed-loop load generator for the online serving
// layer (src/serve).  Sweeps client-thread counts x target request rates
// against a ServingEngine, records per-request latency into exact
// Quantiles, and writes the schema-2 BENCH_serve.json artifact that
// memreal_report turns into the T-SERVE claim.  Also runs (by default)
// the deterministic differential: serve_deterministic() must reproduce
// the batch ShardedEngine bit-for-bit for every registry allocator on
// both engine flavors.
//
// Run with --help for usage.  Exit status 0 = clean, 1 = invariant
// violation or verify mismatch, 2 = usage error.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "alloc/registry.h"
#include "cli.h"
#include "obs/metrics.h"
#include "perfadv/zoo.h"
#include "serve/serving_engine.h"
#include "util/check.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

using namespace memreal;
using namespace memreal::cli;

constexpr const char* kUsage = R"(memreal_serve [options]
  --allocator NAME   registry allocator for every cell (default simple)
  --workload W       client request stream: churn (default) or any
                     tick-native scenario-zoo name (memreal_adv
                     --list-scenarios); a zoo workload the allocator
                     cannot serve errors up front with the compatible
                     list
  --engine E         cell engine: validated (default), release or arena
                     (arena = byte-backed cells, alias for --arena,
                     matching memreal_shard / memreal_fuzz)
  --arena            back every shard's cell with a real byte arena;
                     lowers the default per-shard capacity to 2^22 ticks
                     (override with --capacity-log2)
  --bytes-per-tick N byte-space granule for --arena (default 8)
  --shards N         cell count = worker threads (default 4)
  --clients LIST     comma-separated client-thread counts to sweep
                     (default 1,2,4)
  --qps LIST         comma-separated target request rates; 0 = closed-loop
                     saturation, no pacing (default 0)
  --updates N        total requests per sweep point (default 20000)
  --eps X            free-space parameter (default 0.015625)
  --seed N           workload + allocator seed (default 1)
  --capacity-log2 N  per-shard capacity 2^N ticks (default 40; 22 under
                     --arena)
  --skip-verify      skip the deterministic differential (every registry
                     allocator x both engines vs the batch ShardedEngine)
  --verify-only      run only the differential, no latency sweep
  --json FILE        artifact path (default BENCH_serve.json, in
                     MEMREAL_BENCH_DIR if set; empty string disables)
  --metrics-out FILE JSON-lines metric snapshots: one line per sweep
                     point at quiescence, plus periodic lines while the
                     point runs when --metrics-interval is set
  --metrics-interval N
                     sampler period in milliseconds for --metrics-out
                     (0 = final snapshot per point only; default 0)
  --prom-out FILE    Prometheus text dump of the last sweep point
  --metrics-summary  print the metric summary table after the sweep
  --skip-overhead    skip the metrics-overhead measurement (saturation
                     throughput metrics-on vs metrics-off)
  --quiet            suppress the tables (summary lines + JSON only)

Latency is measured per request from submit() to the future resolving
(queueing + apply), reported as exact p50/p99/p999 from merged per-client
Quantiles.  Sweep points run with the metric registry wired; after each
point the summed per-shard cell counters are checked against the merged
RunStats integers tick-for-tick (the metrics-consistency series).
MEMREAL_FAST=1 shrinks the sweep for smoke runs.
)";

struct Options {
  std::string allocator = "simple";
  std::string workload = "churn";
  std::string engine = "validated";
  bool arena = false;
  Tick bytes_per_tick = 8;
  std::size_t shards = 4;
  std::vector<std::size_t> clients = {1, 2, 4};
  std::vector<double> qps = {0.0};
  std::size_t updates = 20'000;
  double eps = 1.0 / 64;
  std::uint64_t seed = 1;
  unsigned capacity_log2 = 40;
  bool capacity_log2_set = false;
  bool verify = true;
  bool verify_only = false;
  std::string json_path = "BENCH_serve.json";
  bool json_path_set = false;
  MetricsFlags metrics;
  std::size_t metrics_interval_ms = 0;
  bool overhead = true;
  bool quiet = false;
};

bool fast_mode() {
  const char* v = std::getenv("MEMREAL_FAST");
  return v != nullptr && v[0] == '1';
}

std::string git_describe() {
  const char* v = std::getenv("MEMREAL_GIT_DESCRIBE");
  if (v != nullptr && v[0] != '\0') return v;
#ifdef MEMREAL_GIT_DESCRIBE
  return MEMREAL_GIT_DESCRIBE;
#else
  return "unknown";
#endif
}

std::vector<std::string> split_list(const std::string& flag,
                                    const char* value) {
  std::vector<std::string> out;
  std::string cur;
  for (const char* p = value;; ++p) {
    if (*p == ',' || *p == '\0') {
      if (cur.empty()) usage_error("empty element in " + flag + " list");
      out.push_back(cur);
      cur.clear();
      if (*p == '\0') break;
    } else {
      cur.push_back(*p);
    }
  }
  return out;
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage_error("missing value for " + flag);
      return argv[++i];
    };
    if (parse_metrics_flag(argc, argv, i, o.metrics)) continue;
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
    } else if (flag == "--shards") {
      o.shards = static_cast<std::size_t>(parse_u64(flag, next()));
    } else if (flag == "--clients") {
      o.clients.clear();
      for (const std::string& e : split_list(flag, next())) {
        o.clients.push_back(
            static_cast<std::size_t>(parse_u64(flag, e.c_str())));
      }
    } else if (flag == "--qps") {
      o.qps.clear();
      for (const std::string& e : split_list(flag, next())) {
        o.qps.push_back(parse_double(flag, e.c_str()));
      }
    } else if (flag == "--workload") {
      o.workload = next();
    } else if (flag == "--updates") {
      o.updates = static_cast<std::size_t>(parse_u64(flag, next()));
    } else if (flag == "--eps") {
      o.eps = parse_double(flag, next());
    } else if (flag == "--seed") {
      o.seed = parse_u64(flag, next());
    } else if (flag == "--capacity-log2") {
      const std::uint64_t v = parse_u64(flag, next());
      if (v < 10 || v > 50) usage_error("--capacity-log2 must be in [10, 50]");
      o.capacity_log2 = static_cast<unsigned>(v);
      o.capacity_log2_set = true;
    } else if (flag == "--skip-verify") {
      o.verify = false;
    } else if (flag == "--verify-only") {
      o.verify_only = true;
    } else if (flag == "--json") {
      o.json_path = next();
      o.json_path_set = true;
    } else if (flag == "--metrics-interval") {
      o.metrics_interval_ms = static_cast<std::size_t>(parse_u64(flag, next()));
    } else if (flag == "--skip-overhead") {
      o.overhead = false;
    } else if (flag == "--quiet") {
      o.quiet = true;
    } else {
      usage_error("unknown flag '" + flag + "'");
    }
  }
  if (o.shards == 0) usage_error("--shards must be >= 1");
  if (o.clients.empty()) usage_error("--clients list is empty");
  for (const std::size_t c : o.clients) {
    if (c == 0) usage_error("--clients entries must be >= 1");
  }
  for (const double q : o.qps) {
    if (q < 0) usage_error("--qps entries must be >= 0 (0 = saturation)");
  }
  if (o.arena && !o.capacity_log2_set) o.capacity_log2 = 22;
  if (o.shards > (std::numeric_limits<Tick>::max() >> o.capacity_log2)) {
    usage_error("--shards x 2^capacity-log2 overflows the tick space");
  }
  if (o.eps <= 0.0 || o.eps >= 1.0) usage_error("--eps must be in (0, 1)");
  if (o.verify_only && !o.verify) {
    usage_error("--verify-only and --skip-verify are mutually exclusive");
  }
  const ScenarioInfo* s = find_scenario(o.workload);
  if (s != nullptr && s->byte_mode) {
    usage_error("workload '" + o.workload +
                "' is byte-addressed; the serving layer drives "
                "tick-native streams (use memreal_shard for byte "
                "workloads)");
  }
  // Refuses an unknown workload, or one the allocator cannot serve,
  // before the differential or any sweep point runs.
  (void)workload_params(o.workload, o.allocator, o.eps,
                        Tick{1} << o.capacity_log2, o.shards, o.updates,
                        o.seed);
  return o;
}

ShardedConfig base_config(const Options& o, const std::string& allocator,
                          const std::string& engine, Tick shard_capacity) {
  ShardedConfig c;
  c.engine = engine;
  c.allocator = allocator;
  c.arena = o.arena;
  c.bytes_per_tick = o.bytes_per_tick;
  c.params.eps = o.eps;
  c.params.seed = o.seed;
  c.shards = o.shards;
  c.shard_capacity = shard_capacity;
  c.eps = o.eps;
  return c;
}

/// Load level that fills with at most ~`max_items` items of the band's
/// mean size: tiny-item families (tinyslab, flexhash, rsum bands) would
/// otherwise need millions of fill inserts to hit a mass-fraction target.
double bounded_load(double want, Tick min_size, Tick max_size, Tick capacity,
                    std::size_t max_items) {
  const double mean = (static_cast<double>(min_size) +
                       static_cast<double>(max_size)) / 2.0;
  const double cap = static_cast<double>(max_items) * mean /
                     static_cast<double>(capacity);
  return std::min(want, cap);
}

/// One client's request stream: sizes from the allocator's registered
/// band over the *shard* capacity, live-mass budget a 1/clients slice of
/// the global capacity, ids remapped into a per-client residue class so
/// concurrent clients never race an insert against its own delete.
Sequence client_workload(const Options& o, Tick shard_capacity,
                         std::size_t clients, std::size_t client,
                         std::size_t point) {
  const std::size_t updates = std::max<std::size_t>(50, o.updates / clients);
  SplitMix64 mix(o.seed + 7919 * point + client);
  ScenarioParams p =
      workload_params(o.workload, o.allocator, o.eps, shard_capacity,
                      o.shards, updates, mix.next());
  p.capacity /= clients;
  p.target_load = bounded_load(0.5, p.min_size, p.max_size, p.capacity,
                               std::max<std::size_t>(updates, 1'000));
  Sequence s = make_scenario(o.workload, p);
  for (Update& u : s.updates) u.id = u.id * clients + client;
  return s;
}

/// Cell-metric label used by the sweep: memreal_serve drives the churn
/// workload, and arena-backed cells register under "<engine>+arena".
std::string engine_label(const Options& o) {
  return o.arena ? o.engine + "+arena" : o.engine;
}

/// Exactness check: the per-shard cell counters must equal the engine's
/// per-shard RunStats integers tick-for-tick, and so must their sums vs
/// the merged global block.  Any drift means an instrumentation site was
/// skipped or double-counted.
bool counters_match_stats(const Options& o, const ShardedRunStats& stats) {
  obs::MetricRegistry& reg = obs::MetricRegistry::global();
  std::uint64_t updates = 0;
  std::uint64_t moved = 0;
  std::uint64_t umass = 0;
  for (std::size_t s = 0; s < stats.per_shard.size(); ++s) {
    obs::MetricLabels l;
    l.allocator = o.allocator;
    l.engine = engine_label(o);
    l.shard = static_cast<int>(s);
    l.workload = o.workload;
    const RunStats& ps = stats.per_shard[s];
    const std::uint64_t u =
        reg.counter("memreal_cell_updates_total", l)->value();
    const std::uint64_t m =
        reg.counter("memreal_cell_moved_ticks_total", l)->value();
    const std::uint64_t k =
        reg.counter("memreal_cell_update_ticks_total", l)->value();
    if (u != ps.updates || m != static_cast<std::uint64_t>(ps.moved_mass) ||
        k != static_cast<std::uint64_t>(ps.update_mass) ||
        reg.counter("memreal_cell_inserts_total", l)->value() != ps.inserts ||
        reg.counter("memreal_cell_deletes_total", l)->value() != ps.deletes ||
        reg.counter("memreal_cell_moved_bytes_total", l)->value() !=
            static_cast<std::uint64_t>(ps.moved_bytes) ||
        reg.histogram("memreal_cell_cost", l)->count() != ps.updates) {
      return false;
    }
    updates += u;
    moved += m;
    umass += k;
  }
  return updates == stats.global.updates &&
         moved == static_cast<std::uint64_t>(stats.global.moved_mass) &&
         umass == static_cast<std::uint64_t>(stats.global.update_mass);
}

/// One JSON line of --metrics-out: point context + full registry snapshot.
void write_snapshot_line(std::ostream& out, std::size_t point,
                         std::size_t clients, double elapsed_ms, bool final) {
  Json line = Json::object();
  line.set("point", static_cast<std::uint64_t>(point))
      .set("clients", static_cast<std::uint64_t>(clients))
      .set("elapsed_ms", elapsed_ms)
      .set("final", final)
      .set("metrics",
           obs::MetricRegistry::global().snapshot_json().at("metrics"));
  out << line.dump(0) << "\n";
  out.flush();
}

struct PointResult {
  std::size_t clients = 0;
  double target_qps = 0;
  std::size_t updates = 0;
  double wall_seconds = 0;
  double achieved_qps = 0;
  double p50_us = 0;
  double p99_us = 0;
  double p999_us = 0;
  double max_us = 0;
  double mean_us = 0;
  bool counters_match = true;  ///< only meaningful when metrics wired
  std::size_t queue_high_water = 0;
};

/// One closed-loop sweep point: `clients` threads drive a fresh engine,
/// each waiting on every future (optionally paced to target_qps total).
/// With `wire_metrics` the registry is reset and wired through the cell
/// seam; `snap_out` (with optional periodic sampler) receives JSON-lines
/// snapshots and the point ends with the counters-vs-stats exactness
/// check.
PointResult run_point(const Options& o, Tick shard_capacity,
                      std::size_t clients, double target_qps,
                      std::size_t point_index, bool wire_metrics,
                      std::ostream* snap_out) {
  ShardedConfig config = base_config(o, o.allocator, o.engine, shard_capacity);
  if (wire_metrics) {
    obs::MetricRegistry::global().reset();
    config.metrics = &obs::MetricRegistry::global();
    config.workload_label = o.workload;
  }
  ServingEngine engine(config);

  std::vector<Sequence> streams;
  streams.reserve(clients);
  std::size_t total = 0;
  for (std::size_t c = 0; c < clients; ++c) {
    streams.push_back(
        client_workload(o, shard_capacity, clients, c, point_index));
    total += streams.back().size();
  }

  std::vector<Quantiles> lat(clients);
  std::vector<StreamingStats> agg(clients);
  std::mutex error_mu;
  std::exception_ptr first_error;

  using clock = std::chrono::steady_clock;
  const auto start = clock::now();

  // Periodic snapshot sampler: wakes every --metrics-interval ms and
  // appends one JSON line while the point runs.  The final (quiescent)
  // line is written by the main thread after drain.
  std::mutex sampler_mu;
  std::condition_variable sampler_cv;
  bool sampler_stop = false;
  std::thread sampler;
  if (snap_out != nullptr && o.metrics_interval_ms > 0) {
    sampler = std::thread([&] {
      std::unique_lock<std::mutex> lock(sampler_mu);
      while (!sampler_cv.wait_for(
          lock, std::chrono::milliseconds(o.metrics_interval_ms),
          [&] { return sampler_stop; })) {
        const double ms = std::chrono::duration<double, std::milli>(
                              clock::now() - start).count();
        write_snapshot_line(*snap_out, point_index, clients, ms, false);
      }
    });
  }

  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      // Pacing: the target rate is split evenly across clients.
      const double interval_s =
          target_qps > 0 ? static_cast<double>(clients) / target_qps : 0.0;
      auto next_tick = clock::now();
      lat[c].reserve(streams[c].size());
      try {
        for (const Update& u : streams[c].updates) {
          if (interval_s > 0) {
            next_tick += std::chrono::duration_cast<clock::duration>(
                std::chrono::duration<double>(interval_s));
            std::this_thread::sleep_until(next_tick);
          }
          const auto t0 = clock::now();
          const double cost = engine.submit(u).get();
          const auto t1 = clock::now();
          (void)cost;
          const double us =
              std::chrono::duration<double, std::micro>(t1 - t0).count();
          lat[c].add(us);
          agg[c].add(us);
        }
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  engine.drain();
  const auto end = clock::now();
  if (sampler.joinable()) {
    {
      std::lock_guard<std::mutex> lock(sampler_mu);
      sampler_stop = true;
    }
    sampler_cv.notify_one();
    sampler.join();
  }
  if (first_error) std::rethrow_exception(first_error);

  bool counters_match = true;
  std::size_t queue_high_water = 0;
  if (wire_metrics) {
    // drain() leaves the workers idle with every update applied, so the
    // relaxed counters are quiesced: compare them against the engine's
    // own stats before tearing anything down.
    const ShardedRunStats sstats = engine.stats();
    counters_match = counters_match_stats(o, sstats);
    for (std::size_t s = 0; s < o.shards; ++s) {
      queue_high_water = std::max(queue_high_water, engine.queue_high_water(s));
    }
    if (snap_out != nullptr) {
      const double ms =
          std::chrono::duration<double, std::milli>(end - start).count();
      write_snapshot_line(*snap_out, point_index, clients, ms, true);
    }
  }
  engine.audit();
  engine.stop();

  Quantiles merged;
  StreamingStats stats;
  for (std::size_t c = 0; c < clients; ++c) {
    merged.merge(lat[c]);
    stats.merge(agg[c]);
  }

  PointResult r;
  r.clients = clients;
  r.target_qps = target_qps;
  r.updates = total;
  r.wall_seconds = std::chrono::duration<double>(end - start).count();
  r.achieved_qps =
      r.wall_seconds > 0 ? static_cast<double>(total) / r.wall_seconds : 0;
  r.p50_us = merged.quantile(0.5);
  r.p99_us = merged.quantile(0.99);
  r.p999_us = merged.quantile(0.999);
  r.max_us = merged.quantile(1.0);
  r.mean_us = stats.mean();
  r.counters_match = counters_match;
  r.queue_high_water = queue_high_water;
  return r;
}

struct OverheadResult {
  std::size_t clients = 0;
  double qps_off = 0;
  double qps_on = 0;
  double ratio = 0;
};

double best_of(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::max_element(v.begin(), v.end());
}

/// Metrics overhead at saturation: best-of-N closed-loop throughput
/// with the registry unwired vs wired.  Reps are interleaved rep-by-rep
/// so thermal / scheduler drift hits both arms equally, and each arm
/// takes its best rep: interference on a shared box only ever slows a
/// run down, so the max is the estimator of uncontended speed and a
/// median would fold unrelated stalls into the reported overhead.
OverheadResult measure_overhead(const Options& o, Tick shard_capacity,
                                std::size_t reps, std::size_t point_base) {
  OverheadResult r;
  r.clients = *std::max_element(o.clients.begin(), o.clients.end());
  std::vector<double> off;
  std::vector<double> on;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    // Same point index for both arms = identical request streams, and
    // the arm order flips every rep so monotone drift (frequency
    // scaling, cache warmth) cancels instead of always taxing one arm.
    const std::size_t point = point_base + rep;
    auto qps = [&](bool wired) {
      return run_point(o, shard_capacity, r.clients, 0.0, point, wired,
                       nullptr)
          .achieved_qps;
    };
    if (rep % 2 == 0) {
      off.push_back(qps(false));
      on.push_back(qps(true));
    } else {
      on.push_back(qps(true));
      off.push_back(qps(false));
    }
  }
  r.qps_off = best_of(off);
  r.qps_on = best_of(on);
  r.ratio = r.qps_off > 0 ? r.qps_on / r.qps_off : 0;
  return r;
}

struct VerifyResult {
  std::string allocator;
  std::string engine;
  std::size_t updates = 0;
  bool costs_equal = false;
  bool layouts_equal = false;
};

bool same_layout(LayoutStore& a, LayoutStore& b) {
  const auto la = a.snapshot();
  const auto lb = b.snapshot();
  if (la.size() != lb.size()) return false;
  for (std::size_t i = 0; i < la.size(); ++i) {
    if (la[i].id != lb[i].id || la[i].offset != lb[i].offset ||
        la[i].size != lb[i].size || la[i].extent != lb[i].extent) {
      return false;
    }
  }
  return true;
}

bool same_stats(const ShardedRunStats& a, const ShardedRunStats& b) {
  if (a.global.updates != b.global.updates ||
      a.global.moved_mass != b.global.moved_mass ||
      a.global.update_mass != b.global.update_mass ||
      a.fallback_routes != b.fallback_routes ||
      a.per_shard.size() != b.per_shard.size()) {
    return false;
  }
  for (std::size_t s = 0; s < a.per_shard.size(); ++s) {
    const RunStats& x = a.per_shard[s];
    const RunStats& y = b.per_shard[s];
    // The per-shard update order is identical, so every derived double
    // must compare bitwise equal.
    if (x.updates != y.updates || x.moved_mass != y.moved_mass ||
        x.update_mass != y.update_mass ||
        x.cost.count() != y.cost.count() ||
        x.cost.mean() != y.cost.mean() ||
        x.cost.variance() != y.cost.variance() ||
        x.cost.min() != y.cost.min() || x.cost.max() != y.cost.max() ||
        x.cost.sum() != y.cost.sum()) {
      return false;
    }
  }
  return true;
}

/// The deterministic differential for one (allocator, engine) pair: the
/// served sequence must leave costs and layouts bit-identical to the
/// batch ShardedEngine.
VerifyResult verify_pair(const Options& o, const std::string& allocator,
                         const std::string& engine, std::size_t updates) {
  // Tick-space verify runs on wide cells so every allocator's size
  // classes resolve, independent of the latency sweep's geometry.
  const Tick shard_capacity = o.arena ? Tick{1} << o.capacity_log2
                                      : Tick{1} << 40;
  // Every registry allocator runs here, tiny-band ones included: the
  // bounded load keeps their fill short, so the zoo's fill-length refusal
  // (sized for the default load) does not apply.
  ScenarioParams p = scenario_params_for(allocator_info(allocator), o.eps,
                                         shard_capacity, updates, o.seed);
  p.capacity = shard_capacity * o.shards;
  p.target_load =
      bounded_load(0.7, p.min_size, p.max_size, p.capacity, 1'000);
  const Sequence seq = make_scenario("churn", p);

  const ShardedConfig config = base_config(o, allocator, engine,
                                           shard_capacity);
  ShardedEngine batch(config);
  const ShardedRunStats want = batch.run(seq);
  batch.audit();

  ServingEngine serve(config);
  (void)serve_deterministic(serve, seq, /*lanes=*/3, o.seed + 1);
  const ShardedRunStats got = serve.stats();
  serve.audit();

  VerifyResult r;
  r.allocator = allocator;
  r.engine = engine;
  r.updates = seq.size();
  r.costs_equal = same_stats(got, want);
  r.layouts_equal = true;
  for (std::size_t s = 0; s < batch.shard_count(); ++s) {
    r.layouts_equal &=
        same_layout(batch.memory(s), serve.sharded().memory(s));
  }
  serve.stop();
  return r;
}

int run(const Options& o) {
  const bool fast = fast_mode();
  const Tick shard_capacity = Tick{1} << o.capacity_log2;
  const std::size_t sweep_updates =
      fast ? std::min<std::size_t>(o.updates, 2'000) : o.updates;
  const std::size_t verify_updates = fast ? 200 : 600;

  Json records = Json::array();
  bool verify_ok = true;

  if (o.verify) {
    Table vt({"allocator", "engine", "updates", "costs", "layouts"});
    Json rows = Json::array();
    for (const std::string& allocator : allocator_names()) {
      for (const std::string& engine : engine_names()) {
        const VerifyResult r =
            verify_pair(o, allocator, engine, verify_updates);
        verify_ok &= r.costs_equal && r.layouts_equal;
        vt.add_row({r.allocator, r.engine, std::to_string(r.updates),
                    r.costs_equal ? "identical" : "MISMATCH",
                    r.layouts_equal ? "identical" : "MISMATCH"});
        Json row = Json::object();
        row.set("allocator", r.allocator)
            .set("engine", r.engine)
            .set("shards", static_cast<std::uint64_t>(o.shards))
            .set("updates", static_cast<std::uint64_t>(r.updates))
            .set("costs_equal", std::uint64_t{r.costs_equal ? 1u : 0u})
            .set("layouts_equal",
                 std::uint64_t{r.layouts_equal ? 1u : 0u});
        rows.push(std::move(row));
      }
    }
    if (!o.quiet) {
      std::cout << "\ndeterministic differential vs batch ShardedEngine ("
                << o.shards << " shards, 3 lanes):\n";
      vt.print(std::cout);
    }
    std::cout << "deterministic verify: "
              << (verify_ok ? "every pair bit-identical"
                            : "MISMATCH (see table)")
              << "\n";
    Json rec = Json::object();
    rec.set("kind", "serve_verify")
        .set("claim", "T-SERVE")
        .set("series", "deterministic-verify")
        .set("lanes", std::uint64_t{3})
        .set("rows", std::move(rows));
    records.push(std::move(rec));
  }

  if (!o.verify_only) {
    std::ofstream snap_file;
    std::ostream* snap_out = nullptr;
    if (!o.metrics.out.empty()) {
      snap_file.open(o.metrics.out);
      if (!snap_file) {
        std::fprintf(stderr, "memreal_serve: cannot write '%s'\n",
                     o.metrics.out.c_str());
        return 1;
      }
      snap_out = &snap_file;
    }

    Table lt({"clients", "target_qps", "achieved_qps", "p50_us", "p99_us",
              "p999_us", "max_us", "mean_us"});
    Json rows = Json::array();
    Json consistency_rows = Json::array();
    bool metrics_ok = true;
    std::size_t point = 0;
    for (const std::size_t clients : o.clients) {
      for (const double qps : o.qps) {
        Options po = o;
        po.updates = sweep_updates;
        const PointResult r =
            run_point(po, shard_capacity, clients, qps, point++,
                      /*wire_metrics=*/true, snap_out);
        metrics_ok &= r.counters_match;
        Json crow = Json::object();
        crow.set("clients", static_cast<std::uint64_t>(r.clients))
            .set("target_qps", r.target_qps)
            .set("updates", static_cast<std::uint64_t>(r.updates))
            .set("counters_match", std::uint64_t{r.counters_match ? 1u : 0u})
            .set("queue_high_water",
                 static_cast<std::uint64_t>(r.queue_high_water));
        consistency_rows.push(std::move(crow));
        lt.add_row({std::to_string(r.clients),
                    qps > 0 ? Table::num(qps, 6) : std::string("sat"),
                    Table::num(r.achieved_qps, 6), Table::num(r.p50_us, 4),
                    Table::num(r.p99_us, 4), Table::num(r.p999_us, 4),
                    Table::num(r.max_us, 4), Table::num(r.mean_us, 4)});
        Json row = Json::object();
        row.set("shards", static_cast<std::uint64_t>(o.shards))
            .set("clients", static_cast<std::uint64_t>(r.clients))
            .set("target_qps", r.target_qps)
            .set("achieved_qps", r.achieved_qps)
            .set("updates", static_cast<std::uint64_t>(r.updates))
            .set("wall_seconds", r.wall_seconds)
            .set("p50_us", r.p50_us)
            .set("p99_us", r.p99_us)
            .set("p999_us", r.p999_us)
            .set("max_us", r.max_us)
            .set("mean_us", r.mean_us);
        rows.push(std::move(row));
      }
    }
    if (!o.quiet) {
      std::cout << "\nlatency sweep (" << o.allocator << ", "
                << (o.arena ? "arena" : o.engine) << ", " << o.shards
                << " shards, " << sweep_updates
                << " requests per point):\n";
      lt.print(std::cout);
    }
    Json rec = Json::object();
    rec.set("kind", "serve_latency")
        .set("claim", "T-SERVE")
        .set("series", "latency-sweep")
        .set("allocator", o.allocator)
        .set("engine", o.arena ? "arena" : o.engine)
        .set("workload", o.workload)
        .set("rows", std::move(rows));
    records.push(std::move(rec));

    // Per-point exactness: summed per-shard cell counters == merged
    // RunStats totals, tick-for-tick.
    verify_ok &= metrics_ok;
    std::cout << "metrics consistency: "
              << (metrics_ok ? "counters equal RunStats on every point"
                             : "MISMATCH (counters drifted from RunStats)")
              << "\n";
    Json crec = Json::object();
    crec.set("kind", "serve_metrics")
        .set("claim", "T-SERVE")
        .set("series", "metrics-consistency")
        .set("allocator", o.allocator)
        .set("engine", o.arena ? "arena" : o.engine)
        .set("rows", std::move(consistency_rows));
    records.push(std::move(crec));

    if (o.overhead) {
      Options po = o;
      po.updates = sweep_updates;
      const std::size_t reps = fast ? 3 : 9;
      const OverheadResult ov =
          measure_overhead(po, shard_capacity, reps, point);
      if (!o.quiet) {
        std::cout << "\nmetrics overhead at saturation (" << ov.clients
                  << " clients, best of " << reps << "): off "
                  << Table::num(ov.qps_off, 6) << " qps, on "
                  << Table::num(ov.qps_on, 6) << " qps, ratio "
                  << Table::num(ov.ratio, 4) << "\n";
      }
      Json orow = Json::object();
      orow.set("clients", static_cast<std::uint64_t>(ov.clients))
          .set("updates", static_cast<std::uint64_t>(sweep_updates))
          .set("qps_metrics_off", ov.qps_off)
          .set("qps_metrics_on", ov.qps_on)
          .set("ratio", ov.ratio);
      Json orows = Json::array();
      orows.push(std::move(orow));
      Json orec = Json::object();
      orec.set("kind", "serve_overhead")
          .set("claim", "T-SERVE")
          .set("series", "metrics-overhead")
          .set("allocator", o.allocator)
          .set("engine", o.arena ? "arena" : o.engine)
          .set("rows", std::move(orows));
      records.push(std::move(orec));
    }

    if (!o.metrics.prom_out.empty()) {
      std::ofstream prom(o.metrics.prom_out);
      if (!prom) {
        std::fprintf(stderr, "memreal_serve: cannot write '%s'\n",
                     o.metrics.prom_out.c_str());
        return 1;
      }
      prom << obs::MetricRegistry::global().prometheus_text();
      std::cout << "wrote " << o.metrics.prom_out << "\n";
    }
    if (snap_out != nullptr) std::cout << "wrote " << o.metrics.out << "\n";
    if (o.metrics.summary) {
      std::cout << "\nmetric summary (last wired point):\n"
                << obs::MetricRegistry::global().summary_table();
    }
  }

  if (!o.json_path.empty()) {
    std::string path = o.json_path;
    if (!o.json_path_set) {
      const char* dir = std::getenv("MEMREAL_BENCH_DIR");
      if (dir != nullptr && dir[0] != '\0') {
        path = std::string(dir) + "/" + path;
      }
    }
    Json doc = Json::object();
    doc.set("bench", "serve")
        .set("schema", std::uint64_t{2})
        .set("git_describe", git_describe())
        .set("fast_mode", fast);
    Json seeds = Json::array();
    seeds.push(o.seed);
    doc.set("seeds", std::move(seeds));
    doc.set("records", std::move(records));
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "memreal_serve: cannot write '%s'\n",
                   path.c_str());
      return 1;
    }
    out << doc.dump(2) << "\n";
    std::cout << "wrote " << path << "\n";
  }
  return verify_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  set_tool("memreal_serve");
  try {
    // parse_args looks the allocator up, which throws on unknown names.
    return run(parse_args(argc, argv));
  } catch (const memreal::InvariantViolation& e) {
    std::fprintf(stderr, "memreal_serve: invariant violation: %s\n",
                 e.what());
    return 1;
  }
}
