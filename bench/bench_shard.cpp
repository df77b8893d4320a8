// Sharded-engine scaling experiment: updates/sec of a fully validated
// sharded run as a function of (shards, threads).
//
// Two sweeps on a uniform churn workload (sizes in the allocator's
// registered band of the shard capacity):
//   T-SHARD-S — shard scaling at all cores: S = 1, 2, 4, 8 (16 when not
//               MEMREAL_FAST).  More cells mean smaller per-cell layouts
//               and more parallel lanes; updates/sec should grow until
//               the core count binds.
//   T-SHARD-T — thread scaling at S = 8: T = 1, 2, 4, ..., cores.  The
//               acceptance bar for the subsystem: updates/sec increases
//               from 1 thread to all cores (on multi-core hosts).
// Then two T-REL head-to-heads (S = 1, one thread, release vs validated
// engine): SIMPLE on a dense cell, whose compactions never reorder items,
// and GEO, whose level rebuilds reorder a suffix of memory on every
// update and so exercise the release store's reorder path.
//
// Everything is emitted to BENCH_shard.json via BenchJson, then a small
// google-benchmark section measures the same configurations.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "harness/cell.h"
#include "perfadv/zoo.h"
#include "shard/sharded_engine.h"

namespace memreal::bench {
namespace {

constexpr double kEps = 1.0 / 64;
constexpr Tick kShardCapacity = Tick{1} << 34;

/// T-REL runs its cell denser (~550 live items vs ~34 at kEps) so the
/// head-to-head measures what the release engine removes — per-update
/// validation work, which scales with moved mass — rather than the fixed
/// per-update engine overhead that dominates a near-empty cell.
constexpr double kRelEps = 1.0 / 1024;

/// Full mode holds every GEO head-to-head point to at least this much wall
/// time, so the ratio measures steady state rather than start-up.
constexpr double kMinPointSeconds = 0.2;

std::size_t cores() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

/// Scenario-zoo churn: sizes from the allocator's band over one shard,
/// live-mass budget over all `shards`.
Sequence shard_workload(const std::string& allocator, std::size_t shards,
                        std::size_t updates, std::uint64_t seed,
                        double eps = kEps) {
  ScenarioParams p = scenario_params_for(allocator_info(allocator), eps,
                                         kShardCapacity, updates, seed);
  p.capacity = kShardCapacity * shards;
  return make_scenario("churn", p);
}

ShardedConfig shard_config(const std::string& allocator, std::size_t shards,
                           std::size_t threads,
                           const std::string& engine = "validated",
                           double eps = kEps) {
  ShardedConfig c;
  c.engine = engine;
  c.allocator = allocator;
  c.params.eps = eps;
  c.params.seed = 1;
  c.shards = shards;
  c.shard_capacity = kShardCapacity;
  c.eps = eps;
  c.threads = threads;
  c.batch_size = 4'096;
  return c;
}

struct Point {
  std::size_t shards;
  std::size_t threads;
  ShardedRunStats stats;
};

Point measure(const std::string& allocator, const Sequence& seq,
              std::size_t shards, std::size_t threads,
              const std::string& engine_name = "validated",
              double eps = kEps) {
  ShardedEngine engine(
      shard_config(allocator, shards, threads, engine_name, eps));
  Point p{shards, engine.thread_count(), engine.run(seq)};
  engine.audit();
  return p;
}

Json point_row(const Point& p) {
  Json row = Json::object();
  row.set("shards", static_cast<std::uint64_t>(p.shards))
      .set("threads", static_cast<std::uint64_t>(p.threads))
      .set("updates", static_cast<std::uint64_t>(p.stats.global.updates))
      .set("wall_seconds", p.stats.global.wall_seconds)
      .set("updates_per_second", p.stats.updates_per_second())
      .set("mean_cost", p.stats.global.mean_cost())
      .set("ratio_cost", p.stats.global.ratio_cost())
      .set("imbalance", p.stats.imbalance())
      .set("fallback_routes",
           static_cast<std::uint64_t>(p.stats.fallback_routes));
  return row;
}

void add_row(Table& t, const Point& p) {
  t.add_row({std::to_string(p.shards), std::to_string(p.threads),
             std::to_string(p.stats.global.updates),
             Table::num(p.stats.global.wall_seconds, 4),
             Table::num(p.stats.updates_per_second(), 6),
             Table::num(p.stats.global.mean_cost(), 4),
             Table::num(p.stats.imbalance(), 3)});
}

/// Release vs validated engine on one cell (S = 1, one thread) over the
/// same sequence: prints the table and the ratio, returns the T-REL
/// record for `series`.
Json engine_head_to_head(const std::string& allocator, const Sequence& seq,
                         double eps, const std::string& series,
                         const std::string& workload) {
  Json rec = series_record("engine_throughput", "T-REL", series);
  rec.set("allocator", allocator);
  rec.set("workload", workload);
  Json rows = Json::array();
  Table by_engine({"engine", "shards", "threads", "updates", "wall_s",
                   "updates/s", "mean_cost", "imbalance"});
  double validated_rate = 0.0;
  double release_rate = 0.0;
  for (const std::string& engine : engine_names()) {
    const Point p = measure(allocator, seq, 1, 1, engine, eps);
    by_engine.add_row({engine, std::to_string(p.shards),
                       std::to_string(p.threads),
                       std::to_string(p.stats.global.updates),
                       Table::num(p.stats.global.wall_seconds, 4),
                       Table::num(p.stats.updates_per_second(), 6),
                       Table::num(p.stats.global.mean_cost(), 4),
                       Table::num(p.stats.imbalance(), 3)});
    Json row = point_row(p);
    row.set("engine", engine);
    rows.push(std::move(row));
    if (engine == "validated") validated_rate = p.stats.updates_per_second();
    if (engine == "release") release_rate = p.stats.updates_per_second();
  }
  rec.set("rows", std::move(rows));
  by_engine.print(std::cout);
  std::cout << "release / validated updates-per-second ratio at S = 1 ("
            << allocator << "): "
            << Table::num(validated_rate > 0 ? release_rate / validated_rate
                                             : 0.0, 3)
            << "x\n";
  return rec;
}

void print_experiment() {
  const bool fast = fast_mode();
  const std::string allocator = "simple";
  const std::size_t updates = fast ? 4'000 : 40'000;
  BenchJson artifact("shard");
  artifact.set_seeds({1});

  print_header("T-SHARD-S — shard scaling (all cores)",
               "Validated sharded churn: updates/sec vs shard count at "
               "full thread parallelism.");
  std::vector<std::size_t> shard_counts{1, 2, 4, 8};
  if (!fast) shard_counts.push_back(16);
  Json shards_rec = series_record("shard_scaling", "T9", "shard-scaling");
  shards_rec.set("allocator", allocator);
  shards_rec.set("workload", "uniform churn, load 0.8, all cores");
  Json shards_rows = Json::array();
  Table by_shards({"shards", "threads", "updates", "wall_s", "updates/s",
                   "mean_cost", "imbalance"});
  for (const std::size_t s : shard_counts) {
    const Sequence seq = shard_workload(allocator, s, updates, 1);
    const Point p = measure(allocator, seq, s, 0);
    add_row(by_shards, p);
    shards_rows.push(point_row(p));
  }
  shards_rec.set("rows", std::move(shards_rows));
  artifact.add(std::move(shards_rec));
  by_shards.print(std::cout);

  print_header("T-SHARD-T — thread scaling (S = 8)",
               "Same workload, fixed 8 shards: updates/sec from 1 thread "
               "to all cores.");
  std::vector<std::size_t> thread_counts;
  for (std::size_t t = 1; t < cores(); t *= 2) thread_counts.push_back(t);
  thread_counts.push_back(cores());
  const Sequence seq8 = shard_workload(allocator, 8, updates, 1);
  Json threads_rec = series_record("shard_scaling", "T9", "thread-scaling");
  threads_rec.set("allocator", allocator);
  threads_rec.set("workload", "uniform churn, load 0.8, S = 8");
  Json threads_rows = Json::array();
  Table by_threads({"shards", "threads", "updates", "wall_s", "updates/s",
                    "mean_cost", "imbalance"});
  double first_rate = 0.0;
  double last_rate = 0.0;
  for (const std::size_t t : thread_counts) {
    const Point p = measure(allocator, seq8, 8, t);
    add_row(by_threads, p);
    threads_rows.push(point_row(p));
    if (t == thread_counts.front()) first_rate = p.stats.updates_per_second();
    last_rate = p.stats.updates_per_second();
  }
  threads_rec.set("rows", std::move(threads_rows));
  artifact.add(std::move(threads_rec));
  by_threads.print(std::cout);
  std::cout << "1-thread -> all-cores speedup at S = 8: "
            << Table::num(last_rate / first_rate, 3) << "x over "
            << cores() << " core(s)\n";

  print_header("T-REL — engine throughput (S = 1, single thread)",
               "Churn on one dense cell (eps = 1/1024, ~550 live items): "
               "the unchecked release engine (slab store, no per-update "
               "validation) vs the validated engine, updates/sec head to "
               "head.");
  artifact.add(engine_head_to_head(
      allocator, shard_workload(allocator, 1, updates, 1, kRelEps), kRelEps,
      "engine-throughput",
      "uniform churn, load 0.8, eps 1/1024, S = 1, 1 thread"));

  print_header("T-REL — engine throughput on GEO (S = 1, single thread)",
               "Churn at eps = 1/64: every GEO update rebuilds a level, "
               "which reorders a suffix of memory, so this measures the "
               "release store's reorder path.");
  std::size_t geo_updates = fast ? 2'000 : 10'000;
  Sequence geo_seq = shard_workload("geo", 1, geo_updates, 1);
  while (!fast && measure("geo", geo_seq, 1, 1, "release")
                          .stats.global.wall_seconds < kMinPointSeconds) {
    geo_updates *= 2;
    geo_seq = shard_workload("geo", 1, geo_updates, 1);
  }
  artifact.add(engine_head_to_head("geo", geo_seq, kEps,
                                   "engine-throughput-geo",
                                   "uniform churn, load 0.8, eps 1/64, "
                                   "S = 1, 1 thread"));

  artifact.write();
}

void bm_sharded_churn(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  const Sequence seq = shard_workload("simple", shards, 2'000, 1);
  for (auto _ : state) {
    ShardedEngine engine(shard_config("simple", shards, 0));
    const ShardedRunStats stats = engine.run(seq);
    benchmark::DoNotOptimize(stats.global.moved_mass);
    state.counters["updates_per_s"] = stats.updates_per_second();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * seq.updates.size()));
}

}  // namespace
}  // namespace memreal::bench

int main(int argc, char** argv) {
  memreal::bench::print_experiment();

  benchmark::RegisterBenchmark("BM_ShardedChurn",
                               memreal::bench::bm_sharded_churn)
      ->Arg(1)
      ->Arg(4)
      ->Arg(8);

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
