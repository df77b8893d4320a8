#include "workloads.h"

#include <algorithm>
#include <barrier>
#include <chrono>
#include <cmath>
#include <exception>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <sstream>
#include <thread>
#include <unordered_map>

#include <sched.h>

#include "alloc/registry.h"
#include "harness/cell.h"
#include "percentile.h"
#include "perfadv/zoo.h"
#include "serve/serving_engine.h"
#include "shard/sharded_engine.h"
#include "span_log.h"
#include "timed_layers.h"
#include "util/rng.h"

namespace perfbench {

using memreal::AllocatorInfo;
using memreal::Cell;
using memreal::CellConfig;
using memreal::LayoutStore;
using memreal::Rng;
using memreal::RunStats;
using memreal::Sequence;
using memreal::ServingEngine;
using memreal::ShardedConfig;
using memreal::ShardedEngine;
using memreal::ShardedRunStats;
using memreal::Update;

namespace {

// -- Workload sizes ----------------------------------------------------------
//
// Each run does a fixed amount of work, sized from --seconds by the rate
// the library sustained on a 4-vCPU Xeon when the benchmark was written,
// so the deterministic metrics (costs) depend only on (seed, seconds) and
// a faster program simply finishes sooner.

constexpr double kGeoUpdatesPerSecond = 4'500;
constexpr double kVmUpdatesPerSecond = 190;
/// Updates per ShardedEngine::run round on vm_heap_sharded; the batch
/// workloads read a burst of live items after each round.
constexpr std::size_t kRound = 64;
/// Live load of the sharded workloads: the headroom memreal_shard gives
/// the hash router so a refill wave never finds every shard full.
constexpr double kShardedLoad = 0.7;
/// Passes of an untraced run: set-up plus timed phase, repeated on the
/// identical input.  Every timing and setup_s is the median over passes,
/// which keeps one burst of interference on the shared host from moving
/// a run's figures.
constexpr int kPasses = 5;
/// One read per four updates: 20% of operations.  A read is one lookup of
/// a live item, contains and then neighbors_of, timed together.  Every
/// sample then holds both calls, so the read median moves with either;
/// timed apart in a mix, the median would sit on one call's latencies or
/// jump between the two from run to run.
constexpr std::uint64_t kUpdatesPerRead = 4;

/// Capacity of the tick-native workloads.  Below the library's 2^50
/// default because RunStats sums moved ticks in 64 bits: a million
/// updates of ~2^42-tick items at cost ~30 would wrap the sum.
constexpr memreal::Tick kTickCapacity = memreal::Tick{1} << 40;

// serve_mixed: the offered-rate ladder, the reference rung and the limit.
/// The top rung misses the limit at the commit that added the benchmark
/// and stays below the ~290k req/s the paced generator can send.
constexpr double kServeLadder[] = {25'000,  50'000,  75'000,  100'000,
                                   125'000, 150'000, 200'000, 250'000};
constexpr double kReferenceRate = 50'000;
/// Tail latencies of serve_mixed are taken per window of this length
/// (2,000 reads at the reference rate, so a p99 has 20 samples beyond it)
/// and summarized as the first quartile over windows (see verdicts()).
constexpr std::int64_t kWindowNs = 200'000'000;
constexpr double kUpdateP99LimitUs = 50.0;
/// serve_mixed throughput: after the ladder, kServeBursts unpaced bursts
/// of updates, submitted back to back and timed from the first submit to
/// the last completion.  They take kServeBurstShare of a pass, sized by
/// the rate the library sustained when the benchmark was written.
constexpr std::size_t kServeBursts = 5;
constexpr double kServeBurstShare = 0.15;
constexpr double kServeBurstUpdatesPerSecond = 400'000;
/// A rung whose generator lag p99 exceeds the limit, or that ends with
/// more requests in flight than this, is invalid (growing backlog).
constexpr std::size_t kMaxEndBacklog = 256;

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"updates_per_s", "1/s"},
    {"update_p50_us", "us"},
    {"read_p50_us", "us"},
    {"mean_cost", "ratio"},
    {"cost_p99", "ratio"},
    {"moved_bytes_per_user_byte", "ratio"},
    {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},
};

/// End-to-end tails whose run-to-run spread on a shared 4-vCPU host is
/// wider than any regression bound could be (README.md has the figures).
/// Every run prints them; the traced run reports them as tail.<name>.
constexpr MetricDef kTails[] = {
    {"update_p99_us", "us"},
    {"read_p99_us", "us"},
    {"max_rate_rps", "1/s"},
};

constexpr MetricDef kPerLayer[] = {
    {"alloc.self_ns_per_update", "ns"},
    {"release.self_ns_per_update", "ns"},
    {"release.moves_per_update", "count"},
    {"release.reorder_moves_per_update", "count"},
    {"release.move_ns", "ns"},
    {"release.queries_per_update", "count"},
    {"core.self_ns_per_update", "ns"},
    {"arena.self_ns_per_update", "ns"},
    {"arena.flush_ns_per_update", "ns"},
    {"arena.bytes_per_update", "B"},
    {"arena.gb_per_s", "GB/s"},
    {"shard.parallel_eff", "ratio"},
    {"shard.straggler_ratio", "ratio"},
    {"shard.serial_frac", "ratio"},
    {"shard.imbalance", "ratio"},
    {"serve.submit_ns_p50", "ns"},
    {"serve.submit_ns_p99", "ns"},
    {"serve.complete_us_p50", "us"},
    {"serve.complete_us_p99", "us"},
    {"serve.handoff_us", "us"},
    {"serve.queue_high_water", "count"},
    {"serve.read_call_ns_p99", "ns"},
    {"loadgen.lag_us_p99", "us"},
    {"loadgen.achieved_over_offered", "ratio"},
    {"workload.gen_s", "s"},
    {"workload.live_items", "count"},
    {"workload.live_bytes", "B"},
    {"trace.overhead_frac", "ratio"},
    {"tail.update_p99_us", "us"},
    {"tail.read_p99_us", "us"},
    {"tail.max_rate_rps", "1/s"},
};

using Values = std::map<std::string, double>;

template <std::size_t N>
std::vector<Metric> emit(const MetricDef (&defs)[N], const Values& values) {
  std::vector<Metric> out;
  for (const MetricDef& d : defs) {
    const auto it = values.find(d.name);
    out.push_back({d.name, it == values.end() ? 0.0 : it->second, d.unit});
  }
  return out;
}

double seconds_between(std::int64_t t0, std::int64_t t1) {
  return static_cast<double>(t1 - t0) / 1e9;
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return percentile(xs, 50.0);
}

double first_quartile(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return percentile(xs, 25.0);
}

/// Records a failure: counted against the attempted operations and
/// reported by name.
void fail(Result& r, const std::string& what) {
  r.correct = false;
  ++r.failed;
  if (r.errors.size() < 20) r.errors.push_back(what);
}

/// Shard s's allocator seed, derived exactly as ShardedEngine derives it
/// (shard 0 verbatim, SplitMix64 streams above); the cost bit-identity
/// checks catch any drift.
std::uint64_t shard_seed(std::uint64_t base, std::size_t shard) {
  if (shard == 0) return base;
  return memreal::SplitMix64(base + 0x9E3779B97F4A7C15ULL *
                                        static_cast<std::uint64_t>(shard))
      .next();
}

Sequence generate(const WorkloadSpec& spec, std::size_t updates,
                  std::uint64_t seed) {
  const AllocatorInfo info = memreal::allocator_info(spec.allocator);
  memreal::ScenarioParams p = memreal::scenario_params_for(
      info, spec.eps, spec.shard_capacity, updates, seed);
  p.capacity = spec.shard_capacity * spec.shards;
  if (spec.shards > 1) p.target_load = kShardedLoad;
  return memreal::make_scenario(spec.scenario, p);
}

CellConfig cell_config(const WorkloadSpec& spec, std::uint64_t seed) {
  CellConfig c;
  c.engine = "release";
  c.allocator = spec.allocator;
  c.params.eps = spec.eps;
  c.params.seed = seed;
  c.arena = spec.arena;
  return c;
}

ShardedConfig sharded_config(const WorkloadSpec& spec, std::uint64_t seed) {
  ShardedConfig c;
  c.engine = "release";
  c.allocator = spec.allocator;
  c.params.eps = spec.eps;
  c.params.seed = seed;
  c.shards = spec.shards;
  c.shard_capacity = spec.shard_capacity;
  c.eps = spec.eps;
  c.threads = std::min<std::size_t>(
      spec.shards, std::max(1u, std::thread::hardware_concurrency()));
  c.arena = spec.arena;
  return c;
}

memreal::Tick eps_ticks(const WorkloadSpec& spec) {
  return memreal::Eps::of(spec.eps, spec.shard_capacity).ticks;
}

/// The shard every update of `seq` lands on, from the batch path's own
/// admission logic (a routing-only ShardedEngine without arenas).
std::vector<std::uint32_t> route_split(ShardedConfig config,
                                       const Sequence& seq) {
  config.arena = false;
  config.threads = 1;
  ShardedEngine router(config);
  std::vector<std::uint32_t> out;
  out.reserve(seq.size());
  for (const Update& u : seq.updates) {
    out.push_back(static_cast<std::uint32_t>(router.route_update(u)));
  }
  return out;
}

Sequence slice(const Sequence& seq, std::size_t from, std::size_t to) {
  Sequence out;
  out.name = seq.name;
  out.capacity = seq.capacity;
  out.eps = seq.eps;
  out.eps_ticks = seq.eps_ticks;
  out.bytes_per_tick = seq.bytes_per_tick;
  out.updates.assign(seq.updates.begin() + static_cast<std::ptrdiff_t>(from),
                     seq.updates.begin() + static_cast<std::ptrdiff_t>(to));
  return out;
}

/// RunStats equality on every deterministic field (wall and decision
/// seconds are measured, not replayed).
bool same_stats(RunStats a, RunStats b) {
  a.wall_seconds = b.wall_seconds = 0.0;
  a.decision_seconds = b.decision_seconds = 0.0;
  return a.to_json().dump() == b.to_json().dump();
}

/// Live ids by submission order, for choosing read targets.
class LiveSet {
 public:
  void apply(const Update& u) {
    if (u.is_insert()) {
      pos_[u.id] = ids_.size();
      ids_.push_back(u.id);
    } else {
      const std::size_t i = pos_.at(u.id);
      pos_[ids_.back()] = i;
      ids_[i] = ids_.back();
      ids_.pop_back();
      pos_.erase(u.id);
    }
  }
  [[nodiscard]] ItemId pick(Rng& rng) const {
    return ids_[rng.next_below(ids_.size())];
  }

 private:
  std::vector<ItemId> ids_;
  std::unordered_map<ItemId, std::size_t> pos_;
};

/// A neighbour answer is consistent when neither side is the item itself
/// and the two sides are ordered and disjoint.
bool neighbours_consistent(ItemId id, const LayoutStore::Neighbors& n) {
  if (n.prev && n.prev->id == id) return false;
  if (n.next && n.next->id == id) return false;
  return !(n.prev && n.next && n.prev->offset + n.prev->extent > n.next->offset);
}

/// Reads live items on batch stores (`targets` names each read's store
/// and item), appends each read's time, and then checks every answer
/// against the store's own placement of the item.
void read_live(
    const std::vector<std::pair<const LayoutStore*, ItemId>>& targets,
    std::vector<double>& us, Result& r) {
  for (const auto& [mem, id] : targets) {
    const std::int64_t t0 = now_ns();
    const bool found = mem->contains(id);
    const LayoutStore::Neighbors n = mem->neighbors_of(id);
    us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    const Tick at = mem->offset_of(id);
    const bool ok = found && neighbours_consistent(id, n) &&
                    (!n.prev || n.prev->offset + n.prev->extent <= at) &&
                    (!n.next || at + mem->extent_of(id) <= n.next->offset);
    ++r.attempted;
    if (!ok) fail(r, "read of live item " + std::to_string(id) + " was wrong");
  }
}

void put_layers(Values& v, const LayerTotals& t) {
  const double n = static_cast<double>(std::max<std::uint64_t>(1, t.updates));
  v["alloc.self_ns_per_update"] = t.alloc_self_ns() / n;
  v["release.self_ns_per_update"] = t.release_self_ns() / n;
  v["release.moves_per_update"] = static_cast<double>(t.release.moves) / n;
  v["release.reorder_moves_per_update"] =
      static_cast<double>(t.release.reorder_moves) / n;
  v["release.move_ns"] =
      t.release.moves == 0
          ? 0.0
          : t.release.move_ns / static_cast<double>(t.release.moves);
  v["release.queries_per_update"] = static_cast<double>(t.release.queries) / n;
  v["core.self_ns_per_update"] = t.core_self_ns() / n;
  if (t.has_arena) {
    const double self = t.arena_self_ns();
    v["arena.self_ns_per_update"] = self / n;
    v["arena.flush_ns_per_update"] =
        (t.arena.end_update_ns - t.release.end_update_ns) / n;
    v["arena.bytes_per_update"] = static_cast<double>(t.arena_bytes) / n;
    v["arena.gb_per_s"] =
        self > 0.0 ? static_cast<double>(t.arena_bytes) / self : 0.0;
  }
}

void write_spans(const Options& o, const std::vector<const SpanLog*>& logs,
                 std::int64_t origin, Result& r) {
  if (o.trace_dir.empty()) return;
  const std::string path = o.trace_dir + "/" + o.workload + "-seed" +
                           std::to_string(o.seed) + ".trace.json";
  if (!write_chrome_trace(path, logs, origin)) {
    r.errors.push_back("could not write " + path);
  }
}

/// Notes a timing series: sample count, median, and the highest
/// percentile that has at least ten samples beyond it.
void note_timing(Result& r, const std::string& what, const TailSummary& s) {
  std::ostringstream line;
  line << what << ": n=" << s.n << ", p50 " << s.p50 << " us, p" << s.tail_p
       << " " << s.tail << " us";
  r.notes.push_back(line.str());
}

/// Passes in this run: an untraced run repeats set-up and timed phase
/// kPasses times on the identical input and reports medians; a traced run
/// makes one pass and then its traced replay.
int passes(const Options& o) { return o.trace ? 1 : kPasses; }

/// Per-metric median over the passes.
Values median_over(const std::vector<Values>& per_pass) {
  std::map<std::string, std::vector<double>> all;
  for (const Values& v : per_pass) {
    for (const auto& [k, x] : v) all[k].push_back(x);
  }
  Values out;
  for (const auto& [k, xs] : all) out[k] = median(xs);
  return out;
}

// -- geo_churn ---------------------------------------------------------------

void run_geo(const WorkloadSpec& spec, const Options& o, Result& r,
             Values& e2e, Values& layers) {
  const auto updates = static_cast<std::size_t>(
      o.seconds * kGeoUpdatesPerSecond / passes(o));
  const CellConfig config = cell_config(spec, o.seed);
  std::vector<Values> per_pass;
  std::vector<double> setup_times;
  std::vector<double> first_costs;
  for (int pass = 0; pass < passes(o); ++pass) {
    const std::int64_t t_setup = now_ns();
    const Sequence seq = generate(spec, updates, o.seed);
    const double gen_s = seconds_between(t_setup, now_ns());
    const std::size_t fill = seq.size() - updates;
    const auto cell =
        memreal::make_cell(spec.shard_capacity, eps_ticks(spec), config);
    std::vector<double> costs;
    costs.reserve(seq.size());
    for (std::size_t i = 0; i < fill; ++i) {
      costs.push_back(cell->step(seq.updates[i]));
    }
    setup_times.push_back(seconds_between(t_setup, now_ns()));
    r.attempted += fill;
    LiveSet live;
    for (std::size_t i = 0; i < fill; ++i) live.apply(seq.updates[i]);
    layers["workload.gen_s"] = gen_s;
    layers["workload.live_items"] =
        static_cast<double>(cell->memory().item_count());

    Rng rng(o.seed ^ 0x5eadULL);
    std::vector<double> step_us;
    std::vector<double> read_us;
    std::vector<std::pair<const LayoutStore*, ItemId>> targets;
    std::size_t reads = 0;
    step_us.reserve(updates);
    const std::int64_t start = now_ns();
    for (std::size_t i = fill; i < seq.size(); ++i) {
      const Update& u = seq.updates[i];
      const std::int64_t t0 = now_ns();
      costs.push_back(cell->step(u));
      step_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
      live.apply(u);
      // Reads come in a burst after every round of updates, as on
      // vm_heap_sharded.
      if ((i + 1 - fill) % kRound == 0) {
        targets.clear();
        for (std::size_t j = 0; j < kRound / kUpdatesPerRead; ++j) {
          targets.emplace_back(&cell->memory(), live.pick(rng));
        }
        read_live(targets, read_us, r);
        reads += targets.size();
      }
    }
    const double wall = seconds_between(start, now_ns());
    r.attempted += updates;
    cell->audit();
    if (pass == 0) {
      first_costs = costs;
    } else if (costs != first_costs) {
      fail(r, "pass " + std::to_string(pass) + " costs differ from pass 0");
    }

    double step_total_us = 0.0;
    for (const double x : step_us) step_total_us += x;
    std::vector<double> sorted_costs = costs;
    const TailSummary step = summarize(step_us);
    const TailSummary read = summarize(read_us);
    if (pass == 0) {
      note_timing(r, "pass 0 Cell::step", step);
      note_timing(r, "pass 0 read", read);
    }
    Values v;
    v["updates_per_s"] = static_cast<double>(updates) / (step_total_us / 1e6);
    v["update_p50_us"] = step.p50;
    v["update_p99_us"] = step.p99;
    v["read_p50_us"] = read.p50;
    v["read_p99_us"] = read.p99;
    v["max_rate_rps"] = static_cast<double>(updates + reads) / wall;
    v["mean_cost"] = cell->stats().mean_cost();
    v["cost_p99"] = summarize(sorted_costs).p99;
    v["moved_bytes_per_user_byte"] = cell->stats().ratio_cost();
    per_pass.push_back(v);
    if (!o.trace) continue;

    // Traced replay of the same stream; its costs must match bit for bit.
    SpanLog spans;
    TracedCell traced(spec.shard_capacity, eps_ticks(spec), config, &spans,
                      0);
    for (std::size_t i = 0; i < seq.size(); ++i) {
      if (i == fill) traced.reset_totals();
      if (traced.step(seq.updates[i], i) != costs[i]) {
        fail(r, "traced cost differs at update " + std::to_string(i));
        break;
      }
    }
    traced.audit();
    const LayerTotals t = traced.totals();
    put_layers(layers, t);
    layers["trace.overhead_frac"] = 1.0 - step_total_us * 1e3 / t.step_ns;
    write_spans(o, {&spans}, start, r);
  }
  e2e = median_over(per_pass);
  e2e["setup_s"] = median(setup_times);
}

// -- vm_heap_sharded ---------------------------------------------------------

/// Each shard's cumulative apply wall and update count.
struct ShardClock {
  std::vector<double> wall;
  std::vector<std::size_t> updates;
};

ShardClock shard_clock(ShardedEngine& engine) {
  ShardClock out;
  for (std::size_t s = 0; s < engine.shard_count(); ++s) {
    const RunStats& stats = engine.cell(s).stats();
    out.wall.push_back(stats.wall_seconds);
    out.updates.push_back(stats.updates);
  }
  return out;
}

/// The traced replay of vm_heap_sharded: the same per-shard streams
/// through proxied arena cells, one thread per shard meeting at a barrier
/// after the fill and after every round, as ShardedEngine's rounds do.
/// Returns the summed layer totals; each shard's statistics must equal
/// `untraced`.
LayerTotals traced_vm(const WorkloadSpec& spec, const Options& o,
                      const ShardedConfig& config, const Sequence& seq,
                      std::size_t fill, const std::vector<RunStats>& untraced,
                      std::int64_t origin, const SpanLog& batches,
                      Result& r) {
  const std::vector<std::uint32_t> split = route_split(config, seq);
  const std::size_t shards = spec.shards;
  std::vector<std::unique_ptr<TracedCell>> cells;
  std::vector<std::unique_ptr<SpanLog>> logs;
  for (std::size_t s = 0; s < shards; ++s) {
    logs.push_back(std::make_unique<SpanLog>());
    cells.push_back(std::make_unique<TracedCell>(
        spec.shard_capacity, eps_ticks(spec),
        cell_config(spec, shard_seed(o.seed, s)), logs[s].get(),
        static_cast<std::uint32_t>(s + 1)));
  }
  std::vector<std::string> errors(shards);
  {
    std::barrier sync(static_cast<std::ptrdiff_t>(shards));
    std::vector<std::thread> threads;
    for (std::size_t s = 0; s < shards; ++s) {
      threads.emplace_back([&, s] {
        // A failed shard keeps meeting the barrier so the others finish.
        const auto apply = [&](std::size_t from, std::size_t to) {
          for (std::size_t i = from; i < to && errors[s].empty(); ++i) {
            if (split[i] != s) continue;
            try {
              cells[s]->step(seq.updates[i], i);
            } catch (const std::exception& e) {
              errors[s] = e.what();
            }
          }
          sync.arrive_and_wait();
        };
        apply(0, fill);
        cells[s]->reset_totals();
        for (std::size_t i = fill; i < seq.size(); i += kRound) {
          apply(i, std::min(i + kRound, seq.size()));
        }
        if (errors[s].empty()) {
          try {
            cells[s]->audit();
          } catch (const std::exception& e) {
            errors[s] = e.what();
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  LayerTotals total;
  for (std::size_t s = 0; s < shards; ++s) {
    if (!errors[s].empty()) {
      fail(r, "traced shard " + std::to_string(s) + ": " + errors[s]);
    }
    if (!same_stats(cells[s]->stats(), untraced[s])) {
      fail(r, "traced shard " + std::to_string(s) +
                  " costs differ from the untraced run");
    }
    total += cells[s]->totals();
  }
  std::vector<const SpanLog*> all{&batches};
  for (const auto& l : logs) all.push_back(l.get());
  write_spans(o, all, origin, r);
  return total;
}

void run_vm(const WorkloadSpec& spec, const Options& o, Result& r,
            Values& e2e, Values& layers) {
  const auto updates = std::max<std::size_t>(
      kRound, static_cast<std::size_t>(o.seconds * kVmUpdatesPerSecond /
                                         passes(o)));
  const ShardedConfig config = sharded_config(spec, o.seed);
  std::vector<Values> per_pass;
  std::vector<double> setup_times;
  std::vector<RunStats> first_stats;
  for (int pass = 0; pass < passes(o); ++pass) {
    const std::int64_t t_setup = now_ns();
    const Sequence seq = generate(spec, updates, o.seed);
    const double gen_s = seconds_between(t_setup, now_ns());
    const std::size_t fill = seq.size() - updates;
    auto engine = std::make_unique<ShardedEngine>(config);
    engine->run(slice(seq, 0, fill));
    std::vector<Sequence> rounds;
    for (std::size_t i = fill; i < seq.size(); i += kRound) {
      rounds.push_back(slice(seq, i, std::min(i + kRound, seq.size())));
    }
    setup_times.push_back(seconds_between(t_setup, now_ns()));
    r.attempted += fill;
    LiveSet live;
    for (std::size_t i = 0; i < fill; ++i) live.apply(seq.updates[i]);
    std::size_t live_items = 0;
    Tick live_bytes = 0;
    for (std::size_t s = 0; s < engine->shard_count(); ++s) {
      live_items += engine->memory(s).item_count();
      live_bytes += engine->memory(s).live_mass() * config.bytes_per_tick;
    }
    layers["workload.gen_s"] = gen_s;
    layers["workload.live_items"] = static_cast<double>(live_items);
    layers["workload.live_bytes"] = static_cast<double>(live_bytes);
    const std::vector<double> fill_walls = shard_clock(*engine).wall;

    Rng rng(o.seed ^ 0x5eadULL);
    SpanLog batches;
    std::vector<double> update_us;
    std::vector<double> read_us;
    std::vector<std::pair<const LayoutStore*, ItemId>> targets;
    std::size_t reads = 0;
    double round_total = 0.0;
    double straggler_weighted = 0.0;
    double serial_total = 0.0;
    ShardClock before = shard_clock(*engine);
    const std::int64_t start = now_ns();
    for (std::size_t k = 0; k < rounds.size(); ++k) {
      const Sequence& round = rounds[k];
      const std::int64_t t0 = now_ns();
      engine->run(round);
      const std::int64_t t1 = now_ns();
      const double wall = seconds_between(t0, t1);
      round_total += wall;
      // An update's latency: its shard's apply wall in this round over the
      // updates the shard applied in it.
      const ShardClock after = shard_clock(*engine);
      double max_shard = 0.0;
      double sum_shard = 0.0;
      for (std::size_t s = 0; s < after.wall.size(); ++s) {
        const double apply = after.wall[s] - before.wall[s];
        const std::size_t applied = after.updates[s] - before.updates[s];
        if (applied != 0) {
          update_us.push_back(apply * 1e6 / static_cast<double>(applied));
        }
        max_shard = std::max(max_shard, apply);
        sum_shard += apply;
      }
      before = after;
      if (o.trace) {
        batches.add(SpanKind::kBatch, 0, k, t0, t1);
        const double mean_shard =
            sum_shard / static_cast<double>(after.wall.size());
        if (mean_shard > 0.0) {
          straggler_weighted += max_shard / mean_shard * wall;
        }
        serial_total += std::max(0.0, wall - max_shard);
      }
      for (const Update& u : round.updates) live.apply(u);
      targets.clear();
      for (std::size_t j = 0; j < round.size() / kUpdatesPerRead; ++j) {
        const ItemId id = live.pick(rng);
        targets.emplace_back(&engine->memory(engine->shard_of(id)), id);
      }
      read_live(targets, read_us, r);
      reads += targets.size();
    }
    const double loop_wall = seconds_between(start, now_ns());
    r.attempted += updates;
    engine->audit();

    const ShardedRunStats stats = engine->stats();
    if (pass == 0) {
      first_stats = stats.per_shard;
    } else {
      for (std::size_t s = 0; s < first_stats.size(); ++s) {
        if (!same_stats(stats.per_shard[s], first_stats[s])) {
          fail(r, "pass " + std::to_string(pass) + " shard " +
                      std::to_string(s) + " costs differ from pass 0");
        }
      }
    }
    Tick user_bytes = 0;
    for (const Update& u : seq.updates) {
      user_bytes +=
          u.size_bytes != 0 ? u.size_bytes : u.size * config.bytes_per_tick;
    }
    memreal::Quantiles all_costs;  // RunStats::merge keeps moments only
    for (const RunStats& s : stats.per_shard) {
      all_costs.merge(s.cost_quantiles);
    }
    const TailSummary upd = summarize(update_us);
    const TailSummary read = summarize(read_us);
    if (pass == 0) {
      note_timing(r, "pass 0 update (shard apply wall per update)", upd);
      note_timing(r, "pass 0 read", read);
    }
    Values v;
    v["updates_per_s"] = static_cast<double>(updates) / round_total;
    v["update_p50_us"] = upd.p50;
    v["update_p99_us"] = upd.p99;
    v["read_p50_us"] = read.p50;
    v["read_p99_us"] = read.p99;
    v["max_rate_rps"] = static_cast<double>(updates + reads) / loop_wall;
    v["mean_cost"] = stats.global.mean_cost();
    v["cost_p99"] = all_costs.quantile(0.99);
    v["moved_bytes_per_user_byte"] =
        static_cast<double>(stats.global.moved_bytes) /
        static_cast<double>(user_bytes);
    per_pass.push_back(v);
    if (!o.trace) continue;

    double apply_sum = 0.0;
    const std::vector<double> end_walls = shard_clock(*engine).wall;
    for (std::size_t s = 0; s < end_walls.size(); ++s) {
      apply_sum += end_walls[s] - fill_walls[s];
    }
    layers["shard.parallel_eff"] =
        apply_sum /
        (static_cast<double>(engine->thread_count()) * round_total);
    layers["shard.straggler_ratio"] = straggler_weighted / round_total;
    layers["shard.serial_frac"] = serial_total / round_total;
    layers["shard.imbalance"] = stats.imbalance();
    engine.reset();  // the traced arenas must not coexist with these
    const LayerTotals t = traced_vm(spec, o, config, seq, fill,
                                    stats.per_shard, start, batches, r);
    put_layers(layers, t);
    layers["trace.overhead_frac"] = 1.0 - apply_sum * 1e9 / t.step_ns;
  }
  e2e = median_over(per_pass);
  e2e["setup_s"] = median(setup_times);
}

// -- serve_mixed -------------------------------------------------------------

struct ServeOp {
  enum Kind : std::uint8_t { kUpdate, kRead };
  Kind kind = kUpdate;
  /// kUpdate: the update's slot among the timed updates.  Reads: the
  /// target id.
  std::uint64_t index = 0;
  /// Reads: slot of the target's insert, or -1 when it was in the fill.
  std::int64_t insert_slot = -1;
};

struct Rung {
  double rate = 0.0;
  std::size_t first = 0;  ///< first op
  std::size_t ops = 0;
};

/// The generated input of serve_mixed: the update stream plus the op
/// schedule that interleaves reads with it, rung by rung.
struct ServeInput {
  Sequence seq;
  std::size_t fill = 0;
  std::vector<ServeOp> ops;
  std::vector<Rung> rungs;
  /// Update slot of the first burst update: the unpaced bursts that follow
  /// the ladder take the last kServeBursts * burst_updates timed updates.
  std::size_t burst_first = 0;
  std::size_t burst_updates = 0;
};

ServeInput make_serve_input(const WorkloadSpec& spec, const Options& o) {
  ServeInput in;
  const double rung_seconds = o.seconds / passes(o) * (1 - kServeBurstShare) /
                              static_cast<double>(std::size(kServeLadder));
  Rng kinds(o.seed ^ 0x0b5ULL);
  std::size_t updates = 0;
  for (const double rate : kServeLadder) {
    const Rung rung{rate, in.ops.size(),
                    static_cast<std::size_t>(rate * rung_seconds)};
    for (std::size_t j = 0; j < rung.ops; ++j) {
      ServeOp op;
      if (kinds.next_below(kUpdatesPerRead + 1) == 0) {
        op.kind = ServeOp::kRead;
      } else {
        op.index = updates++;
      }
      in.ops.push_back(op);
    }
    in.rungs.push_back(rung);
  }
  in.burst_first = updates;
  in.burst_updates = std::max<std::size_t>(
      1, static_cast<std::size_t>(o.seconds / passes(o) * kServeBurstShare *
                                  kServeBurstUpdatesPerSecond / kServeBursts));
  updates += kServeBursts * in.burst_updates;
  in.seq = generate(spec, updates, o.seed);
  in.fill = in.seq.size() - updates;

  LiveSet live;
  std::unordered_map<ItemId, std::int64_t> insert_slot;
  for (std::size_t i = 0; i < in.fill; ++i) live.apply(in.seq.updates[i]);
  Rng targets(o.seed ^ 0x7a6eULL);
  for (ServeOp& op : in.ops) {
    if (op.kind == ServeOp::kUpdate) {
      const Update& u = in.seq.updates[in.fill + op.index];
      live.apply(u);
      if (u.is_insert()) {
        insert_slot[u.id] = static_cast<std::int64_t>(op.index);
      } else {
        insert_slot.erase(u.id);
      }
    } else {
      op.index = live.pick(targets);
      const auto it = insert_slot.find(op.index);
      op.insert_slot = it == insert_slot.end() ? -1 : it->second;
    }
  }
  return in;
}

/// Per-rung outcome.
struct RungResult {
  double rate = 0.0;
  double achieved = 0.0;          ///< ops / rung wall
  double achieved_updates = 0.0;  ///< updates / rung wall
  TailSummary update;             ///< from due time, us
  TailSummary read;               ///< from due time, us
  TailSummary lag;                ///< us
  std::size_t end_backlog = 0;
  std::size_t high_water = 0;  ///< most requests in flight at a send
  std::uint64_t failed = 0;
  /// p99 of each kWindowNs window of the rung (by due time).
  std::vector<double> window_update_p99, window_read_p99, window_lag_p99;
};

/// One pass over the ladder, with the timestamps the traced run needs.
struct LadderRun {
  std::vector<RungResult> rungs;
  std::vector<double> costs;  ///< per timed update
  std::vector<std::int64_t> due, sent, returned;  ///< per op
  std::vector<std::int64_t> done;                 ///< per update slot
  std::vector<std::size_t> op_slot;               ///< per op
  std::vector<double> burst_rates;  ///< completions per second, per burst
};

/// Drives the ladder open loop from this thread alone: it sends each op at
/// its due time and, while waiting for the next one, polls the
/// outstanding futures for completions.  (A separate spinning collector
/// would make four busy threads on a four-core host, and any other
/// process then preempts one of them mid-rung.)
LadderRun run_ladder(ServingEngine& serve, const ServeInput& in, Result& r) {
  const std::size_t updates = in.seq.size() - in.fill;
  const std::size_t n_ops = in.ops.size();
  LadderRun run;
  run.costs.assign(updates, 0.0);
  run.due.assign(n_ops, 0);
  run.sent.assign(n_ops, 0);
  run.returned.assign(n_ops, 0);
  run.done.assign(updates, 0);
  run.op_slot.assign(n_ops, 0);
  std::vector<std::future<double>> futures(updates);
  std::vector<std::uint8_t> read_failed(n_ops, 0);
  std::size_t slot = 0;
  std::size_t head = 0;
  std::size_t completed = 0;
  const auto poll = [&] {
    const std::size_t end = std::min(slot, head + 64);
    for (std::size_t k = head; k < end; ++k) {
      if (run.done[k] != 0 || futures[k].wait_for(std::chrono::seconds(0)) !=
                                  std::future_status::ready) {
        continue;
      }
      run.done[k] = now_ns();
      try {
        run.costs[k] = futures[k].get();
      } catch (const std::exception& e) {
        fail(r, std::string("serve request failed: ") + e.what());
      }
      ++completed;
    }
    while (head < slot && run.done[head] != 0) ++head;
  };

  for (const Rung& rung : in.rungs) {
    RungResult rr;
    rr.rate = rung.rate;
    const double period_ns = 1e9 / rung.rate;
    const std::int64_t t_start = now_ns() + 200'000;
    for (std::size_t j = 0; j < rung.ops; ++j) {
      const std::size_t i = rung.first + j;
      const ServeOp& op = in.ops[i];
      run.due[i] = t_start + static_cast<std::int64_t>(
                                 static_cast<double>(j) * period_ns);
      while (now_ns() < run.due[i]) poll();
      run.sent[i] = now_ns();
      if (op.kind == ServeOp::kUpdate) {
        futures[slot] = serve.submit(in.seq.updates[in.fill + op.index]);
        run.returned[i] = now_ns();
        run.op_slot[i] = slot++;
        rr.high_water = std::max(rr.high_water, slot - completed);
        continue;
      }
      // The target's delete is not sent yet, so once its insert is known
      // to be applied the read must find it.
      const bool applied =
          op.insert_slot < 0 ||
          run.done[static_cast<std::size_t>(op.insert_slot)] != 0;
      const bool found = serve.contains(op.index);
      const auto n = serve.neighbors_of(op.index);
      run.returned[i] = now_ns();
      const bool ok = (found || !applied) &&
                      (n ? neighbours_consistent(op.index, *n) : !applied);
      if (!ok) read_failed[i] = 1;
    }
    rr.end_backlog = slot - completed;
    while (completed != slot) poll();
    run.rungs.push_back(rr);
  }
  r.attempted += n_ops;

  for (std::size_t b = 0; b < kServeBursts; ++b) {
    const std::size_t first = in.burst_first + b * in.burst_updates;
    const std::size_t last = first + in.burst_updates;
    const std::int64_t t0 = now_ns();
    for (std::size_t k = first; k < last; ++k) {
      futures[k] = serve.submit(in.seq.updates[in.fill + k]);
    }
    for (std::size_t k = first; k < last; ++k) {
      try {
        run.costs[k] = futures[k].get();
      } catch (const std::exception& e) {
        fail(r, std::string("serve request failed: ") + e.what());
      }
    }
    const std::int64_t t1 = now_ns();
    for (std::size_t k = first; k < last; ++k) run.done[k] = t1;
    run.burst_rates.push_back(static_cast<double>(in.burst_updates) /
                              seconds_between(t0, t1));
  }
  r.attempted += kServeBursts * in.burst_updates;

  for (std::size_t k = 0; k < run.rungs.size(); ++k) {
    RungResult& rr = run.rungs[k];
    const Rung& rung = in.rungs[k];
    std::vector<double> upd, rd, lag;
    // The last window absorbs the remainder of the rung.
    const auto windows = static_cast<std::size_t>(std::max<std::int64_t>(
        1, static_cast<std::int64_t>(static_cast<double>(rung.ops) /
                                     rung.rate * 1e9) /
               kWindowNs));
    std::vector<std::vector<double>> w_upd(windows), w_rd(windows),
        w_lag(windows);
    std::int64_t last = 0;
    std::size_t rung_updates = 0;
    for (std::size_t i = rung.first; i < rung.first + rung.ops; ++i) {
      const std::size_t w = std::min<std::size_t>(
          windows - 1,
          static_cast<std::size_t>((run.due[i] - run.due[rung.first]) /
                                   kWindowNs));
      lag.push_back(static_cast<double>(run.sent[i] - run.due[i]) / 1e3);
      w_lag[w].push_back(lag.back());
      if (in.ops[i].kind == ServeOp::kUpdate) {
        const std::int64_t d = run.done[run.op_slot[i]];
        upd.push_back(static_cast<double>(d - run.due[i]) / 1e3);
        w_upd[w].push_back(upd.back());
        last = std::max(last, d);
        ++rung_updates;
        continue;
      }
      rd.push_back(static_cast<double>(run.returned[i] - run.due[i]) / 1e3);
      w_rd[w].push_back(rd.back());
      last = std::max(last, run.returned[i]);
      if (read_failed[i] != 0) {
        ++rr.failed;
        fail(r, "read of live item " + std::to_string(in.ops[i].index) +
                    " was wrong");
      }
    }
    const double wall = seconds_between(run.due[rung.first], last);
    rr.achieved = static_cast<double>(rung.ops) / wall;
    rr.achieved_updates = static_cast<double>(rung_updates) / wall;
    rr.update = summarize(upd);
    rr.read = summarize(rd);
    rr.lag = summarize(lag);
    for (std::size_t w = 0; w < windows; ++w) {
      rr.window_update_p99.push_back(summarize(w_upd[w]).p99);
      rr.window_read_p99.push_back(summarize(w_rd[w]).p99);
      rr.window_lag_p99.push_back(summarize(w_lag[w]).p99);
    }
  }
  return run;
}

/// One rung's verdict over all passes.  Its p99s are first quartiles over
/// the rung's kWindowNs windows of every pass.  The hypervisor of a shared
/// virtual host deschedules vCPUs for milliseconds several times a second;
/// one such stall pushes ~1% of a whole rung's requests past the limit,
/// but it spoils only the windows it falls in, and in a busy period it
/// spoils most of them.  The first quartile over windows measures the
/// serving path rather than the host.  Whole-rung p99s are printed beside
/// it and reported by the traced run.
struct RungVerdict {
  double rate = 0.0;
  double update_p99 = 0.0;
  double read_p99 = 0.0;
  double lag_p99 = 0.0;
  std::vector<double> rung_update_p99;  ///< whole-rung p99 of each pass
  double end_backlog = 0.0;
  std::uint64_t failed = 0;
  bool valid = true;
  bool pass = false;
};

std::vector<RungVerdict> verdicts(
    const std::vector<std::vector<RungResult>>& ladders) {
  std::vector<RungVerdict> out;
  for (std::size_t k = 0; k < ladders.front().size(); ++k) {
    RungVerdict v;
    std::vector<double> p99, read_p99, lag, backlog;
    for (const auto& ladder : ladders) {
      const RungResult& rr = ladder[k];
      v.rate = rr.rate;
      p99.insert(p99.end(), rr.window_update_p99.begin(),
                 rr.window_update_p99.end());
      read_p99.insert(read_p99.end(), rr.window_read_p99.begin(),
                      rr.window_read_p99.end());
      lag.insert(lag.end(), rr.window_lag_p99.begin(), rr.window_lag_p99.end());
      backlog.push_back(static_cast<double>(rr.end_backlog));
      v.failed += rr.failed;
    }
    v.update_p99 = first_quartile(p99);
    v.read_p99 = first_quartile(read_p99);
    v.lag_p99 = first_quartile(lag);
    v.end_backlog = median(backlog);
    for (const auto& ladder : ladders) {
      v.rung_update_p99.push_back(ladder[k].update.p99);
    }
    v.valid = v.lag_p99 <= kUpdateP99LimitUs &&
              v.end_backlog <= static_cast<double>(kMaxEndBacklog);
    v.pass = v.valid && v.failed == 0 && v.update_p99 <= kUpdateP99LimitUs;
    out.push_back(v);
  }
  return out;
}

/// Where update p99 crosses the limit: log-linear in p99 between the
/// highest rung that meets the limit and the rung above it, so run-to-run
/// noise moves the figure smoothly instead of by whole rungs.  The rung
/// above counts as missing the limit even when it is invalid for lag or
/// backlog with a p99 under it.  0 when no rung meets the limit.
double max_rate(const std::vector<RungVerdict>& rungs) {
  std::size_t best = rungs.size();
  for (std::size_t k = 0; k < rungs.size(); ++k) {
    if (rungs[k].pass) best = k;
  }
  if (best >= rungs.size()) return 0.0;
  const RungVerdict& lo = rungs[best];
  if (best + 1 == rungs.size()) return lo.rate;
  const RungVerdict& hi = rungs[best + 1];
  const double p_lo = std::max(lo.update_p99, 1e-3);
  const double p_hi = std::max(hi.update_p99, kUpdateP99LimitUs * 1.001);
  const double frac = std::clamp(
      std::log(kUpdateP99LimitUs / p_lo) / std::log(p_hi / p_lo), 0.0, 1.0);
  return lo.rate + frac * (hi.rate - lo.rate);
}

std::string rung_line(const RungVerdict& v) {
  std::ostringstream line;
  line << "rung " << v.rate << " req/s: update p99 " << v.update_p99
       << " us (first quartile of windows; whole rung per pass:";
  for (const double p : v.rung_update_p99) line << " " << p;
  line << "), generator lag p99 " << v.lag_p99 << " us, end backlog "
       << v.end_backlog << ", "
       << (!v.valid ? "INVALID (backlog or lag grows)"
                    : v.pass ? "meets limit" : "misses limit");
  return line.str();
}

/// The traced part of serve_mixed: the serve-layer samples of the
/// reference rung, the shard layer of the batch run, and the stream
/// replayed per shard in sequence order, once through plain release cells
/// (the batch step time the handoff is measured against) and once through
/// traced cells (the layer breakdown).  Both replays must reproduce the
/// served costs bit for bit.
void trace_serve(const WorkloadSpec& spec, const Options& o,
                 const ShardedConfig& config, const ServeInput& in,
                 const std::vector<double>& all_costs, const LadderRun& run,
                 const ShardedRunStats& offline, double batch_wall,
                 std::size_t batch_threads, std::int64_t origin, Result& r,
                 Values& layers) {
  const std::size_t ref = static_cast<std::size_t>(
      std::find(std::begin(kServeLadder), std::end(kServeLadder),
                kReferenceRate) -
      std::begin(kServeLadder));
  const Rung& rung = in.rungs[ref];
  const RungResult& reference = run.rungs[ref];
  std::vector<double> submit_ns, complete_us, read_call_ns;
  std::vector<std::size_t> slots;
  SpanLog requests;
  for (std::size_t i = rung.first; i < rung.first + rung.ops; ++i) {
    if (in.ops[i].kind != ServeOp::kUpdate) {
      read_call_ns.push_back(
          static_cast<double>(run.returned[i] - run.sent[i]));
      continue;
    }
    const std::size_t slot = run.op_slot[i];
    submit_ns.push_back(static_cast<double>(run.returned[i] - run.sent[i]));
    complete_us.push_back(static_cast<double>(run.done[slot] - run.sent[i]) /
                          1e3);
    slots.push_back(slot);
    requests.add(SpanKind::kRequest, 0, slot, run.sent[i], run.done[slot]);
  }
  const std::vector<double> complete_in_order = complete_us;
  const TailSummary submit = summarize(submit_ns);
  const TailSummary complete = summarize(complete_us);
  layers["serve.submit_ns_p50"] = submit.p50;
  layers["serve.submit_ns_p99"] = submit.p99;
  layers["serve.complete_us_p50"] = complete.p50;
  layers["serve.complete_us_p99"] = complete.p99;
  layers["serve.queue_high_water"] = static_cast<double>(reference.high_water);
  layers["serve.read_call_ns_p99"] = summarize(read_call_ns).p99;
  layers["loadgen.lag_us_p99"] = reference.lag.p99;
  layers["loadgen.achieved_over_offered"] = reference.achieved / reference.rate;

  double sum = 0.0;
  double max_shard = 0.0;
  for (const RunStats& s : offline.per_shard) {
    sum += s.wall_seconds;
    max_shard = std::max(max_shard, s.wall_seconds);
  }
  const double shards = static_cast<double>(offline.per_shard.size());
  layers["shard.parallel_eff"] =
      sum / (static_cast<double>(batch_threads) * batch_wall);
  layers["shard.straggler_ratio"] = max_shard / (sum / shards);
  layers["shard.serial_frac"] = 1.0 - max_shard / batch_wall;
  layers["shard.imbalance"] = offline.imbalance();

  const std::vector<std::uint32_t> split = route_split(config, in.seq);
  std::vector<std::unique_ptr<Cell>> plain;
  std::vector<std::unique_ptr<TracedCell>> traced;
  SpanLog spans;
  for (std::size_t s = 0; s < spec.shards; ++s) {
    const CellConfig c = cell_config(spec, shard_seed(o.seed, s));
    plain.push_back(
        memreal::make_cell(spec.shard_capacity, eps_ticks(spec), c));
    traced.push_back(std::make_unique<TracedCell>(
        spec.shard_capacity, eps_ticks(spec), c, &spans,
        static_cast<std::uint32_t>(s + 1)));
  }
  const std::size_t updates = in.seq.size() - in.fill;
  std::vector<std::int64_t> step_ns(updates, 0);
  double plain_total = 0.0;
  for (std::size_t i = 0; i < in.seq.size(); ++i) {
    const std::int64_t t0 = now_ns();
    const double c = plain[split[i]]->step(in.seq.updates[i]);
    const std::int64_t t1 = now_ns();
    if (c != all_costs[i]) {
      fail(r, "batch replay cost differs at update " + std::to_string(i));
      break;
    }
    if (i >= in.fill) {
      step_ns[i - in.fill] = t1 - t0;
      plain_total += static_cast<double>(t1 - t0);
    }
  }
  for (std::size_t i = 0; i < in.seq.size(); ++i) {
    if (i == in.fill) {
      for (auto& t : traced) t->reset_totals();
    }
    if (traced[split[i]]->step(in.seq.updates[i], i) != all_costs[i]) {
      fail(r, "traced cost differs at update " + std::to_string(i));
      break;
    }
  }
  LayerTotals total;
  for (auto& t : traced) {
    t->audit();
    total += t->totals();
  }
  put_layers(layers, total);
  layers["trace.overhead_frac"] = 1.0 - plain_total / total.step_ns;
  std::vector<double> handoff;
  for (std::size_t k = 0; k < slots.size(); ++k) {
    handoff.push_back(complete_in_order[k] -
                      static_cast<double>(step_ns[slots[k]]) / 1e3);
  }
  layers["serve.handoff_us"] = summarize(handoff).p50;
  write_spans(o, {&requests, &spans}, origin, r);
}

/// Pins each thread the ServingEngine starts to one CPU, round-robin over
/// all allowed CPUs but the last, and the open-loop generator to the last
/// CPU alone.  The generator spins between sends, and a worker that the
/// scheduler parks on its CPU, or on the other worker's, waits a whole
/// time slice; without per-thread pinning, some runs' unpaced bursts ran
/// at ~400k instead of ~650k updates/s.  Construct it before the engine
/// and call pin() after: the threads started in between are taken in
/// start order (the ShardedEngine's idle pool first, then the shard
/// workers), so the two workers land on different CPUs.  restore() (or
/// the destructor) gives the calling thread its original mask back.  Does
/// nothing with fewer than three allowed CPUs.
class CpuPlan {
 public:
  CpuPlan() : threads_(thread_ids()) {
    if (sched_getaffinity(0, sizeof original_, &original_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
    }
  }
  ~CpuPlan() { restore(); }
  CpuPlan(const CpuPlan&) = delete;
  CpuPlan& operator=(const CpuPlan&) = delete;

  void pin() {
    if (cpus_.size() < 3) return;
    std::size_t k = 0;
    for (const int tid : thread_ids()) {
      if (std::binary_search(threads_.begin(), threads_.end(), tid)) continue;
      set_cpu(tid, cpus_[k++ % (cpus_.size() - 1)]);
    }
    active_ = set_cpu(0, cpus_.back());
  }
  void restore() {
    if (active_) sched_setaffinity(0, sizeof original_, &original_);
    active_ = false;
  }

 private:
  static std::vector<int> thread_ids() {
    std::vector<int> out;
    for (const auto& entry :
         std::filesystem::directory_iterator("/proc/self/task")) {
      out.push_back(std::stoi(entry.path().filename().string()));
    }
    std::sort(out.begin(), out.end());
    return out;
  }
  static bool set_cpu(int tid, int cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(tid, sizeof one, &one) == 0;
  }

  std::vector<int> threads_;  ///< before the engine, sorted
  std::vector<int> cpus_;
  cpu_set_t original_{};
  bool active_ = false;
};

void run_serve(const WorkloadSpec& spec, const Options& o, Result& r,
               Values& e2e, Values& layers) {
  const ShardedConfig config = sharded_config(spec, o.seed);
  const std::size_t ref = static_cast<std::size_t>(
      std::find(std::begin(kServeLadder), std::end(kServeLadder),
                kReferenceRate) -
      std::begin(kServeLadder));
  std::vector<Values> per_pass;
  std::vector<double> setup_times;
  std::vector<ShardedRunStats> online;
  std::vector<double> first_costs;
  std::vector<std::vector<RungResult>> ladders;
  for (int pass = 0; pass < passes(o); ++pass) {
    const std::int64_t t_setup = now_ns();
    const ServeInput in = make_serve_input(spec, o);
    layers["workload.gen_s"] = seconds_between(t_setup, now_ns());
    CpuPlan cpus;
    auto serve = std::make_unique<ServingEngine>(config);
    cpus.pin();
    std::vector<std::future<double>> fill;
    fill.reserve(in.fill);
    for (std::size_t i = 0; i < in.fill; ++i) {
      fill.push_back(serve->submit(in.seq.updates[i]));
    }
    std::vector<double> all_costs;
    for (auto& f : fill) all_costs.push_back(f.get());
    setup_times.push_back(seconds_between(t_setup, now_ns()));
    r.attempted += in.fill;

    const std::int64_t start = now_ns();
    const LadderRun run = run_ladder(*serve, in, r);
    serve->drain();
    ladders.push_back(run.rungs);
    all_costs.insert(all_costs.end(), run.costs.begin(), run.costs.end());
    if (pass == 0) {
      first_costs = all_costs;
    } else if (all_costs != first_costs) {
      fail(r, "pass " + std::to_string(pass) + " costs differ from pass 0");
    }
    online.push_back(serve->stats());
    serve->audit();
    std::size_t items = 0;
    for (std::size_t s = 0; s < serve->shard_count(); ++s) {
      items += serve->sharded().memory(s).item_count();
    }
    layers["workload.live_items"] = static_cast<double>(items);
    serve.reset();
    cpus.restore();

    const RungResult& reference = run.rungs.at(ref);
    if (pass == 0) {
      note_timing(r, "pass 0 reference-rung update from due time",
                  reference.update);
      note_timing(r, "pass 0 reference-rung read from due time",
                  reference.read);
      std::ostringstream line;
      line << "pass 0 unpaced bursts of " << in.burst_updates
           << " updates, completions/s:";
      for (const double x : run.burst_rates) line << " " << x;
      line << "; reference rung achieved " << reference.achieved_updates
           << " updates/s";
      r.notes.push_back(line.str());
    }
    std::vector<double> sorted_costs = all_costs;
    Values v;
    v["updates_per_s"] = median(run.burst_rates);
    v["update_p50_us"] = reference.update.p50;
    v["read_p50_us"] = reference.read.p50;
    v["mean_cost"] = online.back().global.mean_cost();
    v["cost_p99"] = summarize(sorted_costs).p99;
    v["moved_bytes_per_user_byte"] = online.back().global.ratio_cost();
    per_pass.push_back(v);

    // Batch reference: the same updates, reads removed, through
    // ShardedEngine::run give bit-identical per-shard statistics.
    if (pass + 1 != passes(o)) continue;
    const std::int64_t batch_t0 = now_ns();
    ShardedEngine batch(config);
    const ShardedRunStats offline = batch.run(in.seq);
    const double batch_wall = seconds_between(batch_t0, now_ns());
    batch.audit();
    for (std::size_t p = 0; p < online.size(); ++p) {
      for (std::size_t s = 0; s < offline.per_shard.size(); ++s) {
        if (!same_stats(online[p].per_shard[s], offline.per_shard[s])) {
          fail(r, "pass " + std::to_string(p) + " serve shard " +
                      std::to_string(s) +
                      " statistics differ from the batch run");
        }
      }
    }
    if (o.trace) {
      trace_serve(spec, o, config, in, all_costs, run, offline, batch_wall,
                  batch.thread_count(), start, r, layers);
    }
  }
  const std::vector<RungVerdict> rungs = verdicts(ladders);
  for (const RungVerdict& v : rungs) r.notes.push_back(rung_line(v));
  e2e = median_over(per_pass);
  // Tails are window quartiles, like the rung verdicts.
  e2e["update_p99_us"] = rungs[ref].update_p99;
  e2e["read_p99_us"] = rungs[ref].read_p99;
  e2e["max_rate_rps"] = max_rate(rungs);
  e2e["setup_s"] = median(setup_times);
}

}  // namespace

const std::vector<WorkloadSpec>& workload_specs() {
  static const std::vector<WorkloadSpec> kSpecs = {
      {"geo_churn", "churn", "geo", 1.0 / 64, 1, kTickCapacity, false},
      {"serve_mixed", "churn", "simple", 1.0 / 256, 2, kTickCapacity, false},
      {"vm_heap_sharded", "vm_heap", "simple", 1.0 / 256, 4,
       memreal::Tick{1} << 24, true},
  };
  return kSpecs;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& s : workload_specs()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::string preflight(const WorkloadSpec& spec) {
  const AllocatorInfo info = memreal::allocator_info(spec.allocator);
  if (spec.eps > info.max_eps) {
    return spec.allocator + " supports eps <= " + std::to_string(info.max_eps) +
           ", not " + std::to_string(spec.eps);
  }
  return memreal::scenario_incompatibility(spec.scenario, info, spec.eps,
                                           spec.shard_capacity);
}

Result run_workload(const WorkloadSpec& spec, const Options& o) {
  Result r;
  Values e2e;
  Values layers;
  try {
    if (spec.name == "geo_churn") {
      run_geo(spec, o, r, e2e, layers);
    } else if (spec.name == "serve_mixed") {
      run_serve(spec, o, r, e2e, layers);
    } else {
      run_vm(spec, o, r, e2e, layers);
    }
  } catch (const std::exception& e) {
    fail(r, e.what());
  }
  e2e["peak_rss_mib"] = peak_rss_mib();
  r.end_to_end = emit(kEndToEnd, e2e);
  r.tails = emit(kTails, e2e);
  if (o.trace) {
    for (const Metric& m : r.tails) layers["tail." + m.name] = m.value;
    r.per_layer = emit(kPerLayer, layers);
  }
  return r;
}

}  // namespace perfbench
