#include "report/verdict.h"

#include <cmath>
#include <functional>
#include <limits>
#include <map>

#include "harness/experiment.h"
#include "util/table.h"

namespace memreal::report {

namespace {

std::string num(double v, int digits = 4) { return Table::num(v, digits); }

/// Accumulates rule outcomes for one claim.
class Checker {
 public:
  void check(bool ok, const std::string& what) {
    lines_.push_back((ok ? "ok: " : "FAIL: ") + what);
    failed_ |= !ok;
  }

  void fail(const std::string& what) { check(false, what); }

  [[nodiscard]] bool failed() const { return failed_; }
  [[nodiscard]] std::vector<std::string> take() { return std::move(lines_); }

 private:
  std::vector<std::string> lines_;
  bool failed_ = false;
};

/// The record named `series`, or a recorded failure + nullptr.
const Json* require_series(const BenchFile& f, const std::string& series,
                           Checker& c) {
  const Json* rec = f.find_series(series);
  if (rec == nullptr) {
    c.fail("series \"" + series + "\" missing from " + f.path);
  }
  return rec;
}

std::vector<EpsRow> sweep_rows(const Json& rec) {
  return eps_rows_from_json(rec.at("rows"));
}

/// Recomputed power-law fit of one eps_sweep series; false on failure.
bool fit_series(const BenchFile& f, const std::string& series, Checker& c,
                PowerLawFit* fit, std::vector<EpsRow>* rows_out = nullptr) {
  const Json* rec = require_series(f, series, c);
  if (rec == nullptr) return false;
  const std::vector<EpsRow> rows = sweep_rows(*rec);
  if (rows.size() < 2) {
    c.fail("series \"" + series + "\" has fewer than 2 rows");
    return false;
  }
  *fit = fit_cost_exponent(rows);
  if (rows_out != nullptr) *rows_out = rows;
  return true;
}

void check_exponent(Checker& c, const std::string& label,
                    const PowerLawFit& fit, double lo, double hi,
                    double min_r2) {
  c.check(fit.exponent >= lo && fit.exponent <= hi,
          label + ": exponent " + num(fit.exponent, 3) + " in [" +
              num(lo, 3) + ", " + num(hi, 3) + "]");
  c.check(fit.r2 >= min_r2, label + ": r² " + num(fit.r2, 3) +
                                " >= " + num(min_r2, 3));
}

std::string exp_headline(const PowerLawFit& fit) {
  return "exponent " + num(fit.exponent, 3) + " (r² " + num(fit.r2, 3) + ")";
}

// T0 — folklore pays ~(1/eps)^1; windowed max cost under 3/eps + 1.
void eval_t0(const BenchFile& f, Checker& c, std::string& headline) {
  PowerLawFit churn;
  if (fit_series(f, "churn/folklore-compact", c, &churn)) {
    check_exponent(c, "churn/folklore-compact", churn, 0.75, 1.25, 0.9);
    headline = exp_headline(churn);
  }
  PowerLawFit frag;
  if (fit_series(f, "fragmenter/folklore-compact", c, &frag)) {
    check_exponent(c, "fragmenter/folklore-compact", frag, 0.7, 1.3, 0.9);
  }
  const Json* win = require_series(f, "fragmenter/folklore-windowed", c);
  if (win != nullptr) {
    bool bounded = true;
    double worst = 0;
    for (const EpsRow& r : sweep_rows(*win)) {
      const double bound = 3.0 / r.eps + 1.0;
      bounded &= r.max_cost <= bound + 1e-9;
      worst = std::max(worst, r.max_cost * r.eps / 3.0);
    }
    c.check(bounded, "windowed max cost <= 3/eps + 1 at every eps (max "
                     "cost·eps/3 = " + num(worst, 3) + ")");
  }
}

// T1 — SIMPLE ~ (1/eps)^(2/3), clearly below folklore on the same band.
void eval_t1(const BenchFile& f, Checker& c, std::string& headline) {
  PowerLawFit simple;
  PowerLawFit folklore;
  const bool have_simple = fit_series(f, "churn-band/simple", c, &simple);
  const bool have_folk =
      fit_series(f, "churn-band/folklore-compact", c, &folklore);
  if (have_simple) {
    check_exponent(c, "churn-band/simple", simple, 0.45, 0.85, 0.9);
    headline = exp_headline(simple);
  }
  if (have_simple && have_folk) {
    c.check(simple.exponent + 0.1 <= folklore.exponent,
            "SIMPLE exponent " + num(simple.exponent, 3) +
                " clearly below folklore's " + num(folklore.exponent, 3));
  }
}

// T2 — GEO sub-linear (~0.5 plus log-slack).
void eval_t2(const BenchFile& f, Checker& c, std::string& headline) {
  PowerLawFit geo;
  if (fit_series(f, "geo-regime/geo", c, &geo)) {
    check_exponent(c, "geo-regime/geo", geo, 0.0, 0.9, 0.8);
    headline = exp_headline(geo);
  }
}

// T3 — COMBINED sub-linear on mixed churn; FLEXHASH external cost O(1)
// (flat in eps).
void eval_t3(const BenchFile& f, Checker& c, std::string& headline) {
  PowerLawFit combined;
  if (fit_series(f, "mixed-tiny-large/combined", c, &combined)) {
    // The tiny/large split is clamped above eps = 2^-7 (see the bench),
    // which inflates the largest-eps points, so only sub-linearity is
    // asserted — not a tight exponent band.
    c.check(combined.exponent <= 1.0,
            "mixed-tiny-large/combined: exponent " +
                num(combined.exponent, 3) + " <= 1 (sub-linear)");
    headline = exp_headline(combined);
  }
  const Json* flex = require_series(f, "flexhash-external", c);
  if (flex != nullptr) {
    double lo = std::numeric_limits<double>::infinity();
    double hi = 0;
    for (const auto& [key, row] : flex->at("rows").items()) {
      (void)key;
      const double cost = row.at("cost").as_double();
      lo = std::min(lo, cost);
      hi = std::max(hi, cost);
    }
    // "Flat in eps" only distinguishes anything once the costs are of
    // order 1; far below that the eps-to-eps ratio is noise on a cost
    // that is trivially O(1).
    c.check(hi <= 0.5 || hi / lo <= 3.0,
            "flexhash external cost flat across eps (max " + num(hi, 3) +
                ", max/min " + num(lo > 0 ? hi / lo : 0.0, 3) + ")");
    c.check(hi <= 5.0, "flexhash external cost O(1): max " + num(hi, 3) +
                           " <= 5");
  }
}

// T4 — floor grows linearly in log2(1/eps); every resizable allocator
// dominates it.
void eval_t4(const BenchFile& f, Checker& c, std::string& headline) {
  const Json* rec = require_series(f, "two-size-floor", c);
  if (rec == nullptr) return;
  std::vector<double> log_inv;
  std::vector<double> floors;
  bool dominated = true;
  double min_ratio = std::numeric_limits<double>::infinity();
  for (const auto& [key, row] : rec->at("rows").items()) {
    (void)key;
    log_inv.push_back(std::log2(row.at("inv_eps").as_double()));
    floors.push_back(row.at("floor").as_double());
    const double ratio = row.at("min_resizable_ratio").as_double();
    min_ratio = std::min(min_ratio, ratio);
    dominated &= ratio >= 1.0 - 1e-9;
  }
  if (log_inv.size() < 2) {
    c.fail("two-size-floor has fewer than 2 rows");
    return;
  }
  const LinearFit fit = fit_linear(log_inv, floors);
  c.check(fit.slope > 0, "floor slope " + num(fit.slope, 3) +
                             " > 0 per log2(1/eps)");
  c.check(fit.r2 >= 0.9, "floor linearity r² " + num(fit.r2, 3) + " >= 0.9");
  c.check(dominated, "every resizable allocator dominates the floor (min "
                     "ratio " + num(min_ratio, 3) + " >= 1)");
  headline = "floor slope " + num(fit.slope, 3) + "/log2(1/eps) (r² " +
             num(fit.r2, 3) + "), min ratio " + num(min_ratio, 3);
}

// T5 — RSUM logarithmic: log model fits, power exponent near zero.
void eval_t5(const BenchFile& f, Checker& c, std::string& headline) {
  const Json* rec = require_series(f, "random-item/rsum", c);
  if (rec == nullptr) return;
  const std::vector<EpsRow> rows = sweep_rows(*rec);
  if (rows.size() < 2) {
    c.fail("random-item/rsum has fewer than 2 rows");
    return;
  }
  const LinearFit log_fit = fit_cost_log(rows);
  const PowerLawFit pow_fit = fit_cost_exponent(rows);
  c.check(log_fit.slope > 0, "log-model slope " + num(log_fit.slope, 3) +
                                 " > 0 per log2(1/eps)");
  c.check(log_fit.r2 >= 0.9,
          "log-model r² " + num(log_fit.r2, 3) + " >= 0.9");
  // A pure log curve over the measured 1/eps range fits a small positive
  // local exponent (~0.4 on the fast sweep's 256..16384 span); the
  // polynomial shapes it must be distinguishable from start at SIMPLE's
  // 2/3.
  c.check(pow_fit.exponent <= 0.5,
          "power exponent " + num(pow_fit.exponent, 3) +
              " <= 0.5 (logarithmic, not polynomial)");
  headline = "log slope " + num(log_fit.slope, 3) + " (r² " +
             num(log_fit.r2, 3) + "), power exponent " +
             num(pow_fit.exponent, 3);
}

// T6 — subset-sum hit rate bounded away from 0 as the window shrinks.
void eval_t6(const BenchFile& f, Checker& c, std::string& headline) {
  const Json* rec = require_series(f, "half-cardinality", c);
  if (rec == nullptr) return;
  double min_rate = std::numeric_limits<double>::infinity();
  std::uint64_t max_m = 0;
  for (const auto& [key, row] : rec->at("rows").items()) {
    (void)key;
    min_rate = std::min(min_rate, row.at("rate").as_double());
    max_m = std::max(max_m, row.at("m").as_u64());
  }
  c.check(min_rate >= 0.2, "success rate >= 0.2 at every m up to " +
                               std::to_string(max_m) + " (min " +
                               num(min_rate, 3) + ")");
  headline = "min success rate " + num(min_rate, 3) + " (m <= " +
             std::to_string(max_m) + ")";
}

// T7 — empirical crossing probabilities under the lemma bounds.
void eval_t7(const BenchFile& f, Checker& c, std::string& headline) {
  double worst = 0;
  for (const char* series : {"lemma-4.3", "lemma-4.4"}) {
    const Json* rec = require_series(f, series, c);
    if (rec == nullptr) continue;
    bool under = true;
    for (const auto& [key, row] : rec->at("rows").items()) {
      (void)key;
      const double e = row.at("empirical").as_double();
      const double b = row.at("bound").as_double();
      under &= e <= b + 1e-12;
      if (b > 0) worst = std::max(worst, e / b);
    }
    c.check(under, std::string(series) +
                       ": empirical P <= lemma bound at every point");
  }
  headline = "worst empirical/bound ratio " + num(worst, 3);
}

// T8 — ablation optima at the paper's parameter choices.
void eval_t8(const BenchFile& f, Checker& c, std::string& headline) {
  const Json* geo = require_series(f, "geo-thresholds", c);
  if (geo != nullptr) {
    double randomized = -1;
    double deterministic = -1;
    for (const auto& [key, row] : geo->at("rows").items()) {
      (void)key;
      const double tail = row.at("max_expected_cost").as_double();
      if (row.at("thresholds").as_string() == "randomized") {
        randomized = tail;
      } else {
        deterministic = tail;
      }
    }
    if (randomized < 0 || deterministic < 0) {
      c.fail("geo-thresholds: need a randomized and a deterministic row");
    } else {
      c.check(randomized <= deterministic,
              "randomized tail max_u E[cost] " + num(randomized, 3) +
                  " <= deterministic " + num(deterministic, 3));
      headline = "derandomized tail " + num(deterministic / randomized, 3) +
                 "x worse";
    }
  }

  const Json* period = require_series(f, "simple-period", c);
  if (period != nullptr) {
    double paper_cost = -1;
    double best = std::numeric_limits<double>::infinity();
    bool paper_feasible = false;
    for (const auto& [key, row] : period->at("rows").items()) {
      (void)key;
      if (!row.at("feasible").as_bool()) continue;
      const double cost = row.at("mean_cost").as_double();
      best = std::min(best, cost);
      if (row.at("paper_choice").as_bool()) {
        paper_cost = cost;
        paper_feasible = true;
      }
    }
    c.check(paper_feasible, "paper rebuild period floor(eps^-1/3) is "
                            "feasible");
    if (paper_feasible) {
      c.check(paper_cost <= 1.5 * best,
              "paper period cost " + num(paper_cost, 3) +
                  " within 1.5x of the sweep minimum " + num(best, 3));
    }
  }

  const Json* block = require_series(f, "rsum-block", c);
  if (block != nullptr) {
    double paper_cost = -1;
    double best = std::numeric_limits<double>::infinity();
    for (const auto& [key, row] : block->at("rows").items()) {
      (void)key;
      const double cost = row.at("mean_cost").as_double();
      best = std::min(best, cost);
      if (row.at("paper_choice").as_bool()) paper_cost = cost;
    }
    if (paper_cost < 0) {
      c.fail("rsum-block: no paper_choice row");
    } else {
      c.check(paper_cost <= 1.5 * best,
              "paper block size cost " + num(paper_cost, 3) +
                  " within 1.5x of the sweep minimum " + num(best, 3));
    }
  }
}

// T9 — sharded scaling trajectory: every measured point completed
// validated with sane throughput and bounded imbalance.
void eval_t9(const BenchFile& f, Checker& c, std::string& headline) {
  double best_rate = 0;
  std::size_t points = 0;
  for (const char* series : {"shard-scaling", "thread-scaling"}) {
    const Json* rec = require_series(f, series, c);
    if (rec == nullptr) continue;
    bool positive = true;
    bool balanced = true;
    for (const auto& [key, row] : rec->at("rows").items()) {
      (void)key;
      ++points;
      const double rate = row.at("updates_per_second").as_double();
      positive &= rate > 0;
      best_rate = std::max(best_rate, rate);
      balanced &= row.at("imbalance").as_double() <= 2.0;
    }
    c.check(positive, std::string(series) +
                          ": every point has positive updates/sec");
    c.check(balanced, std::string(series) +
                          ": routing imbalance <= 2 at every point");
  }
  headline = "peak " + num(best_rate, 6) + " updates/s over " +
             std::to_string(points) + " points";
}

// T-VAL — incremental validation beats the per-update full audit by
// >= 10x at the largest measured n.
void eval_tval(const BenchFile& f, Checker& c, std::string& headline) {
  const Json* rec = require_series(f, "incremental-vs-audit", c);
  if (rec == nullptr) return;
  std::uint64_t largest_n = 0;
  double speedup_at_largest = 0;
  for (const auto& [key, row] : rec->at("rows").items()) {
    (void)key;
    const std::uint64_t n = row.at("items").as_u64();
    if (n >= largest_n) {
      largest_n = n;
      speedup_at_largest = row.at("audit_over_incremental").as_double();
    }
  }
  c.check(largest_n > 0, "incremental-vs-audit has rows");
  c.check(speedup_at_largest >= 10.0,
          "audit/incremental speedup " + num(speedup_at_largest, 4) +
              " >= 10x at n = " + std::to_string(largest_n));
  headline = num(speedup_at_largest, 4) + "x at n = " +
             std::to_string(largest_n);
}

/// release / validated updates/sec of one T-REL head-to-head series, or 0
/// with a recorded failure when the series or either row is missing.
double engine_speedup(const BenchFile& f, const std::string& series,
                      Checker& c) {
  const Json* rec = require_series(f, series, c);
  if (rec == nullptr) return 0;
  double validated = 0;
  double release = 0;
  for (const auto& [key, row] : rec->at("rows").items()) {
    (void)key;
    const double rate = row.at("updates_per_second").as_double();
    if (row.at("engine").as_string() == "validated") validated = rate;
    if (row.at("engine").as_string() == "release") release = rate;
  }
  if (validated <= 0 || release <= 0) {
    c.fail(series + ": need validated and release rows with positive "
                    "updates/sec");
    return 0;
  }
  return release / validated;
}

// T-REL — the unchecked release engine delivers the promised speedup over
// the validated engine on the S = 1 single-thread head-to-heads: SIMPLE
// (order-preserving compactions) and GEO (level rebuilds that reorder
// items, so a store that reseats per reordering move fails the GEO bar).
void eval_trel(const BenchFile& f, Checker& c, std::string& headline) {
  const std::string mode = f.fast_mode ? " (fast mode)" : "";
  // GEO's ratio barely depends on run length (~8-11x in fast mode, ~8-10x
  // in full), and a store that reseats per reordering move measures ~5x
  // in both, so one bar serves both modes.
  const double geo = engine_speedup(f, "engine-throughput-geo", c);
  if (geo > 0) {
    c.check(geo >= 6.0, "GEO release/validated updates-per-second ratio " +
                            num(geo, 3) + " >= 6x at S = 1" + mode);
  }
  const double simple = engine_speedup(f, "engine-throughput", c);
  if (simple <= 0) return;
  // Fast-mode SIMPLE sweeps run far fewer updates, so fixed per-run costs
  // eat into the measured ratio; the bar drops accordingly.
  const double bar = f.fast_mode ? 5.0 : 10.0;
  c.check(simple >= bar,
          "release/validated updates-per-second ratio " + num(simple, 3) +
              " >= " + num(bar, 1) + "x at S = 1" + mode);
  headline = num(simple, 3) + "x release over validated";
  if (geo > 0) headline += ", " + num(geo, 3) + "x on GEO";
}

// T-ARENA — the byte-addressed arena layer: every (allocator, engine)
// pair reproduces the tick cost channel exactly, measured byte traffic
// lands inside the granule rounding bound, and the payload-verified
// arena cell still moves bytes at a positive rate on the vm_heap stream.
void eval_tarena(const BenchFile& f, Checker& c, std::string& headline) {
  const Json* diff = require_series(f, "arena-differential", c);
  if (diff != nullptr) {
    bool equal = true;
    bool in_bound = true;
    bool verified = true;
    bool moved = true;
    std::size_t pairs = 0;
    for (const auto& [key, row] : diff->at("rows").items()) {
      (void)key;
      ++pairs;
      equal &= row.at("costs_equal").as_u64() == 1;
      in_bound &= row.at("bytes_in_bound").as_u64() == 1;
      verified &= row.at("payload_verified").as_u64() == 1;
      moved &= row.at("moved_bytes").as_u64() > 0;
    }
    c.check(pairs >= 2, "arena-differential covers " +
                            std::to_string(pairs) + " allocator x engine "
                            "pairs (>= 2)");
    c.check(equal, "tick cost channel identical to the plain cell on "
                   "every pair");
    c.check(in_bound, "moved bytes inside the granule rounding bound "
                      "L*bpt - M*(bpt-1) .. L*bpt on every pair");
    c.check(verified, "payloads pattern-verified on every pair");
    c.check(moved, "every pair physically moved bytes");
    headline = std::to_string(pairs) + " pairs tick-exact, bytes in bound";
  }
  const Json* thr = require_series(f, "arena-throughput", c);
  if (thr != nullptr) {
    double verified_bps = 0;
    for (const auto& [key, row] : thr->at("rows").items()) {
      (void)key;
      if (row.at("verify").as_u64() == 1) {
        verified_bps = row.at("bytes_per_second").as_double();
      }
    }
    c.check(verified_bps > 0,
            "verified arena throughput positive: " + num(verified_bps, 6) +
                " bytes/s on vm_heap");
    if (!headline.empty()) {
      headline += ", " + num(verified_bps / 1e6, 4) + " MB/s verified";
    }
  }
}

// T-SERVE — the online serving layer: deterministic mode reproduces the
// batch sharded engine bit-for-bit on every covered (allocator, engine)
// pair, and the closed-loop load generator reports ordered latency
// percentiles with a positive measured saturation throughput.
void eval_tserve(const BenchFile& f, Checker& c, std::string& headline) {
  const Json* det = require_series(f, "deterministic-verify", c);
  if (det != nullptr) {
    bool costs = true;
    bool layouts = true;
    std::size_t pairs = 0;
    for (const auto& [key, row] : det->at("rows").items()) {
      (void)key;
      ++pairs;
      costs &= row.at("costs_equal").as_u64() == 1;
      layouts &= row.at("layouts_equal").as_u64() == 1;
    }
    c.check(pairs >= 2, "deterministic-verify covers " +
                            std::to_string(pairs) +
                            " allocator x engine pairs (>= 2)");
    c.check(costs, "per-shard cost streams bit-identical to the batch "
                   "engine on every pair");
    c.check(layouts, "final layouts identical to the batch engine on "
                     "every pair");
  }
  const Json* sweep = require_series(f, "latency-sweep", c);
  if (sweep != nullptr) {
    bool positive = true;
    bool ordered = true;
    std::size_t points = 0;
    double sat_qps = 0;
    double sat_p99 = 0;
    std::uint64_t sat_clients = 0;
    for (const auto& [key, row] : sweep->at("rows").items()) {
      (void)key;
      ++points;
      const double qps = row.at("achieved_qps").as_double();
      positive &= qps > 0;
      const double p50 = row.at("p50_us").as_double();
      const double p99 = row.at("p99_us").as_double();
      const double p999 = row.at("p999_us").as_double();
      ordered &= p50 <= p99 + 1e-12 && p99 <= p999 + 1e-12;
      if (row.at("target_qps").as_double() == 0.0 && qps > sat_qps) {
        sat_qps = qps;
        sat_p99 = p99;
        sat_clients = row.at("clients").as_u64();
      }
    }
    c.check(points >= 1, "latency-sweep has measured points");
    c.check(positive, "every point served requests (positive achieved "
                      "qps)");
    c.check(ordered, "p50 <= p99 <= p999 at every point");
    c.check(sat_qps > 0,
            "a saturation (target qps = 0) point was measured: peak " +
                num(sat_qps, 6) + " req/s");
    headline = "sat " + num(sat_qps, 6) + " req/s, p99 " +
               num(sat_p99, 4) + " us at C = " +
               std::to_string(sat_clients);
  }
  const Json* metrics = require_series(f, "metrics-consistency", c);
  if (metrics != nullptr) {
    bool match = true;
    std::size_t points = 0;
    for (const auto& [key, row] : metrics->at("rows").items()) {
      (void)key;
      ++points;
      match &= row.at("counters_match").as_u64() == 1;
    }
    c.check(points >= 1, "metrics-consistency has measured points");
    c.check(match, "summed per-shard cell counters equal the merged "
                   "RunStats totals exactly on every point");
  }
  const Json* overhead = require_series(f, "metrics-overhead", c);
  if (overhead != nullptr) {
    // Same fast-mode relaxation scheme as the T-REL throughput bar:
    // smoke-sized points are noise-dominated.
    const double bar = f.fast_mode ? 0.85 : 0.95;
    for (const auto& [key, row] : overhead->at("rows").items()) {
      (void)key;
      const double ratio = row.at("ratio").as_double();
      c.check(ratio >= bar,
              "metrics-on saturation throughput is " + num(ratio, 4) +
                  "x metrics-off (>= " + num(bar, 2) + " required" +
                  (f.fast_mode ? ", fast mode)" : ")"));
    }
  }
}

// T-ADV — the adversarial performance search: guided mutation pressure
// seeded from the scenario zoo must not push any registry allocator over
// its CostBudget ceiling, folklore (the Theta(eps^-1) baseline) must
// remain measurably easier to hurt than SIMPLE, the folklore-windowed
// search must clearly beat its best zoo seed (the machinery finds
// structure the zoo alone misses), and every shrunk reproducer must
// retain >= 90% of its found ratio.
void eval_tadv(const BenchFile& f, Checker& c, std::string& headline) {
  const Json* rec = require_series(f, "adv-ratio", c);
  if (rec == nullptr) return;

  bool all_under = true;
  bool all_retained = true;
  std::size_t rows = 0;
  double worst_ratio = 0;
  std::string worst_allocator;
  double compact_found = 0;
  double simple_found = 0;
  double windowed_gain = 0;
  for (const auto& [key, row] : rec->at("rows").items()) {
    (void)key;
    ++rows;
    const std::string allocator = row.at("allocator").as_string();
    const double found = row.at("found_ratio").as_double();
    all_under &= found < row.at("budget_ceiling").as_double();
    all_retained &= row.at("shrink_retained").as_double() >= 0.9;
    if (found > worst_ratio) {
      worst_ratio = found;
      worst_allocator = allocator;
    }
    if (allocator == "folklore_compact") compact_found = found;
    if (allocator == "simple") simple_found = found;
    if (allocator == "folklore_windowed") {
      windowed_gain = row.at("gain").as_double();
    }
  }
  const std::size_t min_rows = f.fast_mode ? 5 : 9;
  c.check(rows >= min_rows,
          "adv-ratio covers " + std::to_string(rows) + " allocators (>= " +
              std::to_string(min_rows) +
              (f.fast_mode ? ", fast mode)" : ")"));
  c.check(all_under,
          "every found ratio stays under its CostBudget ceiling");
  c.check(all_retained,
          "every shrunk reproducer retains >= 0.9 of its found ratio");
  const double margin =
      simple_found > 0 ? compact_found / simple_found : 0.0;
  c.check(margin >= 1.15,
          "folklore-compact's found ratio exceeds SIMPLE's by " +
              num(margin, 3) + "x (>= 1.15 — the guided search "
              "reproduces the folklore-vs-SIMPLE separation)");
  c.check(windowed_gain >= 1.5,
          "folklore-windowed search gain over its best zoo seed: " +
              num(windowed_gain, 3) + "x (>= 1.5)");
  headline = "worst found ratio " + num(worst_ratio, 4) + " (" +
             worst_allocator + "), all under budget";
}

using EvalFn = void (*)(const BenchFile&, Checker&, std::string&);

struct ClaimRule {
  ClaimSpec spec;
  EvalFn eval;
};

const std::vector<ClaimRule>& claim_rules() {
  static const std::vector<ClaimRule> kRules = {
      {{"T0", "Folklore baseline", "folklore", "Introduction",
        "pigeonhole first-fit pays O(eps^-1); the windowed variant's max "
        "cost tracks 3/eps"},
       eval_t0},
      {{"T1", "SIMPLE", "simple", "Theorem 3.1",
        "sizes in [eps, 2eps) => amortized O(eps^-2/3), clearly below "
        "folklore's Theta(eps^-1)"},
       eval_t1},
      {{"T2", "GEO", "geo", "Theorem 4.1",
        "sizes in [eps^5, 1] => expected O~(eps^-1/2) — sub-linear fitted "
        "exponent"},
       eval_t2},
      {{"T3", "COMBINED + FLEXHASH", "combined",
        "Corollary 4.10 / Lemma 4.9",
        "arbitrary sizes, resizable, expected O~(eps^-1/2); external "
        "updates cost O(1)"},
       eval_t3},
      {{"T4", "Lower bound", "lower_bound", "Theorem 5.1",
        "the two-size sequence forces amortized Omega(log eps^-1) on any "
        "resizable allocator"},
       eval_t4},
      {{"T5", "RSUM", "rsum", "Theorem 6.1",
        "delta-random-item sequences => expected O(log eps^-1) cost, "
        "strategy computation O(eps^-1/2)"},
       eval_t5},
      {{"T6", "Subset sums", "subset_sum", "Theorem 6.2",
        "random m-sets contain an (m/2)-subset hitting a width-(log n)/n "
        "window with probability Omega(1)"},
       eval_t6},
      {{"T7", "Randomized thresholds", "thresholds", "Lemmas 4.3/4.4",
        "threshold-crossing probabilities stay under the lemma bounds"},
       eval_t7},
      {{"T8", "Ablations", "ablations", "design choices",
        "derandomizing GEO degrades the tail; SIMPLE / RSUM parameter "
        "optima sit at the paper's choices"},
       eval_t8},
      {{"T9", "Sharded engine scaling", "shard", "repo trajectory",
        "validated sharded churn: sane throughput and bounded imbalance "
        "across the (shards x threads) sweep"},
       eval_t9},
      {{"T-VAL", "Incremental validation", "validation", "repo trajectory",
        "verified runs cost O(log n) per update, not O(n log n): >= 10x "
        "over the per-update full audit"},
       eval_tval},
      {{"T-REL", "Release engine throughput", "shard", "repo trajectory",
        "the unchecked slab fast path sustains >= 10x validated "
        "updates/sec at S = 1 (>= 5x in fast mode), and >= 6x on GEO, "
        "whose level rebuilds reorder items"},
       eval_trel},
      {{"T-ARENA", "Byte-addressed arena", "arena", "repo trajectory",
        "arena-backed cells reproduce the tick cost channel exactly, "
        "measured byte traffic obeys the granule rounding bound, and "
        "payload-verified runs sustain positive bytes/sec"},
       eval_tarena},
      {{"T-SERVE", "Online serving layer", "serve", "repo trajectory",
        "MPSC-queued shard workers serve concurrent clients: "
        "deterministic mode is bit-identical to the batch engine, the "
        "closed-loop load generator reports ordered p50/p99/p999 with "
        "positive saturation throughput, per-shard metric counters "
        "equal RunStats exactly, and wiring metrics costs < 5% "
        "saturation throughput"},
       eval_tserve},
      {{"T-ADV", "Adversarial search", "adv", "repo trajectory",
        "zoo-seeded guided mutation search: no registry allocator's "
        "found cost ratio crosses its CostBudget ceiling, folklore "
        "stays >= 1.15x easier to hurt than SIMPLE, the folklore-"
        "windowed search beats its best zoo seed >= 1.5x, and shrunk "
        "reproducers retain >= 90% of the found ratio"},
       eval_tadv},
  };
  return kRules;
}

}  // namespace

std::string status_name(Status s) {
  switch (s) {
    case Status::kPass: return "PASS";
    case Status::kFail: return "FAIL";
    case Status::kMissing: return "MISSING";
  }
  return "?";
}

const std::vector<ClaimSpec>& claim_specs() {
  static const std::vector<ClaimSpec> kSpecs = [] {
    std::vector<ClaimSpec> specs;
    for (const ClaimRule& rule : claim_rules()) specs.push_back(rule.spec);
    return specs;
  }();
  return kSpecs;
}

namespace {

/// updates/sec per point key for one series' rows.  The key is the
/// `key_field` value rendered as a string (engine name, shard count).
std::map<std::string, double> floor_points(const Json& rec,
                                           const std::string& key_field) {
  std::map<std::string, double> points;
  for (const auto& [idx, row] : rec.at("rows").items()) {
    (void)idx;
    const Json& key = row.at(key_field);
    const std::string name =
        key.is_string() ? key.as_string() : std::to_string(key.as_u64());
    points[name] = row.at("updates_per_second").as_double();
  }
  return points;
}

}  // namespace

FloorResult check_throughput_floor(const BenchSet& current,
                                   const BenchFile& baseline,
                                   double floor_ratio) {
  FloorResult out;
  auto fail = [&](const std::string& what) {
    out.lines.push_back("FAIL: " + what);
    out.ok = false;
  };
  const BenchFile* cur = current.find("shard");
  if (cur == nullptr) {
    fail("BENCH_shard.json not found in the bench dir — run bench_shard");
    return out;
  }
  if (cur->fast_mode != baseline.fast_mode) {
    out.lines.push_back(
        std::string("note: fast-mode mismatch (current ") +
        (cur->fast_mode ? "fast" : "full") + ", floor " +
        (baseline.fast_mode ? "fast" : "full") +
        ") — updates/sec is a rate, comparison proceeds");
  }
  struct SeriesSpec {
    const char* series;
    const char* key_field;
    const char* label;
  };
  constexpr SeriesSpec kSeries[] = {
      {"engine-throughput", "engine", "engine "},
      {"engine-throughput-geo", "engine", "engine "},
      {"shard-scaling", "shards", "S = "},
  };
  for (const SeriesSpec& s : kSeries) {
    const Json* brec = baseline.find_series(s.series);
    const Json* crec = cur->find_series(s.series);
    if (brec == nullptr) {
      out.lines.push_back(std::string("note: floor artifact ") +
                          baseline.path + " has no \"" + s.series +
                          "\" series — skipped");
      continue;
    }
    if (crec == nullptr) {
      fail(std::string("series \"") + s.series + "\" missing from " +
           cur->path + " but present in the floor artifact");
      continue;
    }
    const std::map<std::string, double> floors =
        floor_points(*brec, s.key_field);
    const std::map<std::string, double> rates =
        floor_points(*crec, s.key_field);
    for (const auto& [key, base] : floors) {
      const auto it = rates.find(key);
      if (it == rates.end()) {
        out.lines.push_back("note: " + std::string(s.label) + key +
                            " in the floor artifact has no current point");
        continue;
      }
      const double floor = base * floor_ratio;
      const bool ok = it->second >= floor;
      std::string line =
          std::string(s.series) + " " + s.label + key + ": " +
          num(it->second, 6) + " updates/s vs floor " + num(floor, 6) +
          " (" + num(floor_ratio, 3) + " x " + num(base, 6) + ")";
      out.lines.push_back((ok ? "ok: " : "FAIL: ") + line);
      out.ok &= ok;
    }
  }
  return out;
}

std::vector<ClaimResult> evaluate_claims(const BenchSet& set) {
  std::vector<ClaimResult> results;
  const std::vector<ClaimRule>& rules = claim_rules();
  const std::vector<ClaimSpec>& specs = claim_specs();
  for (std::size_t i = 0; i < rules.size(); ++i) {
    ClaimResult r;
    r.spec = &specs[i];
    const BenchFile* file = set.find(rules[i].spec.bench);
    if (file == nullptr) {
      r.status = Status::kMissing;
      r.checks.push_back("FAIL: BENCH_" + rules[i].spec.bench +
                         ".json not found — run bench_" +
                         rules[i].spec.bench);
      results.push_back(std::move(r));
      continue;
    }
    Checker c;
    try {
      rules[i].eval(*file, c, r.headline);
    } catch (const JsonParseError& e) {
      c.fail(file->path + ": " + e.what());
    } catch (const ReportError& e) {
      c.fail(e.what());
    }
    r.status = c.failed() ? Status::kFail : Status::kPass;
    r.checks = c.take();
    results.push_back(std::move(r));
  }
  return results;
}

}  // namespace memreal::report
