// Per-claim verdict rules: the paper shapes each BENCH_*.json must
// reproduce, re-derived from the raw rows (fits are recomputed here via
// fit_cost_exponent / fit_cost_log — the artifacts carry fit inputs, not
// conclusions).
//
// The encoded shapes: folklore's exponent ~ 1 (T0), SIMPLE ~ 2/3 and
// below folklore (T1), GEO sub-linear (T2), COMBINED sub-linear with an
// O(1) FLEXHASH external-update cost (T3), the lower-bound floor linear
// in log2(1/eps) and dominated by every resizable allocator (T4), RSUM
// log-linear with a near-zero power exponent (T5), the subset-sum hit
// rate bounded away from 0 (T6), threshold crossings under the lemma
// bounds (T7), the ablation optima at the paper's parameter choices (T8),
// plus the repo's own trajectory bars: shard scaling sane (T9) and the
// incremental-validation speedup (T-VAL).
#pragma once

#include <string>
#include <vector>

#include "report/bench_data.h"

namespace memreal::report {

enum class Status { kPass, kFail, kMissing };

[[nodiscard]] std::string status_name(Status s);

struct ClaimSpec {
  std::string id;      ///< "T0" ... "T9", "T-VAL"
  std::string title;   ///< "Folklore baseline"
  std::string bench;   ///< bench file that must supply the records
  std::string paper;   ///< paper locus ("Theorem 3.1", ...)
  std::string claim;   ///< one-line claim text
};

/// The full claim table, in report order.
[[nodiscard]] const std::vector<ClaimSpec>& claim_specs();

struct ClaimResult {
  const ClaimSpec* spec = nullptr;
  Status status = Status::kMissing;
  std::string headline;  ///< "exponent 0.94 (r² 0.996)" — "" when missing
  /// One line per evaluated rule, prefixed "ok: " / "FAIL: ".
  std::vector<std::string> checks;

  [[nodiscard]] bool passed() const { return status == Status::kPass; }
};

/// Evaluates every claim against the loaded artifacts.  A claim whose
/// bench file is absent comes back kMissing; malformed records inside a
/// present file surface as kFail with the error in `checks`.
[[nodiscard]] std::vector<ClaimResult> evaluate_claims(const BenchSet& set);

/// Outcome of the throughput-floor gate (memreal_report --shard-floor).
struct FloorResult {
  bool ok = true;
  /// One line per compared point, prefixed "ok: " / "FAIL: " (plus
  /// informational "note: " lines, e.g. a fast/full mode mismatch).
  std::vector<std::string> lines;
};

/// Cross-artifact throughput regression gate: every updates/sec point in
/// the current BENCH_shard.json (engine-throughput and
/// engine-throughput-geo rows keyed by engine, shard-scaling rows keyed
/// by shard count) must reach at least `floor_ratio` of the matching
/// point in the `baseline` artifact from an earlier run.  Points present only on one side are noted, not failed —
/// except a current file or series missing entirely, which fails.
[[nodiscard]] FloorResult check_throughput_floor(const BenchSet& current,
                                                 const BenchFile& baseline,
                                                 double floor_ratio);

}  // namespace memreal::report
