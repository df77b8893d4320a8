// Tests for the reproduction-report pipeline (`src/report/`,
// `tools/memreal_report`): fit recovery on synthetic data, EpsRow JSON
// round-trips, BENCH_*.json loading (including stale-schema rejection),
// the per-claim verdict rules on canned fixtures (pass / fail /
// missing-file), and the EXPERIMENTS.md marker rewriter.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "report/bench_data.h"
#include "report/markdown.h"
#include "report/verdict.h"

namespace memreal {
namespace {

namespace fs = std::filesystem;
using report::BenchFile;
using report::BenchSet;
using report::ClaimResult;
using report::ReportError;
using report::Status;

// -- fixtures -------------------------------------------------------------

/// A scratch directory removed on destruction.
struct TempDir {
  TempDir() {
    static int counter = 0;
    path = fs::temp_directory_path() /
           ("memreal_report_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter++));
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  fs::path path;
};

/// Synthetic sweep rows with mean_cost = coeff * (1/eps)^exponent.
std::vector<EpsRow> power_rows(double exponent, double coeff = 2.0) {
  std::vector<EpsRow> rows;
  for (const double inv_eps : {16.0, 32.0, 64.0, 128.0, 256.0, 512.0}) {
    EpsRow r;
    r.eps = 1.0 / inv_eps;
    r.seeds = 3;
    r.updates = 1000;
    r.mean_cost = coeff * std::pow(inv_eps, exponent);
    r.max_cost = 2 * r.mean_cost;
    r.p99_cost = 1.5 * r.mean_cost;
    r.ratio_cost = r.mean_cost;
    rows.push_back(r);
  }
  return rows;
}

/// Synthetic rows with mean_cost = intercept + slope * log2(1/eps).
std::vector<EpsRow> log_rows(double slope, double intercept) {
  std::vector<EpsRow> rows;
  for (const double inv_eps : {256.0, 1024.0, 4096.0, 16384.0}) {
    EpsRow r;
    r.eps = 1.0 / inv_eps;
    r.seeds = 3;
    r.updates = 1000;
    r.mean_cost = intercept + slope * std::log2(inv_eps);
    r.max_cost = 2 * r.mean_cost;
    r.p99_cost = r.mean_cost;
    r.ratio_cost = r.mean_cost;
    rows.push_back(r);
  }
  return rows;
}

Json sweep_record(const std::string& claim, const std::string& series,
                  const std::string& allocator, const std::string& fit,
                  const std::vector<EpsRow>& rows) {
  Json rec = Json::object();
  rec.set("kind", "eps_sweep")
      .set("claim", claim)
      .set("series", series)
      .set("allocator", allocator)
      .set("workload", "synthetic")
      .set("fit", fit)
      .set("rows", eps_rows_json(rows));
  return rec;
}

/// Writes a schema-`schema` BENCH_<bench>.json holding `records`.
std::string write_bench_file(const fs::path& dir, const std::string& bench,
                             Json records, std::uint64_t schema = 2,
                             bool fast_mode = true) {
  Json doc = Json::object();
  doc.set("bench", bench).set("schema", schema);
  doc.set("git_describe", "test-fixture");
  doc.set("fast_mode", fast_mode);
  Json seeds = Json::array();
  seeds.push(std::uint64_t{1});
  doc.set("seeds", std::move(seeds));
  doc.set("records", std::move(records));
  const std::string path = (dir / ("BENCH_" + bench + ".json")).string();
  std::ofstream out(path);
  out << doc.dump(2) << "\n";
  return path;
}

const ClaimResult& result_for(const std::vector<ClaimResult>& rs,
                              const std::string& id) {
  for (const ClaimResult& r : rs) {
    if (r.spec->id == id) return r;
  }
  throw std::logic_error("no claim " + id);
}

// -- fit recovery ---------------------------------------------------------

TEST(Fits, RecoversSyntheticPowerLawExponent) {
  const PowerLawFit fit = fit_cost_exponent(power_rows(2.0 / 3.0, 3.0));
  EXPECT_NEAR(fit.exponent, 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(fit.log_coeff, std::log(3.0), 1e-9);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(Fits, RecoversSyntheticLogLinearSlope) {
  const LinearFit fit = fit_cost_log(log_rows(1.5, 2.0));
  EXPECT_NEAR(fit.slope, 1.5, 1e-9);
  EXPECT_NEAR(fit.intercept, 2.0, 1e-9);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(Fits, ReportsLowR2OnNoisyData) {
  std::vector<EpsRow> rows = power_rows(1.0);
  rows[1].mean_cost *= 30;  // gross outlier
  rows[3].mean_cost /= 25;
  const PowerLawFit fit = fit_cost_exponent(rows);
  EXPECT_LT(fit.r2, 0.9);
}

// -- EpsRow JSON round-trip ----------------------------------------------

TEST(EpsRowJson, RoundTripsThroughDumpAndParse) {
  const std::vector<EpsRow> rows = power_rows(0.5);
  const std::string dumped = eps_rows_json(rows).dump(2);
  const std::vector<EpsRow> back =
      eps_rows_from_json(Json::parse(dumped));
  ASSERT_EQ(back.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_DOUBLE_EQ(back[i].eps, rows[i].eps);
    EXPECT_EQ(back[i].seeds, rows[i].seeds);
    EXPECT_EQ(back[i].updates, rows[i].updates);
    EXPECT_DOUBLE_EQ(back[i].mean_cost, rows[i].mean_cost);
    EXPECT_DOUBLE_EQ(back[i].max_cost, rows[i].max_cost);
    EXPECT_DOUBLE_EQ(back[i].p99_cost, rows[i].p99_cost);
  }
}

// -- artifact loading -----------------------------------------------------

TEST(BenchData, LoadsSchemaTwoFile) {
  TempDir dir;
  Json records = Json::array();
  records.push(sweep_record("T1", "churn-band/simple", "simple", "power",
                            power_rows(0.66)));
  write_bench_file(dir.path, "simple", std::move(records));

  const BenchSet set = report::load_bench_dir(dir.path.string());
  ASSERT_NE(set.find("simple"), nullptr);
  const BenchFile& f = *set.find("simple");
  EXPECT_EQ(f.git_describe, "test-fixture");
  EXPECT_TRUE(f.fast_mode);
  ASSERT_EQ(f.seeds.size(), 1u);
  EXPECT_NE(f.find_series("churn-band/simple"), nullptr);
  EXPECT_EQ(f.find_series("nope"), nullptr);
  EXPECT_EQ(set.records_for_claim("T1").size(), 1u);
  EXPECT_TRUE(set.records_for_claim("T2").empty());
}

TEST(BenchData, RejectsStaleSchemaWithClearError) {
  TempDir dir;
  const std::string path =
      write_bench_file(dir.path, "simple", Json::array(), /*schema=*/1);
  try {
    (void)report::load_bench_file(path);
    FAIL() << "expected ReportError";
  } catch (const ReportError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("stale"), std::string::npos) << what;
    EXPECT_NE(what.find("schema 1"), std::string::npos) << what;
    EXPECT_NE(what.find(path), std::string::npos) << what;
  }
}

TEST(BenchData, RejectsMalformedJsonNamingTheFile) {
  TempDir dir;
  const std::string path = (dir.path / "BENCH_broken.json").string();
  std::ofstream(path) << "{\"bench\": \"broken\",";
  EXPECT_THROW((void)report::load_bench_file(path), ReportError);
  EXPECT_THROW((void)report::load_bench_dir(dir.path.string()),
               ReportError);
}

TEST(BenchData, RejectsDuplicateBenchNamesAcrossFiles) {
  TempDir dir;
  write_bench_file(dir.path, "simple", Json::array());
  // A stale copy under a different filename but the same internal name.
  Json doc = Json::object();
  doc.set("bench", "simple").set("schema", std::uint64_t{2});
  doc.set("git_describe", "stale").set("fast_mode", true);
  doc.set("seeds", Json::array()).set("records", Json::array());
  std::ofstream(dir.path / "BENCH_old_simple.json") << doc.dump() << "\n";
  try {
    (void)report::load_bench_dir(dir.path.string());
    FAIL() << "expected ReportError";
  } catch (const ReportError& e) {
    EXPECT_NE(std::string(e.what()).find("already loaded"),
              std::string::npos)
        << e.what();
  }
}

TEST(BenchData, IgnoresNonBenchFiles) {
  TempDir dir;
  std::ofstream(dir.path / "notes.json") << "not json at all";
  std::ofstream(dir.path / "BENCH_x.txt") << "nope";
  const BenchSet set = report::load_bench_dir(dir.path.string());
  EXPECT_TRUE(set.by_bench.empty());
}

// -- verdict rules --------------------------------------------------------

TEST(Verdict, MissingBenchFileYieldsMissingStatus) {
  const BenchSet empty;
  const std::vector<ClaimResult> rs = report::evaluate_claims(empty);
  EXPECT_EQ(rs.size(), report::claim_specs().size());
  for (const ClaimResult& r : rs) {
    EXPECT_EQ(r.status, Status::kMissing);
    EXPECT_FALSE(r.passed());
    ASSERT_FALSE(r.checks.empty());
    EXPECT_NE(r.checks.front().find("not found"), std::string::npos);
  }
}

TEST(Verdict, SimpleClaimPassesOnPaperShapedRows) {
  TempDir dir;
  Json records = Json::array();
  records.push(sweep_record("T1", "churn-band/simple", "simple", "power",
                            power_rows(0.66, 2.0)));
  records.push(sweep_record("T1", "churn-band/folklore-compact",
                            "folklore-compact", "power",
                            power_rows(0.97, 1.2)));
  write_bench_file(dir.path, "simple", std::move(records));

  const BenchSet set = report::load_bench_dir(dir.path.string());
  const auto rs = report::evaluate_claims(set);
  const ClaimResult& t1 = result_for(rs, "T1");
  EXPECT_EQ(t1.status, Status::kPass) << [&] {
    std::string all;
    for (const auto& c : t1.checks) all += c + "\n";
    return all;
  }();
  EXPECT_NE(t1.headline.find("exponent"), std::string::npos);
}

TEST(Verdict, SimpleClaimFailsWhenExponentIsLinear) {
  TempDir dir;
  Json records = Json::array();
  records.push(sweep_record("T1", "churn-band/simple", "simple", "power",
                            power_rows(1.0, 2.0)));
  records.push(sweep_record("T1", "churn-band/folklore-compact",
                            "folklore-compact", "power",
                            power_rows(1.0, 1.2)));
  write_bench_file(dir.path, "simple", std::move(records));

  const auto rs =
      report::evaluate_claims(report::load_bench_dir(dir.path.string()));
  EXPECT_EQ(result_for(rs, "T1").status, Status::kFail);
}

TEST(Verdict, MissingSeriesInsidePresentFileFails) {
  TempDir dir;
  Json records = Json::array();
  records.push(sweep_record("T1", "churn-band/simple", "simple", "power",
                            power_rows(0.66)));
  // folklore series absent
  write_bench_file(dir.path, "simple", std::move(records));
  const auto rs =
      report::evaluate_claims(report::load_bench_dir(dir.path.string()));
  EXPECT_EQ(result_for(rs, "T1").status, Status::kFail);
}

TEST(Verdict, ThresholdBoundsPassAndFail) {
  const auto build = [](double empirical_43) {
    Json records = Json::array();
    for (const char* series : {"lemma-4.3", "lemma-4.4"}) {
      Json rec = Json::object();
      rec.set("kind", "bound_check")
          .set("claim", "T7")
          .set("series", series);
      Json rows = Json::array();
      Json row = Json::object();
      row.set("empirical",
              std::string(series) == "lemma-4.3" ? empirical_43 : 0.01)
          .set("bound", 0.05);
      rows.push(std::move(row));
      rec.set("rows", std::move(rows));
      records.push(std::move(rec));
    }
    return records;
  };

  {
    TempDir dir;
    write_bench_file(dir.path, "thresholds", build(0.02));
    const auto rs =
        report::evaluate_claims(report::load_bench_dir(dir.path.string()));
    EXPECT_EQ(result_for(rs, "T7").status, Status::kPass);
  }
  {
    TempDir dir;
    write_bench_file(dir.path, "thresholds", build(0.2));  // over the bound
    const auto rs =
        report::evaluate_claims(report::load_bench_dir(dir.path.string()));
    EXPECT_EQ(result_for(rs, "T7").status, Status::kFail);
  }
}

TEST(Verdict, RsumLogShapePassesAndPolynomialFails) {
  {
    TempDir dir;
    Json records = Json::array();
    records.push(sweep_record("T5", "random-item/rsum", "rsum", "both",
                              log_rows(0.8, 1.0)));
    write_bench_file(dir.path, "rsum", std::move(records));
    const auto rs =
        report::evaluate_claims(report::load_bench_dir(dir.path.string()));
    EXPECT_EQ(result_for(rs, "T5").status, Status::kPass);
  }
  {
    TempDir dir;
    Json records = Json::array();
    records.push(sweep_record("T5", "random-item/rsum", "rsum", "both",
                              power_rows(0.8)));  // polynomial growth
    write_bench_file(dir.path, "rsum", std::move(records));
    const auto rs =
        report::evaluate_claims(report::load_bench_dir(dir.path.string()));
    EXPECT_EQ(result_for(rs, "T5").status, Status::kFail);
  }
}

// -- markdown + markers ---------------------------------------------------

TEST(Markdown, ClaimBlockRendersVerdictTablesAndChecks) {
  TempDir dir;
  Json records = Json::array();
  records.push(sweep_record("T1", "churn-band/simple", "simple", "power",
                            power_rows(0.66)));
  records.push(sweep_record("T1", "churn-band/folklore-compact",
                            "folklore-compact", "power", power_rows(0.97)));
  write_bench_file(dir.path, "simple", std::move(records));
  const BenchSet set = report::load_bench_dir(dir.path.string());
  const auto rs = report::evaluate_claims(set);
  const std::string block =
      report::render_claim_block(set, result_for(rs, "T1"));
  EXPECT_NE(block.find("**Verdict: PASS**"), std::string::npos) << block;
  EXPECT_NE(block.find("churn-band/simple"), std::string::npos);
  EXPECT_NE(block.find("| eps |"), std::string::npos);
  EXPECT_NE(block.find("Fit: cost ~ (1/eps)^0.66"), std::string::npos);
  EXPECT_NE(block.find("Checks:"), std::string::npos);

  // Deterministic: same inputs, same bytes.
  EXPECT_EQ(block, report::render_claim_block(set, result_for(rs, "T1")));
  const std::string full = report::render_report(set, rs);
  EXPECT_EQ(full, report::render_report(set, rs));
  EXPECT_NE(full.find("## Claim verdicts"), std::string::npos);
  EXPECT_NE(full.find("test-fixture"), std::string::npos);
}

TEST(Markdown, MarkerRewriteReplacesOnlyTheBlock) {
  const std::string doc = "intro\n" + report::begin_marker("T0") +
                          "\nold stuff\n" + report::end_marker("T0") +
                          "\ntail\n";
  const auto rw =
      report::rewrite_marker_blocks(doc, {{"T0", "new block\n"}});
  EXPECT_EQ(rw.text, "intro\n" + report::begin_marker("T0") +
                         "\nnew block\n" + report::end_marker("T0") +
                         "\ntail\n");
  ASSERT_EQ(rw.rewritten.size(), 1u);
  EXPECT_TRUE(rw.unmatched.empty());

  // Idempotent: rewriting the rewritten text is a no-op.
  const auto again =
      report::rewrite_marker_blocks(rw.text, {{"T0", "new block\n"}});
  EXPECT_EQ(again.text, rw.text);
}

TEST(Markdown, MarkerRewriteReportsUnmatchedIds) {
  const auto rw = report::rewrite_marker_blocks("no markers here",
                                               {{"T3", "block\n"}});
  EXPECT_EQ(rw.text, "no markers here");
  ASSERT_EQ(rw.unmatched.size(), 1u);
  EXPECT_EQ(rw.unmatched.front(), "T3");
}

TEST(Markdown, DanglingBeginMarkerThrows) {
  const std::string doc = report::begin_marker("T2") + "\nno end";
  EXPECT_THROW((void)report::rewrite_marker_blocks(doc, {{"T2", "x\n"}}),
               ReportError);
}

// -- release-engine claim (T-REL) and throughput floor --------------------

/// T-REL head-to-head series record ("engine-throughput" is SIMPLE's,
/// "engine-throughput-geo" GEO's): one row per (engine, rate) pair.
Json engine_throughput_record(
    const std::vector<std::pair<std::string, double>>& rates,
    const std::string& series = "engine-throughput") {
  Json rows = Json::array();
  for (const auto& [engine, rate] : rates) {
    Json row = Json::object();
    row.set("engine", engine)
        .set("shards", std::uint64_t{1})
        .set("threads", std::uint64_t{1})
        .set("updates_per_second", rate);
    rows.push(std::move(row));
  }
  Json rec = Json::object();
  rec.set("kind", "engine_throughput")
      .set("claim", "T-REL")
      .set("series", series)
      .set("rows", std::move(rows));
  return rec;
}

/// "shard-scaling" series record: one row per (shard count, rate) pair.
Json shard_scaling_record(
    const std::vector<std::pair<std::uint64_t, double>>& rates) {
  Json rows = Json::array();
  for (const auto& [shards, rate] : rates) {
    Json row = Json::object();
    row.set("shards", shards).set("updates_per_second", rate);
    rows.push(std::move(row));
  }
  Json rec = Json::object();
  rec.set("kind", "shard_scaling")
      .set("claim", "T9")
      .set("series", "shard-scaling")
      .set("rows", std::move(rows));
  return rec;
}

/// GEO head-to-head that clears both the fast and the full-mode bar.
Json passing_geo_record() {
  return engine_throughput_record({{"validated", 2000.0}, {"release", 14000.0}},
                                  "engine-throughput-geo");
}

TEST(Verdict, ReleaseClaimPassesAtFastModeBar) {
  TempDir dir;
  Json records = Json::array();
  // 6x beats the fast-mode bar of 5x (write_bench_file sets
  // fast_mode = true).
  records.push(
      engine_throughput_record({{"validated", 100000.0}, {"release", 600000.0}}));
  records.push(passing_geo_record());
  write_bench_file(dir.path, "shard", std::move(records));
  const auto rs =
      report::evaluate_claims(report::load_bench_dir(dir.path.string()));
  const ClaimResult& r = result_for(rs, "T-REL");
  EXPECT_EQ(r.status, Status::kPass);
  EXPECT_NE(r.headline.find("release over validated"), std::string::npos)
      << r.headline;
}

TEST(Verdict, ReleaseClaimFailsBelowFastModeBar) {
  TempDir dir;
  Json records = Json::array();
  records.push(
      engine_throughput_record({{"validated", 100000.0}, {"release", 300000.0}}));
  records.push(passing_geo_record());
  write_bench_file(dir.path, "shard", std::move(records));
  const auto rs =
      report::evaluate_claims(report::load_bench_dir(dir.path.string()));
  EXPECT_EQ(result_for(rs, "T-REL").status, Status::kFail);
}

TEST(Verdict, ReleaseClaimFailsWithoutBothEngines) {
  TempDir dir;
  Json records = Json::array();
  records.push(engine_throughput_record({{"validated", 100000.0}}));
  records.push(passing_geo_record());
  write_bench_file(dir.path, "shard", std::move(records));
  const auto rs =
      report::evaluate_claims(report::load_bench_dir(dir.path.string()));
  const ClaimResult& r = result_for(rs, "T-REL");
  EXPECT_EQ(r.status, Status::kFail);
  ASSERT_FALSE(r.checks.empty());
  EXPECT_NE(r.checks.back().find("need validated and release"),
            std::string::npos);
}

TEST(Verdict, ReleaseClaimFailsWhenGeoBelowSixX) {
  // A store that reseats per reordering move still clears SIMPLE's bar
  // but not GEO's (6x in fast mode too).
  TempDir dir;
  Json records = Json::array();
  records.push(engine_throughput_record(
      {{"validated", 100000.0}, {"release", 600000.0}}));
  records.push(engine_throughput_record(
      {{"validated", 2000.0}, {"release", 11000.0}}, "engine-throughput-geo"));
  write_bench_file(dir.path, "shard", std::move(records));
  const auto rs =
      report::evaluate_claims(report::load_bench_dir(dir.path.string()));
  const ClaimResult& r = result_for(rs, "T-REL");
  EXPECT_EQ(r.status, Status::kFail);
  bool saw = false;
  for (const std::string& line : r.checks) {
    if (line.rfind("FAIL: GEO", 0) == 0) saw = true;
  }
  EXPECT_TRUE(saw);
}

TEST(Verdict, ReleaseClaimHoldsGeoToSixXInFullMode) {
  for (const auto& [release, status] :
       {std::pair{11000.0, Status::kFail}, std::pair{13000.0, Status::kPass}}) {
    TempDir dir;
    Json records = Json::array();
    records.push(engine_throughput_record(
        {{"validated", 100000.0}, {"release", 1.1e6}}));
    records.push(engine_throughput_record(
        {{"validated", 2000.0}, {"release", release}},
        "engine-throughput-geo"));
    write_bench_file(dir.path, "shard", std::move(records), 2,
                     /*fast_mode=*/false);
    const auto rs =
        report::evaluate_claims(report::load_bench_dir(dir.path.string()));
    EXPECT_EQ(result_for(rs, "T-REL").status, status) << release;
  }
}

TEST(Verdict, ReleaseClaimFailsWithoutGeoSeries) {
  TempDir dir;
  Json records = Json::array();
  records.push(engine_throughput_record(
      {{"validated", 100000.0}, {"release", 600000.0}}));
  write_bench_file(dir.path, "shard", std::move(records));
  const auto rs =
      report::evaluate_claims(report::load_bench_dir(dir.path.string()));
  const ClaimResult& r = result_for(rs, "T-REL");
  EXPECT_EQ(r.status, Status::kFail);
  ASSERT_FALSE(r.checks.empty());
  EXPECT_NE(r.checks.front().find("engine-throughput-geo"), std::string::npos)
      << r.checks.front();
}

TEST(Floor, PassesWhenCurrentRatesHoldTheFloor) {
  TempDir base_dir, cur_dir;
  Json base = Json::array();
  base.push(
      engine_throughput_record({{"validated", 100000.0}, {"release", 1.0e6}}));
  base.push(shard_scaling_record({{1, 500000.0}, {4, 900000.0}}));
  const std::string base_path =
      write_bench_file(base_dir.path, "shard", std::move(base));

  Json cur = Json::array();
  // Slightly slower than baseline but above a 0.9 floor.
  cur.push(
      engine_throughput_record({{"validated", 98000.0}, {"release", 0.95e6}}));
  cur.push(shard_scaling_record({{1, 480000.0}, {4, 910000.0}}));
  write_bench_file(cur_dir.path, "shard", std::move(cur));

  const auto fr = report::check_throughput_floor(
      report::load_bench_dir(cur_dir.path.string()),
      report::load_bench_file(base_path), 0.9);
  EXPECT_TRUE(fr.ok);
  bool saw_release = false;
  for (const std::string& line : fr.lines) {
    EXPECT_EQ(line.find("FAIL"), std::string::npos) << line;
    if (line.find("engine release") != std::string::npos) {
      saw_release = true;
      EXPECT_EQ(line.rfind("ok: ", 0), 0u) << line;
    }
  }
  EXPECT_TRUE(saw_release);
}

TEST(Floor, FailsOnThroughputRegression) {
  TempDir base_dir, cur_dir;
  Json base = Json::array();
  base.push(
      engine_throughput_record({{"validated", 100000.0}, {"release", 1.0e6}}));
  const std::string base_path =
      write_bench_file(base_dir.path, "shard", std::move(base));

  Json cur = Json::array();
  // Release dropped to half the baseline: under any reasonable floor.
  cur.push(
      engine_throughput_record({{"validated", 100000.0}, {"release", 0.5e6}}));
  write_bench_file(cur_dir.path, "shard", std::move(cur));

  const auto fr = report::check_throughput_floor(
      report::load_bench_dir(cur_dir.path.string()),
      report::load_bench_file(base_path), 0.9);
  EXPECT_FALSE(fr.ok);
  bool saw_fail = false;
  for (const std::string& line : fr.lines) {
    if (line.rfind("FAIL: ", 0) == 0 &&
        line.find("engine release") != std::string::npos) {
      saw_fail = true;
    }
  }
  EXPECT_TRUE(saw_fail);
}

TEST(Floor, GeoSeriesHoldsItsOwnFloor) {
  TempDir base_dir, cur_dir;
  Json base = Json::array();
  base.push(
      engine_throughput_record({{"validated", 100000.0}, {"release", 1.0e6}}));
  base.push(engine_throughput_record(
      {{"validated", 2000.0}, {"release", 20000.0}}, "engine-throughput-geo"));
  const std::string base_path =
      write_bench_file(base_dir.path, "shard", std::move(base));

  Json cur = Json::array();
  // SIMPLE holds its floor; GEO release fell back to a third.
  cur.push(
      engine_throughput_record({{"validated", 100000.0}, {"release", 1.0e6}}));
  cur.push(engine_throughput_record(
      {{"validated", 2000.0}, {"release", 7000.0}}, "engine-throughput-geo"));
  write_bench_file(cur_dir.path, "shard", std::move(cur));

  const auto fr = report::check_throughput_floor(
      report::load_bench_dir(cur_dir.path.string()),
      report::load_bench_file(base_path), 0.5);
  EXPECT_FALSE(fr.ok);
  bool saw_fail = false;
  for (const std::string& line : fr.lines) {
    if (line.rfind("FAIL: engine-throughput-geo engine release", 0) == 0) {
      saw_fail = true;
    }
    if (line.find("engine-throughput engine") != std::string::npos) {
      EXPECT_EQ(line.rfind("ok: ", 0), 0u) << line;
    }
  }
  EXPECT_TRUE(saw_fail);
}

TEST(Floor, MissingCurrentSeriesFails) {
  TempDir base_dir, cur_dir;
  Json base = Json::array();
  base.push(
      engine_throughput_record({{"validated", 100000.0}, {"release", 1.0e6}}));
  base.push(shard_scaling_record({{1, 500000.0}}));
  const std::string base_path =
      write_bench_file(base_dir.path, "shard", std::move(base));

  Json cur = Json::array();  // current lacks shard-scaling
  cur.push(
      engine_throughput_record({{"validated", 100000.0}, {"release", 1.0e6}}));
  write_bench_file(cur_dir.path, "shard", std::move(cur));

  const auto fr = report::check_throughput_floor(
      report::load_bench_dir(cur_dir.path.string()),
      report::load_bench_file(base_path), 0.9);
  EXPECT_FALSE(fr.ok);
  bool saw = false;
  for (const std::string& line : fr.lines) {
    if (line.rfind("FAIL: ", 0) == 0 &&
        line.find("shard-scaling") != std::string::npos) {
      saw = true;
    }
  }
  EXPECT_TRUE(saw);
}

TEST(Floor, SeriesAbsentFromBaselineIsSkippedNotFailed) {
  TempDir base_dir, cur_dir;
  Json base = Json::array();  // baseline predates shard-scaling
  base.push(
      engine_throughput_record({{"validated", 100000.0}, {"release", 1.0e6}}));
  const std::string base_path =
      write_bench_file(base_dir.path, "shard", std::move(base));

  Json cur = Json::array();
  cur.push(
      engine_throughput_record({{"validated", 100000.0}, {"release", 1.0e6}}));
  cur.push(shard_scaling_record({{1, 500000.0}}));
  write_bench_file(cur_dir.path, "shard", std::move(cur));

  const auto fr = report::check_throughput_floor(
      report::load_bench_dir(cur_dir.path.string()),
      report::load_bench_file(base_path), 0.9);
  EXPECT_TRUE(fr.ok);
  bool saw_skip = false;
  for (const std::string& line : fr.lines) {
    if (line.rfind("note: ", 0) == 0 &&
        line.find("skipped") != std::string::npos) {
      saw_skip = true;
    }
  }
  EXPECT_TRUE(saw_skip);
}

TEST(Floor, MissingShardFileFails) {
  TempDir base_dir, cur_dir;  // cur_dir stays empty
  Json base = Json::array();
  base.push(
      engine_throughput_record({{"validated", 100000.0}, {"release", 1.0e6}}));
  const std::string base_path =
      write_bench_file(base_dir.path, "shard", std::move(base));

  const auto fr = report::check_throughput_floor(
      report::load_bench_dir(cur_dir.path.string()),
      report::load_bench_file(base_path), 0.9);
  EXPECT_FALSE(fr.ok);
  ASSERT_FALSE(fr.lines.empty());
  EXPECT_NE(fr.lines.front().find("BENCH_shard.json not found"),
            std::string::npos);
}

}  // namespace
}  // namespace memreal
