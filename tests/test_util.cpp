// Unit tests for the util substrate: rng, stats, fit, thresholds
// (Lemmas 4.3 / 4.4), parallel, table, json.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include <cstdint>
#include <unordered_map>

#include "fuzz/fuzzer.h"
#include "util/check.h"
#include "util/fit.h"
#include "util/flat_map.h"
#include "util/json.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/thresholds.h"

namespace memreal {
namespace {

// -- rng ---------------------------------------------------------------

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, SplitMix64MatchesReferenceStream) {
  // The reference SplitMix64 outputs for seed 0: every seed expansion,
  // FlatIdMap bucket and arena fill byte derives from this function.
  SplitMix64 sm(0);
  EXPECT_EQ(sm.next(), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(sm.next(), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(sm.next(), 0x06c45d188009454fULL);
  EXPECT_EQ(mix64(0x9e3779b97f4a7c15ULL), 0xe220a8397b1dcdafULL);
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng r(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(r.next_below(bound), bound);
  }
}

TEST(Rng, NextInIsInclusive) {
  Rng r(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(r.next_in(3, 5));
  EXPECT_EQ(seen, (std::set<std::uint64_t>{3, 4, 5}));
}

TEST(Rng, NextBelowIsRoughlyUniform) {
  Rng r(99);
  std::vector<int> counts(8, 0);
  const int n = 80'000;
  for (int i = 0; i < n; ++i) ++counts[r.next_below(8)];
  for (int c : counts) {
    EXPECT_NEAR(c, n / 8, n / 8 * 0.1);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng r(5);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto w = v;
  r.shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Rng, ShuffleActuallyPermutes) {
  Rng r(5);
  std::vector<int> v(50);
  for (int i = 0; i < 50; ++i) v[i] = i;
  auto w = v;
  r.shuffle(w);
  EXPECT_NE(v, w);
}

TEST(Rng, NextTickInHalfOpen) {
  Rng r(11);
  for (int i = 0; i < 1000; ++i) {
    const Tick t = r.next_tick_in(10, 20);
    EXPECT_GE(t, 10u);
    EXPECT_LT(t, 20u);
  }
}

// -- stats -------------------------------------------------------------

TEST(StreamingStats, Moments) {
  StreamingStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
  EXPECT_NEAR(s.variance(), 1.25, 1e-12);
}

TEST(StreamingStats, MergeMatchesSequential) {
  StreamingStats a, b, all;
  Rng r(1);
  for (int i = 0; i < 100; ++i) {
    const double x = r.next_double();
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-12);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(StreamingStats, MergeEmpty) {
  StreamingStats a, b;
  a.add(1.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.0);
}

TEST(StreamingStats, MergeOverRandomPartitionsMatchesSingleStream) {
  // Property: splitting one stream into any number of sub-accumulators
  // and merging them back reproduces the single-stream moments exactly
  // (count/min/max/sum) or to rounding (mean/variance).  This is the
  // reduction the serving layer's merged ShardedRunStats relies on.
  Rng r(42);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t parts = 1 + r.next_below(7);
    const std::size_t n = 1 + r.next_below(500);
    std::vector<StreamingStats> partial(parts);
    StreamingStats whole;
    for (std::size_t i = 0; i < n; ++i) {
      const double x = (r.next_double() - 0.5) * 1e3;
      whole.add(x);
      partial[r.next_below(parts)].add(x);
    }
    StreamingStats merged;
    for (const StreamingStats& p : partial) merged.merge(p);
    ASSERT_EQ(merged.count(), whole.count());
    EXPECT_DOUBLE_EQ(merged.min(), whole.min());
    EXPECT_DOUBLE_EQ(merged.max(), whole.max());
    EXPECT_NEAR(merged.sum(), whole.sum(), 1e-9 * n);
    EXPECT_NEAR(merged.mean(), whole.mean(), 1e-9);
    EXPECT_NEAR(merged.variance(), whole.variance(), 1e-6);
  }
}

TEST(Quantiles, MedianAndExtremes) {
  Quantiles q;
  for (int i = 1; i <= 101; ++i) q.add(i);
  EXPECT_DOUBLE_EQ(q.quantile(0.5), 51.0);
  EXPECT_DOUBLE_EQ(q.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(q.quantile(1.0), 101.0);
}

TEST(Quantiles, EmptyReturnsZero) {
  Quantiles q;
  EXPECT_DOUBLE_EQ(q.quantile(0.5), 0.0);
}

TEST(Quantiles, InterleavedAddAndQueryStaysSorted) {
  // Regression: add() used to leave the sorted_ cache set, so samples
  // appended after a quantile() call were never re-sorted and every
  // later quantile read from a partially sorted vector — exactly the
  // add/query interleaving an online latency recorder produces.
  Quantiles q;
  q.add(50.0);
  q.add(10.0);
  EXPECT_DOUBLE_EQ(q.quantile(1.0), 50.0);  // sorts {10, 50}
  q.add(5.0);  // appended below the sorted prefix
  EXPECT_DOUBLE_EQ(q.quantile(0.0), 5.0);
  EXPECT_DOUBLE_EQ(q.quantile(1.0), 50.0);
  q.add(100.0);
  q.add(1.0);
  EXPECT_DOUBLE_EQ(q.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(q.quantile(0.5), 10.0);
  EXPECT_DOUBLE_EQ(q.quantile(1.0), 100.0);

  // The same interleaving against a reference that sorts from scratch
  // on every query, on a random stream.
  Rng r(7);
  Quantiles online;
  std::vector<double> all;
  for (int i = 0; i < 500; ++i) {
    const double x = r.next_double() * 1e4;
    online.add(x);
    all.push_back(x);
    if (i % 37 == 0) (void)online.quantile(0.99);  // poison the cache
  }
  auto sorted = all;
  std::sort(sorted.begin(), sorted.end());
  for (const double p : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    Quantiles fresh;
    for (const double x : all) fresh.add(x);
    EXPECT_DOUBLE_EQ(online.quantile(p), fresh.quantile(p)) << p;
  }
  EXPECT_DOUBLE_EQ(online.quantile(0.0), sorted.front());
  EXPECT_DOUBLE_EQ(online.quantile(1.0), sorted.back());
}

TEST(Quantiles, MergeConcatenatesAndInvalidates) {
  Quantiles a;
  Quantiles b;
  a.add(1.0);
  a.add(3.0);
  EXPECT_DOUBLE_EQ(a.quantile(1.0), 3.0);  // sort a's cache
  b.add(0.5);
  b.add(9.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_DOUBLE_EQ(a.quantile(0.0), 0.5);
  EXPECT_DOUBLE_EQ(a.quantile(1.0), 9.0);
  const Quantiles empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 4u);
}

TEST(Histogram, BucketsAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(-5.0);   // clamps to bucket 0
  h.add(0.5);
  h.add(9.5);
  h.add(25.0);   // clamps to last bucket
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(9), 2u);
  EXPECT_DOUBLE_EQ(h.bucket_lo(5), 5.0);
}

// -- fit ---------------------------------------------------------------

TEST(Fit, LinearExact) {
  std::vector<double> x{1, 2, 3, 4}, y{3, 5, 7, 9};  // y = 1 + 2x
  const LinearFit f = fit_linear(x, y);
  EXPECT_NEAR(f.slope, 2.0, 1e-12);
  EXPECT_NEAR(f.intercept, 1.0, 1e-12);
  EXPECT_NEAR(f.r2, 1.0, 1e-12);
}

TEST(Fit, PowerLawRecoversExponent) {
  std::vector<double> x, y;
  for (double v : {4.0, 16.0, 64.0, 256.0}) {
    x.push_back(v);
    y.push_back(3.0 * std::pow(v, 0.5));
  }
  const PowerLawFit f = fit_power_law(x, y);
  EXPECT_NEAR(f.exponent, 0.5, 1e-9);
  EXPECT_NEAR(std::exp(f.log_coeff), 3.0, 1e-9);
}

TEST(Fit, PowerLawRejectsNonPositive) {
  std::vector<double> x{1.0, 2.0}, y{0.0, 1.0};
  EXPECT_THROW((void)fit_power_law(x, y), InvariantViolation);
}

TEST(Fit, RejectsMismatchedSizes) {
  std::vector<double> x{1.0, 2.0}, y{1.0};
  EXPECT_THROW((void)fit_linear(x, y), InvariantViolation);
}

// -- thresholds (Lemmas 4.3 / 4.4) --------------------------------------

TEST(ContinuousThreshold, ThresholdInWindow) {
  Rng r(1);
  ContinuousThreshold t(1000, r);
  EXPECT_GE(t.threshold(), 500u);
  EXPECT_LT(t.threshold(), 1000u);
}

TEST(ContinuousThreshold, OverflowCarries) {
  Rng r(1);
  ContinuousThreshold t(1000, r);
  const Tick thr = t.threshold();
  // One huge addition crosses: the overflow must carry.
  ASSERT_TRUE(t.add(thr + 137));
  EXPECT_EQ(t.accumulated(), 137u);
}

TEST(ContinuousThreshold, CrossesEventually) {
  Rng r(2);
  ContinuousThreshold t(1000, r);
  int crossings = 0;
  Tick total = 0;
  while (total < 100'000) {
    total += 100;
    crossings += t.add(100);
  }
  // Expected threshold ~750 per crossing: about 133 crossings.
  EXPECT_NEAR(crossings, 133, 35);
}

TEST(ContinuousThreshold, Lemma43CrossingProbability) {
  // Lemma 4.3: Pr[exists j with partial sum in [a, b]] <= 4 (b - a) / W.
  // Empirical check with W = 1000, [a, b] = [10000, 10050]: bound 0.2.
  const Tick W = 1000;
  const Tick a = 10'000, b = 10'050;
  int hits = 0;
  const int trials = 4000;
  for (int tr = 0; tr < trials; ++tr) {
    Rng r(1000 + tr);
    Tick sum = 0;
    while (sum < b) {
      sum += r.next_tick_in(W / 2, W);
      if (sum >= a && sum <= b) {
        ++hits;
        break;
      }
    }
  }
  const double p = static_cast<double>(hits) / trials;
  EXPECT_LE(p, 4.0 * static_cast<double>(b - a) / W + 0.03);
}

TEST(CountThreshold, RangeMatchesLemma44) {
  Rng r(3);
  CountThreshold t(100, r);
  EXPECT_EQ(t.range_lo(), 25u);
  EXPECT_EQ(t.range_hi(), 34u);
  for (int i = 0; i < 200; ++i) {
    const auto thr = t.threshold();
    EXPECT_GE(thr, 25u);
    EXPECT_LE(thr, 34u);
    t.reset_free();
  }
}

TEST(CountThreshold, SmallNAlwaysOne) {
  Rng r(3);
  for (std::uint64_t n : {1ULL, 2ULL, 3ULL}) {
    CountThreshold t(n, r);
    EXPECT_EQ(t.threshold(), 1u);
    EXPECT_TRUE(t.tick());
  }
}

TEST(CountThreshold, Lemma44HitProbability) {
  // Lemma 4.4: Pr[some partial sum equals y] <= 100 / N.
  const std::uint64_t N = 64;
  const std::uint64_t y = 1000;
  int hits = 0;
  const int trials = 4000;
  for (int tr = 0; tr < trials; ++tr) {
    Rng r(5000 + tr);
    std::uint64_t sum = 0;
    while (sum < y) {
      sum += r.next_in(ceil_div(N, 4), ceil_div(N, 3));
      if (sum == y) {
        ++hits;
        break;
      }
    }
  }
  const double p = static_cast<double>(hits) / trials;
  EXPECT_LE(p, 100.0 / N);
  // And it is not trivially zero: the average gap is ~N/3.6, so the hit
  // rate should be on the order of 1/N.
  EXPECT_GT(p, 0.2 / N);
}

TEST(CeilDiv, Basics) {
  EXPECT_EQ(ceil_div(10, 3), 4u);
  EXPECT_EQ(ceil_div(9, 3), 3u);
  EXPECT_EQ(ceil_div(1, 1), 1u);
  EXPECT_EQ(ceil_div(0, 5), 0u);
}

// -- parallel ------------------------------------------------------------

TEST(Parallel, ForCoversAllIndices) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, ForPropagatesException) {
  EXPECT_THROW(
      parallel_for(100,
                   [&](std::size_t i) {
                     if (i == 57) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

TEST(Parallel, PoolRunsTasks) {
  ThreadPool pool(4);
  std::atomic<int> sum{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&] { sum.fetch_add(1); });
  }
  pool.wait();
  EXPECT_EQ(sum.load(), 100);
}

TEST(Parallel, PoolPropagatesException) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(pool.wait(), std::runtime_error);
}

TEST(Parallel, ZeroItemsIsNoop) {
  parallel_for(0, [&](std::size_t) { FAIL(); });
}

TEST(Parallel, PoolFirstErrorWins) {
  // One worker serializes execution; whichever failing task *runs* first
  // is the one wait() must rethrow (later errors are dropped).
  ThreadPool pool(1);
  std::mutex mu;
  std::vector<std::string> raised;
  for (const char* name : {"alpha", "beta", "gamma"}) {
    pool.submit([&mu, &raised, name] {
      {
        std::lock_guard<std::mutex> lock(mu);
        raised.emplace_back(name);
      }
      throw std::runtime_error(name);
    });
  }
  try {
    pool.wait();
    FAIL() << "wait() must rethrow";
  } catch (const std::runtime_error& e) {
    ASSERT_FALSE(raised.empty());
    EXPECT_EQ(std::string(e.what()), raised.front());
  }
}

TEST(Parallel, PoolIsReusableAfterFailure) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.wait(), std::runtime_error);
  // The error is consumed: the pool keeps running tasks and the next
  // wait() is clean.
  std::atomic<int> sum{0};
  for (int i = 0; i < 50; ++i) {
    pool.submit([&] { sum.fetch_add(1); });
  }
  EXPECT_NO_THROW(pool.wait());
  EXPECT_EQ(sum.load(), 50);
  EXPECT_NO_THROW(pool.wait());  // idle wait is a no-op
}

TEST(Parallel, PoolSurvivesFailuresAcrossManyTasks) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&ran, i] {
      ran.fetch_add(1);
      if (i % 10 == 3) throw std::runtime_error("sporadic");
    });
  }
  EXPECT_THROW(pool.wait(), std::runtime_error);
  // Failing tasks never wedge the queue: everything ran exactly once.
  EXPECT_EQ(ran.load(), 100);
}

TEST(Parallel, PerIndexSeedingIsThreadCountInvariant) {
  // The fuzzer's reproducibility contract: work derived purely from the
  // loop index is identical no matter how the indices are scheduled.
  auto run = [](std::size_t threads) {
    std::vector<std::uint64_t> out(200);
    parallel_for(
        out.size(),
        [&](std::size_t i) {
          Rng rng(iteration_seed(99, i));
          out[i] = rng.next_u64();
        },
        threads);
    return out;
  };
  const auto serial = run(1);
  EXPECT_EQ(serial, run(2));
  EXPECT_EQ(serial, run(7));
  EXPECT_EQ(serial, run(0));  // all cores
}

// -- table ---------------------------------------------------------------

TEST(Table, RendersAlignedCells) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22222"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RejectsArityMismatch) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), InvariantViolation);
}

TEST(Table, NumFormatsSignificantDigits) {
  EXPECT_EQ(Table::num(3.14159, 3), "3.14");
}

// -- json -----------------------------------------------------------------

TEST(Json, DumpsScalarsObjectsAndArrays) {
  Json doc = Json::object();
  doc.set("name", "bench").set("ok", true).set("count", std::uint64_t{42});
  Json arr = Json::array();
  arr.push(1.5).push(Json());  // null
  doc.set("values", std::move(arr));
  EXPECT_EQ(doc.dump(),
            "{\"name\":\"bench\",\"ok\":true,\"count\":42,"
            "\"values\":[1.5,null]}");
}

TEST(Json, KeepsInsertionOrderAndPrettyPrints) {
  Json doc = Json::object();
  doc.set("b", 1).set("a", 2);
  EXPECT_EQ(doc.dump(2), "{\n  \"b\": 1,\n  \"a\": 2\n}");
}

TEST(Json, EscapesStringsAndHandlesNonFinite) {
  Json doc = Json::object();
  doc.set("s", "a\"b\\c\nd").set("inf", Json(1.0 / 0.0));
  EXPECT_EQ(doc.dump(), "{\"s\":\"a\\\"b\\\\c\\nd\",\"inf\":null}");
}

TEST(Json, LargeUintsAndDoublesRoundTripExactly) {
  Json doc = Json::array();
  doc.push(std::uint64_t{1} << 50).push(0.1);
  const std::string s = doc.dump();
  EXPECT_NE(s.find("1125899906842624"), std::string::npos);
  EXPECT_EQ(std::stod(s.substr(s.find(',') + 1)), 0.1);
}

TEST(Json, SetOnNonObjectThrows) {
  Json arr = Json::array();
  EXPECT_THROW(arr.set("k", 1), InvariantViolation);
  Json obj = Json::object();
  EXPECT_THROW(obj.push(1), InvariantViolation);
}

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_TRUE(Json::parse("true").as_bool());
  EXPECT_FALSE(Json::parse("false").as_bool());
  EXPECT_EQ(Json::parse("42").as_u64(), 42u);
  EXPECT_TRUE(Json::parse("42").is_uint());
  EXPECT_DOUBLE_EQ(Json::parse("-3.5").as_double(), -3.5);
  EXPECT_FALSE(Json::parse("-1").is_uint());  // negatives become doubles
  EXPECT_DOUBLE_EQ(Json::parse("1e3").as_double(), 1000.0);
  EXPECT_EQ(Json::parse("\"hi\\n\\\"there\\\"\"").as_string(),
            "hi\n\"there\"");
  EXPECT_EQ(Json::parse("\"\\u0041\\u00e9\"").as_string(), "A\xc3\xa9");
}

TEST(Json, ParsesNestedStructures) {
  const Json doc =
      Json::parse("{\"a\": [1, 2.5, {\"b\": null}], \"c\": \"x\"}");
  EXPECT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("a").size(), 3u);
  EXPECT_EQ(doc.at("a").at(0).as_u64(), 1u);
  EXPECT_DOUBLE_EQ(doc.at("a").at(1).as_double(), 2.5);
  EXPECT_TRUE(doc.at("a").at(2).at("b").is_null());
  EXPECT_EQ(doc.at("c").as_string(), "x");
  EXPECT_EQ(doc.find("missing"), nullptr);
  EXPECT_THROW(doc.at("missing"), JsonParseError);
  EXPECT_THROW(doc.at("a").at(3), JsonParseError);
}

TEST(Json, DumpParseRoundTripsExactly) {
  Json doc = Json::object();
  doc.set("bench", "shard")
      .set("schema", std::uint64_t{2})
      .set("big", (std::uint64_t{1} << 60) + 7)
      .set("x", 0.1)
      .set("flag", false)
      .set("nothing", Json());
  Json arr = Json::array();
  arr.push(1.5).push("s").push(std::uint64_t{3});
  doc.set("arr", std::move(arr));
  for (const int indent : {0, 2}) {
    const std::string s = doc.dump(indent);
    EXPECT_EQ(Json::parse(s).dump(indent), s);
  }
}

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_THROW(Json::parse(""), JsonParseError);
  EXPECT_THROW(Json::parse("{\"a\": 1,}"), JsonParseError);
  EXPECT_THROW(Json::parse("[1, 2"), JsonParseError);
  EXPECT_THROW(Json::parse("\"unterminated"), JsonParseError);
  EXPECT_THROW(Json::parse("{\"a\" 1}"), JsonParseError);
  EXPECT_THROW(Json::parse("tru"), JsonParseError);
  EXPECT_THROW(Json::parse("1 2"), JsonParseError);  // trailing garbage
  EXPECT_THROW(Json::parse("nan"), JsonParseError);
}

TEST(Json, ParseEnforcesStrictNumberGrammar) {
  EXPECT_THROW(Json::parse(".5"), JsonParseError);
  EXPECT_THROW(Json::parse("1."), JsonParseError);
  EXPECT_THROW(Json::parse("007"), JsonParseError);
  EXPECT_THROW(Json::parse("0123"), JsonParseError);
  EXPECT_THROW(Json::parse("+1"), JsonParseError);
  EXPECT_THROW(Json::parse("1e"), JsonParseError);
  EXPECT_THROW(Json::parse("1e+"), JsonParseError);
  EXPECT_THROW(Json::parse("1e999"), JsonParseError);  // out of range
  EXPECT_DOUBLE_EQ(Json::parse("0.5").as_double(), 0.5);
  EXPECT_EQ(Json::parse("0").as_u64(), 0u);
  // Integers above 2^64 - 1 are representable only as doubles.
  EXPECT_TRUE(Json::parse("20000000000000000000").is_number());
  EXPECT_FALSE(Json::parse("20000000000000000000").is_uint());
}

TEST(Json, ParseErrorNamesLineAndColumn) {
  try {
    Json::parse("{\n  \"a\": @\n}");
    FAIL() << "expected JsonParseError";
  } catch (const JsonParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(Json, AccessorsRejectWrongKinds) {
  const Json doc = Json::parse("{\"s\": \"x\", \"n\": 1.5}");
  EXPECT_THROW(doc.at("s").as_double(), JsonParseError);
  EXPECT_THROW(doc.at("n").as_u64(), JsonParseError);  // not integral
  EXPECT_THROW(doc.at("n").as_string(), JsonParseError);
  EXPECT_THROW(doc.at("s").find("k"), JsonParseError);
  EXPECT_DOUBLE_EQ(Json::parse("7").as_double(), 7.0);  // uint as double ok
}

// -- check ----------------------------------------------------------------

TEST(Check, ThrowsWithMessage) {
  try {
    MEMREAL_CHECK_MSG(false, "context " << 42);
    FAIL();
  } catch (const InvariantViolation& e) {
    EXPECT_NE(std::string(e.what()).find("context 42"), std::string::npos);
  }
}

// -- FlatIdMap deletion churn ---------------------------------------------

/// The next id >= `start` whose home bucket is `home` in a table of
/// `buckets` (power of two) slots — FlatIdMap hashes keys with mix64, so
/// tests can craft probe-chain clustering and wrap-around.
ItemId key_with_home(std::size_t home, std::size_t buckets, ItemId start) {
  ItemId id = start;
  while ((mix64(id) & (buckets - 1)) != home) ++id;
  return id;
}

TEST(FlatIdMap, BackwardShiftRepairsAWrappedProbeChain) {
  // Three keys homed at the LAST bucket of an 8-slot table occupy buckets
  // 7, 0, 1 — a probe chain crossing the wrap-around.  Erasing the head
  // exercises the wrapped arm of the backward-shift reachability test.
  FlatIdMap<int> m(8);
  const ItemId k1 = key_with_home(7, 8, 1);
  const ItemId k2 = key_with_home(7, 8, k1 + 1);
  const ItemId k3 = key_with_home(7, 8, k2 + 1);
  m[k1] = 1;
  m[k2] = 2;
  m[k3] = 3;
  m.erase(k1);
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m.find(k1), nullptr);
  ASSERT_NE(m.find(k2), nullptr);
  EXPECT_EQ(*m.find(k2), 2);
  ASSERT_NE(m.find(k3), nullptr);
  EXPECT_EQ(*m.find(k3), 3);
  m.erase(k2);
  ASSERT_NE(m.find(k3), nullptr);
  EXPECT_EQ(*m.find(k3), 3);
}

TEST(FlatIdMap, BackwardShiftDoesNotLiftAKeyPastItsHome) {
  // A key homed exactly at the erased slot's successor must NOT be
  // back-shifted into the hole (it is unreachable from the hole's probe
  // position) — the classic backward-shift-deletion trap.
  FlatIdMap<int> m(8);
  const ItemId at3 = key_with_home(3, 8, 1);
  const ItemId at4 = key_with_home(4, 8, at3 + 1);
  m[at3] = 33;
  m[at4] = 44;  // sits in its own home bucket 4, not displaced
  m.erase(at3);
  ASSERT_NE(m.find(at4), nullptr);
  EXPECT_EQ(*m.find(at4), 44);
  // at4 must still be at its home (re-inserting a fresh key homed at 3
  // cannot collide with it).
  const ItemId fresh = key_with_home(3, 8, at4 + 1);
  m[fresh] = 55;
  EXPECT_EQ(*m.find(at4), 44);
  EXPECT_EQ(*m.find(fresh), 55);
}

TEST(FlatIdMap, GrowthBoundaryPreservesEveryEntry) {
  // Load factor 5/8: an 8-slot table grows on the 5th insert, 16 on the
  // 10th, ... — insert across several boundaries and verify every entry
  // after each step.
  FlatIdMap<std::uint64_t> m(8);
  std::vector<ItemId> keys;
  for (ItemId id = 1; id <= 200; ++id) {
    m[id] = id * 7;
    keys.push_back(id);
    if (keys.size() % 5 == 0) {  // around each x5/8 boundary
      for (const ItemId k : keys) {
        ASSERT_NE(m.find(k), nullptr) << "after inserting " << id;
        ASSERT_EQ(*m.find(k), k * 7);
      }
    }
  }
  EXPECT_EQ(m.size(), 200u);
}

TEST(FlatIdMap, ReinsertAfterEraseValueInitializes) {
  FlatIdMap<int> m(8);
  m[42] = 9;
  m.erase(42);
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m[42], 0) << "operator[] must value-initialize a fresh entry";
  m[42] = 10;
  EXPECT_EQ(m.at(42), 10);
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatIdMap, EraseOfAbsentKeyIsANoop) {
  FlatIdMap<int> m(8);
  m[1] = 1;
  m.erase(999);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(m.at(1), 1);
}

TEST(FlatIdMap, RandomizedChurnMatchesUnorderedMap) {
  FlatIdMap<std::uint64_t> m(8);
  std::unordered_map<ItemId, std::uint64_t> ref;
  Rng rng(2024);
  for (int step = 0; step < 20000; ++step) {
    const ItemId id = 1 + rng.next_below(400);  // dense: heavy collisions
    switch (rng.next_below(3)) {
      case 0:
        m[id] = step;
        ref[id] = step;
        break;
      case 1:
        m.erase(id);
        ref.erase(id);
        break;
      default: {
        const std::uint64_t* got = m.find(id);
        const auto it = ref.find(id);
        if (it == ref.end()) {
          ASSERT_EQ(got, nullptr) << "step " << step << " id " << id;
        } else {
          ASSERT_NE(got, nullptr) << "step " << step << " id " << id;
          ASSERT_EQ(*got, it->second);
        }
        break;
      }
    }
    ASSERT_EQ(m.size(), ref.size()) << "step " << step;
  }
  for (const auto& [id, v] : ref) {
    ASSERT_NE(m.find(id), nullptr);
    ASSERT_EQ(*m.find(id), v);
  }
}

}  // namespace
}  // namespace memreal
