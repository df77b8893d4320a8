// Percentiles for the benchmark's timing samples.
//
// A timing is reported as its median plus the highest percentile that
// still has at least ten samples beyond it (a p99 over 200 samples is two
// samples, i.e. noise).  Percentiles use the nearest-rank definition: the
// p-th percentile of n sorted samples is the sample at 1-based rank
// ceil(p/100 * n), and the samples "beyond" it are the n - rank above it.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Samples that must lie beyond a reported tail percentile.
inline constexpr std::size_t kMinTailSamples = 10;

/// Nearest-rank percentile (p in [0, 100]) of `sorted`, which must be
/// sorted ascending; 0 when empty.
[[nodiscard]] double percentile(const std::vector<double>& sorted, double p);

/// Samples strictly beyond the nearest-rank p-th percentile of n samples.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double p);

/// The highest of 50, 90, 99, 99.9, 99.99 and 99.999 that has at least
/// kMinTailSamples samples beyond it among n samples; 0 when even the
/// median does not (n < 20).
[[nodiscard]] double highest_tail_percentile(std::size_t n);

/// Median and tail of one timing series.
struct TailSummary {
  std::size_t n = 0;
  double p50 = 0.0;
  double p99 = 0.0;         ///< valid only when tail_p >= 99
  double tail_p = 0.0;      ///< highest_tail_percentile(n)
  double tail = 0.0;        ///< the value at tail_p
};

/// Sorts `samples` in place and summarizes them.
[[nodiscard]] TailSummary summarize(std::vector<double>& samples);

}  // namespace perfbench
