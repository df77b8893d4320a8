#include "percentile.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

/// 1-based nearest rank of the p-th percentile among n samples, computed
/// in integer parts-per-million so 99.9 * 1000 / 100 lands exactly on 999.
std::size_t nearest_rank(std::size_t n, double p) {
  const auto ppm = static_cast<unsigned long long>(std::llround(p * 1e4));
  const unsigned long long scaled = ppm * n;
  std::size_t rank = static_cast<std::size_t>((scaled + 999'999) / 1'000'000);
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  return sorted[nearest_rank(sorted.size(), p) - 1];
}

std::size_t samples_beyond(std::size_t n, double p) {
  if (n == 0) return 0;
  return n - nearest_rank(n, p);
}

double highest_tail_percentile(std::size_t n) {
  static constexpr double kLadder[] = {99.999, 99.99, 99.9, 99.0, 90.0, 50.0};
  for (const double p : kLadder) {
    if (samples_beyond(n, p) >= kMinTailSamples) return p;
  }
  return 0.0;
}

TailSummary summarize(std::vector<double>& samples) {
  std::sort(samples.begin(), samples.end());
  TailSummary s;
  s.n = samples.size();
  s.p50 = percentile(samples, 50.0);
  s.p99 = percentile(samples, 99.0);
  s.tail_p = highest_tail_percentile(s.n);
  s.tail = s.tail_p > 0.0 ? percentile(samples, s.tail_p) : 0.0;
  return s;
}

}  // namespace perfbench
