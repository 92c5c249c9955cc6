#ifndef LOOPBENCH_STATS_H_
#define LOOPBENCH_STATS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <vector>

namespace loopbench {

// Percentiles are given in per-mille (500 = median, 950 = p95) so the
// rank arithmetic below is exact integer math.

// 1-based nearest rank of per-mille `p` among `n` sorted samples.
inline std::size_t NearestRank(std::size_t n, std::size_t p) {
  const std::size_t rank = (p * n + 999) / 1000;
  return std::max<std::size_t>(rank, 1);
}

// The percentile rule: a tail percentile is reported only when at least
// ten samples lie beyond it; a "p95" of 50 samples is no tail.
inline bool TailReportable(std::size_t n, std::size_t p) {
  return n > 0 && n - NearestRank(n, p) >= 10;
}

// The highest of p99.9 / p99 / p95 / p90 the rule allows for `n` samples,
// or 0 when none is (report the median alone).
inline std::size_t HighestTail(std::size_t n) {
  for (std::size_t p : {999u, 990u, 950u, 900u}) {
    if (TailReportable(n, p)) return p;
  }
  return 0;
}

// Nearest-rank percentile; 0 for an empty sample set.
inline double Percentile(std::vector<double> samples, std::size_t p) {
  if (samples.empty()) return 0.0;
  const std::size_t k = NearestRank(samples.size(), p) - 1;
  std::nth_element(samples.begin(), samples.begin() + k, samples.end());
  return samples[k];
}

inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 500);
}

// Percentile `p` when the rule allows it for these samples, else 0.
inline double TailOrZero(const std::vector<double>& samples, std::size_t p) {
  return TailReportable(samples.size(), p) ? Percentile(samples, p) : 0.0;
}

// Prints a timing distribution to standard error: its sample count, its
// median and the highest tail percentile the rule above allows.
inline void Describe(const char* name, const std::vector<double>& samples) {
  const std::size_t tail = HighestTail(samples.size());
  std::fprintf(stderr, "%s: n=%zu p50=%.6g", name, samples.size(),
               Median(samples));
  if (tail != 0) {
    std::fprintf(stderr, " p%g=%.6g", static_cast<double>(tail) / 10.0,
                 Percentile(samples, tail));
  }
  std::fprintf(stderr, "\n");
}

// Prints one value per pass to standard error, to show drift within a run.
inline void PrintPerPass(const char* name, const std::vector<double>& values) {
  std::fprintf(stderr, "%s per pass:", name);
  for (double v : values) std::fprintf(stderr, " %.4g", v);
  std::fprintf(stderr, "\n");
}

}  // namespace loopbench

#endif  // LOOPBENCH_STATS_H_
