// Percentile reporting for the control-loop benchmark.
//
// Every timing is reported as its median plus the highest percentile that
// still has at least ten samples beyond it, together with the sample count.
// Percentiles of raw samples use the nearest-rank definition with integer
// rank arithmetic, so "ten samples beyond" is exact rather than subject to
// floating-point rounding. Timings that only exist as a bucketed
// LatencyHistogram also carry the bucket width at the reported value, which
// bounds how far apart two readings must be before they differ at all.

#ifndef CTLBENCH_STATS_H_
#define CTLBENCH_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/histogram.h"

namespace ctlbench {

// A percentile as the fraction num/den (99/100 is p99, 999/1000 is p99.9).
struct Quantile {
  uint64_t num = 1;
  uint64_t den = 2;
  double value() const { return static_cast<double>(num) / static_cast<double>(den); }
  // "p50", "p99", "p99.9", ...
  std::string Name() const;
};

inline constexpr Quantile kP10{1, 10};
inline constexpr Quantile kP25{1, 4};
inline constexpr Quantile kP40{2, 5};
inline constexpr Quantile kP50{1, 2};
inline constexpr Quantile kP90{9, 10};
inline constexpr Quantile kP99{99, 100};

// 1-based nearest rank of quantile q among n samples: ceil(q * n), at least 1.
uint64_t NearestRank(uint64_t n, Quantile q);

// Samples strictly above the nearest-rank position of q.
uint64_t SamplesBeyond(uint64_t n, Quantile q);

// The highest of p90, p99, p99.9, p99.99, p99.999 that leaves at least ten
// samples beyond it; p50 when even p90 does not.
Quantile TailQuantile(uint64_t n);

struct Summary {
  uint64_t count = 0;
  double p25 = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  Quantile tail = kP50;  // TailQuantile(count)
  double tail_value = 0.0;
  // Bucket width at p50 / tail for histogram sources; 0 for raw samples.
  double p50_bucket = 0.0;
  double tail_bucket = 0.0;
};

// Nearest-rank percentile of samples sorted ascending; 0 when empty.
double SortedPercentile(const std::vector<double>& sorted, Quantile q);

// Summarizes raw samples (sorts `samples` in place). Empty input gives an
// all-zero summary.
Summary Summarize(std::vector<double>& samples);

// Summarizes a bucketed histogram; values are bucket midpoints.
Summary Summarize(const atropos::LatencyHistogram& hist);

// Percentile of a bucketed histogram, interpolated linearly by rank within
// the bucket that holds it. Bucket midpoints make stable percentiles read
// exactly the same run after run; interpolation keeps them continuous.
double InterpolatedPercentile(const atropos::LatencyHistogram& hist, Quantile q);

// Width of the LatencyHistogram bucket holding `value` (1 below 64).
uint64_t BucketWidth(uint64_t value);

// Median of a small set of readings (copies; empty gives 0).
double Median(std::vector<double> values);

}  // namespace ctlbench

#endif  // CTLBENCH_STATS_H_
