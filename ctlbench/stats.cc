#include "stats.h"

#include <algorithm>
#include <bit>
#include <cstdio>

namespace ctlbench {

std::string Quantile::Name() const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "p%.10g", 100.0 * value());
  return buf;
}

uint64_t NearestRank(uint64_t n, Quantile q) {
  const uint64_t rank = (q.num * n + q.den - 1) / q.den;
  return std::max<uint64_t>(rank, 1);
}

uint64_t SamplesBeyond(uint64_t n, Quantile q) {
  return n == 0 ? 0 : n - NearestRank(n, q);
}

Quantile TailQuantile(uint64_t n) {
  static constexpr Quantile kTails[] = {
      {99999, 100000}, {9999, 10000}, {999, 1000}, {99, 100}, {9, 10}};
  for (const Quantile& q : kTails) {
    if (SamplesBeyond(n, q) >= 10) {
      return q;
    }
  }
  return kP50;
}

double SortedPercentile(const std::vector<double>& sorted, Quantile q) {
  return sorted.empty() ? 0.0 : sorted[NearestRank(sorted.size(), q) - 1];
}

Summary Summarize(std::vector<double>& samples) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) {
    return s;
  }
  std::sort(samples.begin(), samples.end());
  s.p25 = SortedPercentile(samples, kP25);
  s.p50 = SortedPercentile(samples, kP50);
  s.p99 = SortedPercentile(samples, kP99);
  s.tail = TailQuantile(s.count);
  s.tail_value = SortedPercentile(samples, s.tail);
  return s;
}

uint64_t BucketWidth(uint64_t value) {
  const int sub_bits = atropos::hist_detail::kSubBucketBits;
  if (value < static_cast<uint64_t>(atropos::hist_detail::kSubBuckets)) {
    return 1;
  }
  const int msb = 63 - std::countl_zero(value);
  return 1ull << (msb - sub_bits);
}

Summary Summarize(const atropos::LatencyHistogram& hist) {
  Summary s;
  s.count = hist.count();
  if (s.count == 0) {
    return s;
  }
  // LatencyHistogram::Percentile(q) reads 0-based rank floor(q * n); asking
  // for the middle of the nearest-rank sample selects exactly that rank.
  auto at = [&](Quantile q) {
    const double rank = static_cast<double>(NearestRank(s.count, q)) - 0.5;
    return static_cast<double>(hist.Percentile(rank / static_cast<double>(s.count)));
  };
  s.p25 = at(kP25);
  s.p50 = at(kP50);
  s.p99 = at(kP99);
  s.tail = TailQuantile(s.count);
  s.tail_value = at(s.tail);
  s.p50_bucket = static_cast<double>(BucketWidth(static_cast<uint64_t>(s.p50)));
  s.tail_bucket = static_cast<double>(BucketWidth(static_cast<uint64_t>(s.tail_value)));
  return s;
}

double InterpolatedPercentile(const atropos::LatencyHistogram& hist, Quantile q) {
  const uint64_t n = hist.count();
  if (n == 0) {
    return 0.0;
  }
  // Midpoint of the bucket holding the sample of 0-based rank k.
  auto at = [&](uint64_t k) {
    return hist.Percentile((static_cast<double>(k) + 0.5) / static_cast<double>(n));
  };
  const uint64_t rank = NearestRank(n, q) - 1;
  const uint64_t mid = at(rank);
  const uint64_t width = BucketWidth(mid);
  if (width <= 1) {
    return static_cast<double>(mid);
  }
  // Ranks [first, last) share the bucket; both bounds by binary search over
  // the monotone rank -> bucket map.
  uint64_t lo = 0;
  uint64_t hi = rank;
  while (lo < hi) {
    const uint64_t k = lo + (hi - lo) / 2;
    if (at(k) >= mid) {
      hi = k;
    } else {
      lo = k + 1;
    }
  }
  const uint64_t first = lo;
  lo = rank + 1;
  hi = n;
  while (lo < hi) {
    const uint64_t k = lo + (hi - lo) / 2;
    if (at(k) > mid) {
      hi = k;
    } else {
      lo = k + 1;
    }
  }
  const uint64_t last = lo;
  const double bucket_lo = static_cast<double>(mid) - static_cast<double>(width) / 2.0;
  return bucket_lo + static_cast<double>(width) * (static_cast<double>(rank - first) + 0.5) /
                         static_cast<double>(last - first);
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

}  // namespace ctlbench
