// Order statistics for the harness and its self-test. The quartiles
// reproduce Python's
// statistics.quantiles(values, n=4) (the default "exclusive" method), so the
// spreads the harness prints match the ones compare.py, or anyone reading
// the outputs with Python, computes from the same samples.
#pragma once

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

namespace dsbench {

struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;

  /// Interquartile range as a share of the median (0 when the median is 0).
  [[nodiscard]] double iqr_share() const {
    return median != 0.0 ? (q3 - q1) / std::fabs(median) : 0.0;
  }
};

/// Quartiles by the exclusive method. One sample gives that sample three
/// times; an empty input gives zeros.
[[nodiscard]] inline Quartiles quartiles(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const long n = static_cast<long>(values.size());
  if (n == 0) return {};
  if (n == 1) return {values[0], values[0], values[0]};
  double cut[3] = {};
  const long m = n + 1;
  for (long i = 1; i <= 3; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, n - 1);
    const long delta = i * m - j * 4;
    cut[i - 1] = (values[static_cast<std::size_t>(j - 1)] *
                      static_cast<double>(4 - delta) +
                  values[static_cast<std::size_t>(j)] *
                      static_cast<double>(delta)) /
                 4.0;
  }
  // The middle cut is the median exactly: for odd n delta is 0, for even n
  // it is 2, and (2a + 2b) / 4 rounds as (a + b) / 2 does.
  return {cut[0], cut[1], cut[2]};
}

[[nodiscard]] inline double median(std::vector<double> values) {
  return quartiles(std::move(values)).median;
}

}  // namespace dsbench
