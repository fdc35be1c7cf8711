// Self-test of the order statistics in stats.hpp. The expected quartiles are
// Python's statistics.quantiles(values, n=4), which compare.py uses on the
// same samples.
#include <cstdio>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

void expect_quartiles(std::vector<double> values, double q1, double median,
                      double q3, const char* what) {
  const dsbench::Quartiles q = dsbench::quartiles(std::move(values));
  const bool ok = q.q1 == q1 && q.median == median && q.q3 == q3;
  if (!ok) {
    std::printf("     got %.17g %.17g %.17g, want %.17g %.17g %.17g\n", q.q1,
                q.median, q.q3, q1, median, q3);
  }
  expect(ok, what);
}

}  // namespace

int main() {
  expect_quartiles({3.0, 1.0}, 0.5, 2.0, 3.5, "two samples extrapolate");
  expect_quartiles({5, 1, 4, 2, 3}, 1.5, 3.0, 4.5, "odd count");
  expect_quartiles({1, 2, 3, 4}, 1.25, 2.5, 3.75, "even count");
  expect_quartiles({10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 27.5, 55.0, 82.5,
                   "ten reps");
  expect_quartiles({7, 1, 3, 9, 4, 4, 8, 2, 6, 5, 11}, 3.0, 5.0, 8.0,
                   "unsorted with ties");
  expect_quartiles({2.5, 2.5, 2.5}, 2.5, 2.5, 2.5, "constant");
  expect_quartiles({4.0}, 4.0, 4.0, 4.0, "one sample");
  expect(dsbench::median({}) == 0.0, "empty median is 0");
  expect(dsbench::quartiles({1, 2, 3, 4}).iqr_share() == 1.0, "iqr share");

  if (failures != 0) return 1;
  std::printf("benchmark_selftest: ok\n");
  return 0;
}
