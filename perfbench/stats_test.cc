// Checks of the benchmark's own arithmetic (stats.h) and of the linear fit
// the ladder relies on. Exits nonzero on the first failure.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "perfbench/stats.h"
#include "src/analysis/linear_fit.h"

namespace {

int g_failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++g_failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) <= 1e-9 * (1.0 + std::fabs(b)); }

void TestMedian() {
  using perfbench::Median;
  Expect(Median({}) == 0.0, "median of nothing is 0");
  Expect(Median({3.0}) == 3.0, "median of one sample");
  Expect(Median({5.0, 1.0, 3.0}) == 3.0, "median of an odd count, unsorted");
  Expect(Median({4.0, 1.0, 3.0, 2.0}) == 2.5, "median of an even count averages the middle");
}

void TestPercentile() {
  using perfbench::Percentile;
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) {
    v.push_back(i);
  }
  Expect(Percentile(v, 50) == 500.0, "p50 of 1..1000 is rank 500");
  Expect(Percentile(v, 99) == 990.0, "p99 of 1..1000 is rank 990, ten samples beyond");
  Expect(Percentile(v, 100) == 1000.0, "p100 is the maximum");
  Expect(Percentile(v, 0) == 1.0, "p0 clamps to the minimum");
  Expect(Percentile({7.0}, 99) == 7.0, "a single sample is every percentile");
  Expect(Percentile({}, 50) == 0.0, "percentile of nothing is 0");
  Expect(Percentile({1.0, 2.0, 3.0}, 50) == 2.0, "p50 of three is the middle sample");
}

void TestRatio() {
  using perfbench::Ratio;
  Expect(Near(Ratio{3.0, 4.0}.value(), 0.75), "ratio divides by its base");
  Expect(Ratio{3.0, 0.0}.value() == 0.0, "ratio over a zero base is 0");
  const Ratio r{990.0, 1000.0};
  Expect(r.base == 1000.0 && Near(r.value(), 0.99), "ratio keeps its base");
}

void TestLadder() {
  using perfbench::LadderSelfTimes;
  const std::vector<double> rungs = {2.0, 5.0, 12.5, 13.0};
  const std::vector<double> self = LadderSelfTimes(rungs);
  Expect(self.size() == 4, "one self time per rung");
  Expect(self[0] == 2.0 && self[1] == 3.0 && self[2] == 7.5 && self[3] == 0.5,
         "self time is the rung minus the rung below");
  double sum = 0.0;
  for (const double s : self) {
    sum += s;
  }
  Expect(Near(sum, rungs.back()), "self times add up to the top rung");
  Expect(LadderSelfTimes({}).empty(), "an empty ladder has no self times");
  Expect(Near(perfbench::UnexplainedFraction(self, 16.0), 1.0 - 13.0 / 16.0),
         "unexplained share is 1 - sum(self) / measured");
  Expect(perfbench::UnexplainedFraction(self, 0.0) == 0.0, "nothing measured, nothing unexplained");
  // A rung below its predecessor gives a negative self time: kept, not hidden.
  Expect(LadderSelfTimes({4.0, 3.0})[1] == -1.0, "a cheaper upper rung shows as negative");
}

void TestDrift() {
  using perfbench::Mark;
  std::vector<Mark> steady;
  for (int i = 1; i <= 100; ++i) {
    steady.push_back({static_cast<double>(i), 0.5 * i});
  }
  Expect(Near(perfbench::DriftLateVsEarly(steady), 1.0), "steady phase has drift 1");
  // Cost per transfer grows linearly: transfer i costs i, so the wall time
  // after n transfers is n(n+1)/2. First tenth (10 transfers): 55; last
  // tenth: 5050 - 4095 = 955.
  std::vector<Mark> growing;
  double wall = 0.0;
  for (int i = 1; i <= 100; ++i) {
    wall += i;
    growing.push_back({static_cast<double>(i), wall});
  }
  Expect(Near(perfbench::DriftLateVsEarly(growing), 955.0 / 55.0), "growing cost drifts up");
  // Batches of 16 transfers: interpolation inside a unit.
  const std::vector<Mark> batches = {{16, 1.0}, {32, 2.0}, {48, 3.0}, {64, 4.0}, {80, 5.0},
                                     {96, 6.0}, {112, 7.0}, {128, 8.0}, {144, 9.0}, {160, 20.0}};
  // First tenth = 16 transfers = 1 s; last tenth = 16 transfers = 11 s.
  Expect(Near(perfbench::DriftLateVsEarly(batches), 11.0), "interpolates across units");
  Expect(Near(perfbench::WallAt(batches, 8), 0.5), "wall at half a unit");
  Expect(perfbench::DriftLateVsEarly({}) == 0.0, "empty phase has no drift");
}

void TestFit() {
  // The ladder reports b * 1024 as ns/KiB and evaluates a + b * mean.
  std::vector<std::pair<double, double>> pts;
  for (const double x : {64.0, 1024.0, 4096.0, 16384.0, 61440.0}) {
    pts.emplace_back(x, 100.0 + 0.25 * x);
  }
  const genie::LinearFit f = genie::FitLine(pts);
  Expect(Near(f.slope * 1024.0, 256.0), "slope in ns/KiB");
  Expect(Near(f.intercept, 100.0), "intercept is the fixed cost");
}

}  // namespace

int main() {
  TestMedian();
  TestPercentile();
  TestRatio();
  TestLadder();
  TestDrift();
  TestFit();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench_stats_test: all checks passed\n");
  return 0;
}
