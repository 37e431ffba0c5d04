// The benchmark's own arithmetic: medians and percentiles of samples, ratios
// reported with their base, the ladder's rung-by-rung subtraction, and the
// drift of wall time per transfer across a timed phase. Header-only so the
// unit test (stats_test.cc) checks exactly what perfbench runs.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

// Median; the mean of the two middle values for an even count. 0 if empty.
inline double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile, p in [0, 100]: the sample at 1-based rank
// ceil(p/100 * n), clamped to [1, n]. Always an observed value, so a
// percentile of simulated times is as exact as the samples. 0 if empty.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t r = static_cast<std::size_t>(std::clamp(rank, 1.0, static_cast<double>(v.size())));
  return v[r - 1];
}

// A ratio that keeps its base, so a report can say "0.97 of 12345" rather
// than a bare fraction. value() is 0 when the base is 0.
struct Ratio {
  double num = 0.0;
  double base = 0.0;
  double value() const { return base > 0.0 ? num / base : 0.0; }
};

// Self time of each rung of a cumulative ladder: rung i's time minus rung
// i-1's (rung 0 is its own self time). The self times telescope, so they sum
// to the top rung exactly.
inline std::vector<double> LadderSelfTimes(const std::vector<double>& cumulative) {
  std::vector<double> self(cumulative.size());
  for (std::size_t i = 0; i < cumulative.size(); ++i) {
    self[i] = i == 0 ? cumulative[0] : cumulative[i] - cumulative[i - 1];
  }
  return self;
}

// Share of the measured wall time per transfer that the rungs' self times
// do not account for: 1 - sum(self) / measured. 0 when nothing was measured.
inline double UnexplainedFraction(const std::vector<double>& self_times, double measured) {
  if (measured <= 0.0) {
    return 0.0;
  }
  double sum = 0.0;
  for (const double s : self_times) {
    sum += s;
  }
  return 1.0 - sum / measured;
}

// One point of a timed phase: after `transfers` completed transfers carrying
// `bytes`, `wall_s` seconds of timed wall time had elapsed. Marks are
// cumulative and ordered.
struct Mark {
  double transfers = 0.0;
  double wall_s = 0.0;
  double bytes = 0.0;
};

// Cumulative wall time at a fractional transfer count, interpolated linearly
// between marks (the origin (0, 0) is implied).
inline double WallAt(const std::vector<Mark>& marks, double transfers) {
  Mark prev;
  for (const Mark& m : marks) {
    if (m.transfers >= transfers) {
      const double span = m.transfers - prev.transfers;
      const double frac = span > 0.0 ? (transfers - prev.transfers) / span : 1.0;
      return prev.wall_s + frac * (m.wall_s - prev.wall_s);
    }
    prev = m;
  }
  return prev.wall_s;
}

// Wall time per transfer over the last tenth of the phase divided by that
// over the first tenth: 1.0 for a steady phase, above 1 when later transfers
// cost more. 0 when the phase is empty.
inline double DriftLateVsEarly(const std::vector<Mark>& marks) {
  if (marks.empty() || marks.back().transfers <= 0.0) {
    return 0.0;
  }
  const double total = marks.back().transfers;
  const double tenth = total / 10.0;
  const double early = WallAt(marks, tenth);
  const double late = marks.back().wall_s - WallAt(marks, total - tenth);
  return early > 0.0 ? late / early : 0.0;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
