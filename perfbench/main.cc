// perfbench: the host-speed benchmark.
//
//   perfbench --workload <copy_stream_60k|remap_sweep>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//
// A workload runs in epochs: a fresh setup (timed: setup_s), then a fixed
// number of units (timed: xfer_per_s and wall_MBps). --trace 0 runs epochs until --seconds of them are timed, at
// least kMinEpochs. --trace 1 is the separate traced run: one untraced epoch,
// one epoch with spans recorded around every call into a layer, and the
// layer ladder; it reports the per-layer metrics. Either way every payload
// is verified, the VM invariants are checked at quiescence, the warm-up
// event digests and the simulated results of all epochs must agree, and the
// last line of output is one JSON object. Any correctness violation makes
// the exit code 1.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "perfbench/common.h"
#include "perfbench/ladder.h"
#include "perfbench/provenance.h"
#include "perfbench/stats.h"

namespace perfbench {

bool g_heap_counting = false;
std::uint64_t g_heap_allocs = 0;
std::uint64_t g_heap_bytes = 0;

}  // namespace perfbench

// Counting replacements of the global allocation functions. The count is one
// branch per allocation when off; the benchmark runs on one thread. Both
// sides use malloc/free, which GCC cannot see through.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  if (perfbench::g_heap_counting) {
    ++perfbench::g_heap_allocs;
    perfbench::g_heap_bytes += n;
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

namespace {

// The fewest epochs of an end-to-end run, so the end-to-end metrics are
// percentiles of at least this many samples however short --seconds is.
constexpr std::size_t kMinEpochs = 7;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a->workload = val;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val, &end, 10);
    } else if (key == "--seconds") {
      a->seconds = std::strtod(val, &end);
    } else if (key == "--trace") {
      a->trace = static_cast<int>(std::strtol(val, &end, 10));
    } else if (key == "--trace-out") {
      a->trace_out = val;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0 && a->seconds <= 60 &&
         (a->trace == 0 || a->trace == 1);
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, std::uint64_t seed) {
  if (name == "copy_stream_60k") {
    return MakeCopyStream(seed);
  }
  if (name == "remap_sweep") {
    return MakeRemapSweep(seed);
  }
  return nullptr;
}

double PeakRssMB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss is in KiB
}

// One timed run of units.
struct Totals {
  std::uint64_t units = 0;
  UnitResult sum;
  double wall_s = 0.0;
  std::vector<Mark> marks;
};

// Runs `units` units; wall time covers only the units.
Totals RunUnits(Workload& w, SpanRecorder* spans, std::size_t units) {
  Totals t;
  const Clock::time_point t0 = Clock::now();
  while (t.units < units) {
    t.sum += w.Step(spans);
    ++t.units;
    t.wall_s = SecondsSince(t0);
    t.marks.push_back({static_cast<double>(t.sum.completed), t.wall_s,
                       static_cast<double>(t.sum.bytes)});
  }
  return t;
}

// Fresh set-ups of one workload: their wall times, and a violation whenever
// a warm-up event digest differs from the first one's.
struct Setups {
  std::vector<double> times;
  std::uint64_t first_digest = 0;

  void Run(Workload& w, std::vector<std::string>* violations) {
    const Clock::time_point t0 = Clock::now();
    const std::uint64_t digest = w.Setup();
    times.push_back(SecondsSince(t0));
    if (times.size() == 1) {
      first_digest = digest;
    } else if (digest != first_digest) {
      violations->push_back("warm-up event digest differs between identical setups");
    }
  }
};

void PrintMetric(const char* name, double value, const char* unit) {
  std::printf("  %-44s %16.6f %s\n", name, value, unit);
}

// The last line of output: correctness, transfer counts and the metrics.
void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed, const Metrics& m) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  for (const auto& [name, metric] : m) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ", name.c_str(),
                metric.value, metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

void PrintViolations(const std::vector<std::string>& violations) {
  for (std::size_t i = 0; i < violations.size() && i < 20; ++i) {
    std::printf("violation: %s\n", violations[i].c_str());
  }
  if (violations.size() > 20) {
    std::printf("violation: ... %zu more\n", violations.size() - 20);
  }
}

int RunEndToEnd(Workload& w, const Args& args) {
  std::vector<std::string> violations;
  Setups setups;
  UnitResult all;
  std::vector<double> xfer_rates;
  std::vector<double> byte_rates;
  SimSummary sim;
  double rss_mb = 0.0;
  double timed_s = 0.0;
  while (xfer_rates.size() < kMinEpochs || timed_s < args.seconds) {
    setups.Run(w, &violations);
    const Totals t = RunUnits(w, nullptr, w.EpochUnits());
    const SimSummary epoch_sim = w.Sim();
    const std::vector<std::string> checks = w.Check();
    violations.insert(violations.end(), checks.begin(), checks.end());
    all += t.sum;
    timed_s += t.wall_s;
    xfer_rates.push_back(static_cast<double>(t.sum.completed) / t.wall_s);
    byte_rates.push_back(static_cast<double>(t.sum.bytes) / t.wall_s);
    if (xfer_rates.size() == 1) {
      // Peak RSS after one epoch: the same work in every run, so a faster
      // build that fits in more epochs is not charged for it.
      sim = epoch_sim;
      rss_mb = PeakRssMB();
    } else if (!(epoch_sim == sim)) {
      violations.push_back("simulated results differ between identical epochs");
    }
  }
  const double failed_frac = static_cast<double>(all.bad()) / static_cast<double>(all.attempted);

  // A shared host only ever adds time, in bursts that hit some epochs and
  // not others, while a change to the code moves every epoch alike. So each
  // time is the fastest tenth's: the 10th percentile of the set-up times and
  // the 90th of the epoch rates.
  Metrics m;
  m["setup_s"] = {Percentile(setups.times, 10), "s"};
  m["xfer_per_s"] = {Percentile(xfer_rates, 90), "1/s"};
  m["wall_MBps"] = {Percentile(byte_rates, 90) / 1e6, "MB/s"};
  m["peak_rss_MB"] = {rss_mb, "MB"};

  std::printf("end_to_end: %llu transfers in %zu epochs of %zu units, %.3f s timed "
              "(mean %.1f/s)\n",
              static_cast<unsigned long long>(all.completed), xfer_rates.size(), w.EpochUnits(),
              timed_s, static_cast<double>(all.completed) / timed_s);
  std::printf("  epoch xfer_per_s:");
  for (const double r : xfer_rates) {
    std::printf(" %.0f", r);
  }
  std::printf("\n  setup_s samples:");
  for (const double t : setups.times) {
    std::printf(" %.4f", t);
  }
  std::printf("\n");
  PrintMetric("setup_s", m["setup_s"].value, "s");
  PrintMetric("xfer_per_s", m["xfer_per_s"].value, "1/s");
  PrintMetric("wall_MBps", m["wall_MBps"].value, "MB/s");
  PrintMetric("sim_MBps", sim.mbps, "MB/s (simulated clock, one epoch)");
  PrintMetric("sim_latency_us_p50", sim.latency_p50_us, "us (simulated)");
  PrintMetric("sim_latency_us_p99", sim.latency_p99_us, "us (simulated)");
  std::printf("  %-44s %16llu samples\n", "sim_latency_samples",
              static_cast<unsigned long long>(sim.samples));
  PrintMetric("failed_frac", failed_frac, "ratio");
  std::printf("  (failed %llu, unverified %llu, lost %llu of %llu attempted)\n",
              static_cast<unsigned long long>(all.failed),
              static_cast<unsigned long long>(all.unverified),
              static_cast<unsigned long long>(all.bad() - all.failed - all.unverified),
              static_cast<unsigned long long>(all.attempted));
  PrintMetric("peak_rss_MB", m["peak_rss_MB"].value, "MB");
  PrintViolations(violations);

  const bool correct = violations.empty() && all.bad() == 0;
  PrintResult(correct, all.attempted, all.bad(), m);
  return correct ? 0 : 1;
}

int RunTraced(Workload& w, const Args& args) {
  const Clock::time_point start = Clock::now();
  std::vector<std::string> violations;
  Setups setups;

  // Each epoch on a fresh setup: the first warms the process (heap, page
  // tables) so the untraced epoch that follows pays no first-use costs the
  // traced one would not; the heap counts are the traced epoch's.
  std::uint64_t bad = 0;
  std::uint64_t attempted = 0;
  SpanRecorder spans(w.EpochUnits() * w.SpansPerUnit() + 16);
  auto epoch = [&](SpanRecorder* recorder) {
    setups.Run(w, &violations);
    g_heap_allocs = 0;
    g_heap_bytes = 0;
    g_heap_counting = true;
    const Totals t = RunUnits(w, recorder, w.EpochUnits());
    g_heap_counting = false;
    const std::vector<std::string> checks = w.Check();
    violations.insert(violations.end(), checks.begin(), checks.end());
    bad += t.sum.bad();
    attempted += t.sum.attempted;
    return t;
  };
  (void)epoch(nullptr);
  const Totals plain = epoch(nullptr);
  const Totals traced = epoch(&spans);

  Metrics m;
  // Guarded so a run where nothing completed still prints finite numbers.
  const double xfers = std::max(1.0, static_cast<double>(traced.sum.completed));
  EmitCounts(w.CountsSinceSetup(), xfers, &m);
  const double plain_us =
      plain.wall_s * 1e6 / std::max(1.0, static_cast<double>(plain.sum.completed));
  const double traced_us = traced.wall_s * 1e6 / xfers;
  m["heap.allocs_per_xfer"] = {static_cast<double>(g_heap_allocs) / xfers, "count"};
  m["heap.bytes_per_xfer"] = {static_cast<double>(g_heap_bytes) / xfers, "B"};
  m["bench.untraced_us_per_xfer"] = {plain_us, "us"};
  m["bench.trace_overhead_frac"] = {traced_us / plain_us - 1.0, "ratio"};
  m["drift.late_vs_early"] = {DriftLateVsEarly(plain.marks), "ratio"};

  std::printf("traced: %llu units (%llu transfers) untraced %.3f us/xfer, traced %.3f us/xfer\n",
              static_cast<unsigned long long>(traced.units),
              static_cast<unsigned long long>(traced.sum.completed), plain_us, traced_us);
  std::printf("span self time per transfer:\n");
  for (const auto& [name, st] : spans.SelfTimes()) {
    std::printf("  %-20s %12.3f us  (%llu spans)\n", name.c_str(), st.total_us / xfers,
                static_cast<unsigned long long>(st.count));
  }
  if (!args.trace_out.empty()) {
    if (!spans.WriteJson(args.trace_out)) {
      violations.push_back("could not write the span file " + args.trace_out);
    } else {
      std::printf("spans: %zu written to %s\n", spans.size(), args.trace_out.c_str());
    }
  }

  const LadderSpec spec = w.Ladder();
  const double budget = std::max(0.25 * args.seconds, args.seconds - SecondsSince(start));
  const LadderResult ladder =
      RunLadder(spec, args.seed, budget, plain.sum.completed, plain_us);
  violations.insert(violations.end(), ladder.violations.begin(), ladder.violations.end());
  for (const auto& [name, metric] : ladder.metrics) {
    m[name] = metric;
  }

  std::printf("per_layer:\n");
  for (const auto& [name, metric] : m) {
    PrintMetric(name.c_str(), metric.value, metric.unit.c_str());
  }
  PrintViolations(violations);
  const bool correct = violations.empty() && bad == 0;
  PrintResult(correct, attempted, bad, m);
  return correct ? 0 : 1;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <copy_stream_60k|remap_sweep> "
                 "--seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]\n",
                 argv[0]);
    return 2;
  }
  if (!perfbench::OptimizedBuild()) {
    std::fprintf(stderr, "refusing to report timings from an unoptimized or sanitizer build\n");
    return 3;
  }
  std::unique_ptr<perfbench::Workload> w = perfbench::MakeWorkload(args.workload, args.seed);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  perfbench::PrintProvenance(args.workload, args.seed, args.seconds, args.trace);
  std::fflush(stdout);
  return args.trace == 0 ? perfbench::RunEndToEnd(*w, args) : perfbench::RunTraced(*w, args);
}
