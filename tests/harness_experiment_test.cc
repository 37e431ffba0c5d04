// Harness validation: the simulator's measured end-to-end latencies ("A")
// agree with the analytic breakdown model ("E") across semantics and
// buffering schemes — the paper's Table 7 claim — and the measured series
// have the qualitative properties of Figures 3-7.
#include "src/harness/experiment.h"

#include <gtest/gtest.h>

#include "src/analysis/latency_model.h"
#include "src/analysis/linear_fit.h"
#include "src/sim/trace.h"

namespace genie {
namespace {

std::vector<std::uint64_t> SparseLengths() { return {4096, 16384, 32768, 61440}; }

using AgreementParam = std::tuple<Semantics, InputBuffering>;

class ModelAgreementTest : public ::testing::TestWithParam<AgreementParam> {};

TEST_P(ModelAgreementTest, MeasuredMatchesEstimated) {
  const Semantics sem = std::get<0>(GetParam());
  const InputBuffering buffering = std::get<1>(GetParam());
  ExperimentConfig config;
  config.buffering = buffering;
  config.repetitions = 3;
  Experiment experiment(config);
  const auto lengths = SparseLengths();
  const RunResult run = experiment.Run(sem, lengths);
  const CostModel cost(config.profile);

  ASSERT_EQ(run.samples.size(), lengths.size());
  for (const LatencySample& s : run.samples) {
    const double estimated = EstimateLatencyUs(cost, config.options, sem, buffering,
                                               /*dst_page_offset=*/0, s.bytes);
    // The DES and the closed-form model must agree closely: overlap of
    // dispose/prepare stages is an emergent property of the simulation.
    EXPECT_NEAR(s.latency_us, estimated, estimated * 0.02 + 2.0)
        << SemanticsName(sem) << " " << InputBufferingName(buffering) << " B=" << s.bytes;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSemantics, ModelAgreementTest,
    ::testing::Combine(::testing::ValuesIn(kAllSemantics),
                       ::testing::Values(InputBuffering::kEarlyDemux, InputBuffering::kPooled,
                                         InputBuffering::kOutboard)),
    [](const ::testing::TestParamInfo<AgreementParam>& param_info) {
      std::string name(SemanticsName(std::get<0>(param_info.param)));
      name += "_" + std::string(InputBufferingName(std::get<1>(param_info.param)));
      for (char& c : name) {
        if (c == ' ' || c == '-') {
          c = '_';
        }
      }
      return name;
    });

TEST(HarnessTest, MeasuredSeriesFitsLineWithHighR2) {
  ExperimentConfig config;
  config.repetitions = 2;
  Experiment experiment(config);
  const auto lengths = PageMultipleLengths();
  const RunResult run = experiment.Run(Semantics::kEmulatedCopy, lengths);
  std::vector<std::pair<double, double>> pts;
  for (const LatencySample& s : run.samples) {
    pts.emplace_back(static_cast<double>(s.bytes), s.latency_us);
  }
  const LinearFit fit = FitLine(pts);
  EXPECT_GT(fit.r2, 0.9999);
  EXPECT_NEAR(fit.slope, 0.0622, 0.0005);  // Paper Table 7 A-row.
  EXPECT_NEAR(fit.intercept, 153, 12);
}

TEST(HarnessTest, Figure3Clustering) {
  // Copy distinctly worst; all non-copy semantics cluster (Figure 3).
  ExperimentConfig config;
  config.repetitions = 2;
  Experiment experiment(config);
  const std::vector<std::uint64_t> len = {61440};
  double copy_latency = 0;
  double non_copy_min = 1e18;
  double non_copy_max = 0;
  for (const Semantics sem : kAllSemantics) {
    const RunResult run = experiment.Run(sem, len);
    const double l = run.samples[0].latency_us;
    if (sem == Semantics::kCopy) {
      copy_latency = l;
    } else {
      non_copy_min = std::min(non_copy_min, l);
      non_copy_max = std::max(non_copy_max, l);
    }
  }
  // The non-copy cluster is tight (within ~6% of each other)...
  EXPECT_LT((non_copy_max - non_copy_min) / non_copy_min, 0.06);
  // ... and copy is far above it (paper: 37% above emulated copy).
  EXPECT_GT(copy_latency, non_copy_max * 1.3);
}

TEST(HarnessTest, Figure4UtilizationGap) {
  // Copy semantics leaves much less CPU available (Figure 4).
  ExperimentConfig config;
  config.repetitions = 3;
  Experiment experiment(config);
  const std::vector<std::uint64_t> len = {61440};
  const double copy_util =
      experiment.Run(Semantics::kCopy, len).samples[0].receiver_utilization;
  const double ecopy_util =
      experiment.Run(Semantics::kEmulatedCopy, len).samples[0].receiver_utilization;
  const double eshare_util =
      experiment.Run(Semantics::kEmulatedShare, len).samples[0].receiver_utilization;
  EXPECT_GT(copy_util, 0.2);                  // Paper: 26%.
  EXPECT_LT(ecopy_util, copy_util * 0.55);    // Paper: 10% vs 26%.
  EXPECT_LT(eshare_util, ecopy_util + 0.01);  // Emulated share lowest.
}

TEST(HarnessTest, Figure7UnalignedClusters) {
  // Unaligned pooled input splits semantics into 0/1/2-copy groups.
  ExperimentConfig config;
  config.buffering = InputBuffering::kPooled;
  config.dst_page_offset = 1000;
  config.repetitions = 2;
  Experiment experiment(config);
  const std::vector<std::uint64_t> len = {61440};
  auto tput = [&](Semantics s) {
    return experiment.Run(s, len).samples[0].throughput_mbps;
  };
  const double copy = tput(Semantics::kCopy);                  // 2 copies.
  const double ecopy = tput(Semantics::kEmulatedCopy);         // 1 copy.
  const double emove = tput(Semantics::kEmulatedMove);         // 0 copies.
  EXPECT_NEAR(copy, 77, 4);    // Paper: 77 Mbps.
  EXPECT_NEAR(ecopy, 92, 5);   // Paper: ~92 Mbps.
  EXPECT_NEAR(emove, 121, 6);  // Paper: ~121 Mbps (system-allocated).
}

TEST(HarnessTest, OpSamplesCollectedWhenRequested) {
  ExperimentConfig config;
  config.collect_op_samples = true;
  config.repetitions = 2;
  Experiment experiment(config);
  const std::vector<std::uint64_t> lengths = {4096, 8192};
  const RunResult run = experiment.Run(Semantics::kEmulatedCopy, lengths);
  EXPECT_TRUE(run.op_samples.contains(OpKind::kReference));
  EXPECT_TRUE(run.op_samples.contains(OpKind::kSwap));
  EXPECT_TRUE(run.op_samples.contains(OpKind::kReadOnly));
  // Fitting the reference samples recovers the Table 6 line.
  std::vector<std::pair<double, double>> pts;
  for (const auto& [bytes, us] : run.op_samples.at(OpKind::kReference)) {
    pts.emplace_back(static_cast<double>(bytes), us);
  }
  const LinearFit fit = FitLine(pts);
  EXPECT_NEAR(fit.slope, 0.000363, 1e-5);
  EXPECT_NEAR(fit.intercept, 5.0, 0.3);
}

// A bed attaches its nodes to a trace log it does not own and that outlives
// it. Destroying the bed must release the nodes' track names: otherwise the
// next bed on the same log aborts claiming them.
TEST(HarnessTest, DestroyedTestbedReleasesTraceTracks) {
  TraceLog log;
  ExperimentConfig config;
  config.trace = &log;
  { Testbed bed(config); }
  const int other_owner = 0;
  log.RegisterNode(&other_owner, "tx.xfer");
  log.RegisterNode(&other_owner, "rx.xfer");
}

// Experiment::Run builds one bed per length, so two sweeps on one log attach
// four beds to it in turn.
TEST(HarnessTest, TwoSweepsShareOneTraceLog) {
  TraceLog log;
  ExperimentConfig config;
  config.trace = &log;
  config.repetitions = 1;
  Experiment experiment(config);
  const std::vector<std::uint64_t> lengths = {4096, 8192};
  ASSERT_EQ(experiment.Run(Semantics::kCopy, lengths).samples.size(), 2u);
  const std::size_t first_sweep_events = log.event_count();
  EXPECT_GT(first_sweep_events, 0u);
  ASSERT_EQ(experiment.Run(Semantics::kEmulatedCopy, lengths).samples.size(), 2u);
  EXPECT_GT(log.event_count(), first_sweep_events);
}

TEST(HarnessTest, ThroughputHelper) {
  EXPECT_NEAR(ThroughputMbps(61440, 6267.0), 78.4, 0.1);
}

}  // namespace
}  // namespace genie
