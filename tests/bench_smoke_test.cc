// bench_smoke: the tier-1 bench-regression gate (ctest label "bench", run in
// the optimized CI leg only).
//
// Three layers of protection, cheapest first:
//   1. Exact op-count metrics of one end-to-end transfer — deterministic in
//      the simulation, compared bit-for-bit via CheckExactMetrics.
//   2. Least-squares fits of charged per-op latencies over a short length
//      sweep must match the cost model's Table 6 lines — also deterministic.
//   3. Wall-clock throughput floors for the host data plane, set roughly an
//      order of magnitude under measured steady state (BENCH_hostpath.json)
//      so scheduler noise cannot trip them but a reverted fast path will.
//      Skipped under sanitizers, where wall-clock rates are meaningless.
//
// The gate's own failure mode is tested too: a perturbed expectation must
// produce a failing, named report.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/analysis/linear_fit.h"
#include "src/cost/cost_model.h"
#include "src/genie/host_path.h"
#include "src/genie/sys_buffer.h"
#include "src/harness/experiment.h"
#include "src/net/checksum.h"
#include "src/obs/gate.h"
#include "src/obs/metrics.h"
#include "src/vm/address_space.h"
#include "src/vm/vm.h"
#include "tests/genie_test_util.h"

namespace genie {
namespace {

constexpr std::uint32_t kPage = 4096;
constexpr Vaddr kSrc = 0x20000000;
constexpr Vaddr kDst = 0x30000000;
constexpr std::uint64_t kLen = 2 * kPage;

// --- Layer 1: exact op-count gate over one end-to-end transfer ---

// One 8 KiB emulated-copy datagram, early-demux buffering: the oracle values
// are the same ones genie_opcount_test pins down, read back here through the
// metrics registry exactly as CI tooling would.
TEST(BenchSmokeTest, EndToEndOpCountsMatchGate) {
  Rig rig;
  rig.tx_app.CreateRegion(kSrc, 16 * kPage);
  rig.rx_app.CreateRegion(kDst, 16 * kPage);
  ASSERT_EQ(rig.tx_app.Write(kSrc, TestPattern(kLen, 1)), AccessResult::kOk);
  ASSERT_TRUE(rig.Transfer(kSrc, kDst, kLen, Semantics::kEmulatedCopy).ok);

  const MetricsSnapshot tx = rig.sender.metrics().Snapshot();
  const MetricsSnapshot rx = rig.receiver.metrics().Snapshot();

  // Snapshot JSON for post-mortems: scripts/ci.sh prints this file when the
  // optimized ctest leg fails.
  std::ofstream out("bench_smoke_metrics.json");
  out << "{\"sender\": " << tx.ToJson() << ",\n \"receiver\": " << rx.ToJson() << "}\n";
  out.close();

  const MetricExpectation sender_expected[] = {
      {"ep1.outputs", 1},
      {"ep1.op.Reference.count", 1},
      {"ep1.op.Reference.bytes", kLen},
      {"ep1.op.Unreference.count", 1},
      {"ep1.op.Read only.count", 1},
      {"ep1.op.Sender kernel fixed.count", 1},
      {"ep1.op.Copyin.count", 0},  // Emulated copy moves no host bytes.
      {"ep1.failed_outputs", 0},
      {"nic.frames_sent", 1},
      {"nic.rx_crc_errors", 0},
  };
  const GateResult tx_gate = CheckExactMetrics(tx, sender_expected);
  EXPECT_TRUE(tx_gate.ok()) << tx_gate.ToString();

  const MetricExpectation receiver_expected[] = {
      {"ep1.inputs", 1},
      {"ep1.op.Swap.count", 1},
      {"ep1.op.Swap.bytes", kLen},
      {"ep1.op.Overlay allocate.count", 1},
      {"ep1.op.Receiver kernel fixed.count", 1},
      {"ep1.op.Copyout.count", 0},
      {"ep1.pages_swapped", 2},
      {"ep1.bytes_swapped", kLen},
      {"ep1.crc_failures", 0},
      {"nic.frames_received", 1},
      {"nic.frames_dropped_no_buffer", 0},
  };
  const GateResult rx_gate = CheckExactMetrics(rx, receiver_expected);
  EXPECT_TRUE(rx_gate.ok()) << rx_gate.ToString();
}

// The gate itself must fail loudly when an op count drifts: perturb one
// expectation and require a named, complete failure report.
TEST(BenchSmokeTest, GateDetectsPerturbedOpCounts) {
  Rig rig;
  rig.tx_app.CreateRegion(kSrc, 16 * kPage);
  rig.rx_app.CreateRegion(kDst, 16 * kPage);
  ASSERT_EQ(rig.tx_app.Write(kSrc, TestPattern(kLen, 1)), AccessResult::kOk);
  ASSERT_TRUE(rig.Transfer(kSrc, kDst, kLen, Semantics::kEmulatedCopy).ok);

  const MetricsSnapshot rx = rig.receiver.metrics().Snapshot();
  const MetricExpectation perturbed[] = {
      {"ep1.op.Swap.count", 2},      // actually 1
      {"ep1.pages_swapped", 2},      // correct — must NOT be reported
      {"ep1.op.Copyout.count", 1},   // actually 0 (absent)
  };
  const GateResult gate = CheckExactMetrics(rx, perturbed);
  ASSERT_FALSE(gate.ok());
  EXPECT_EQ(gate.failures.size(), 2u);
  EXPECT_NE(gate.ToString().find("ep1.op.Swap.count"), std::string::npos);
  EXPECT_NE(gate.ToString().find("expected 2, got 1"), std::string::npos);
  EXPECT_NE(gate.ToString().find("ep1.op.Copyout.count"), std::string::npos);
  EXPECT_EQ(gate.ToString().find("pages_swapped"), std::string::npos);
}

// --- Layer 2: short Table 6 fit (simulated time, deterministic) ---

// A cut-down bench_table6_primitive_ops: sweep a few lengths, fit the charged
// latencies, compare against the cost model's line. Deterministic, so the
// tolerance only covers the fit's own discretization (intercept clamping,
// page rounding), not run-to-run noise.
TEST(BenchSmokeTest, Table6FitsMatchCostModel) {
  ExperimentConfig config;
  config.collect_op_samples = true;
  config.repetitions = 1;
  const std::vector<std::uint64_t> lengths = {4096, 16384, 32768, 61440};

  const CostModel model(MachineProfile::MicronP166());
  struct FitCase {
    Semantics sem;
    OpKind op;
  };
  const FitCase cases[] = {
      {Semantics::kCopy, OpKind::kCopyin},
      {Semantics::kCopy, OpKind::kCopyout},
      {Semantics::kEmulatedCopy, OpKind::kSwap},
      {Semantics::kShare, OpKind::kWire},
  };
  for (const FitCase& fc : cases) {
    SCOPED_TRACE(std::string(SemanticsName(fc.sem)) + " / " + std::string(OpKindName(fc.op)));
    Experiment experiment(config);
    const RunResult run = experiment.Run(fc.sem, lengths);
    const auto it = run.op_samples.find(fc.op);
    ASSERT_NE(it, run.op_samples.end());
    std::vector<std::pair<double, double>> points;
    for (const auto& [bytes, us] : it->second) {
      points.emplace_back(static_cast<double>(bytes), us);
    }
    ASSERT_GE(points.size(), lengths.size());
    const LinearFit fit = FitLine(points);
    const OpCostLine line = model.Line(fc.op);
    EXPECT_NEAR(fit.slope, line.slope_us_per_byte, 0.1 * line.slope_us_per_byte);
    EXPECT_GT(fit.r2, 0.98);
  }
}

// --- Layer 3: wall-clock throughput floors (optimized builds only) ---

volatile std::uint16_t g_sink;

// Rate of `body` over one timing window of at least `window` (and 8 calls),
// after 3 warm-up calls.
template <typename Fn>
double MeasureMbps(std::uint64_t bytes, Fn&& body,
                   std::chrono::milliseconds window = std::chrono::milliseconds(80)) {
  using Clock = std::chrono::steady_clock;
  for (int i = 0; i < 3; ++i) {
    body();  // warm-up
  }
  std::uint64_t iters = 0;
  const Clock::time_point start = Clock::now();
  Clock::time_point now = start;
  do {
    body();
    ++iters;
    if ((iters & 7) == 0) {
      now = Clock::now();
    }
  } while (now - start < window || iters < 8);
  now = Clock::now();
  const double seconds = std::chrono::duration<double>(now - start).count();
  return static_cast<double>(bytes) * static_cast<double>(iters) / seconds / 1e6;
}

TEST(BenchSmokeTest, HostPathThroughputFloors) {
#ifdef GENIE_ASAN_BUILD
  GTEST_SKIP() << "wall-clock throughput floors are meaningless under sanitizers";
#endif
  constexpr std::uint64_t kTransfer = 64 * 1024;
  std::vector<std::byte> payload(kTransfer);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::byte>((i * 131 + 17) & 0xFF);
  }
  std::vector<std::byte> dst(kTransfer);

  // Floors sit ~8x under the steady-state numbers in BENCH_hostpath.json:
  // loose enough that a loaded CI machine passes, tight enough that a revert
  // to the seed's byte-at-a-time data plane (copy_semantics_64k 1093 MB/s)
  // or an accidental -O0 build fails.
  const double memcpy_mbps = MeasureMbps(kTransfer, [&] {
    std::memcpy(dst.data(), payload.data(), payload.size());
    g_sink = static_cast<std::uint16_t>(dst[0]);
  });
  const double checksum_mbps =
      MeasureMbps(kTransfer, [&] { g_sink = ChecksumOf(std::span<const std::byte>(payload)); });

  Vm vm(512, kPage);
  AddressSpace tx(vm, "sender-app");
  AddressSpace rx(vm, "receiver-app");
  tx.CreateRegion(0x10000000, kTransfer);
  rx.CreateRegion(0x20000000, kTransfer);
  (void)tx.Write(0x10000000, payload);
  (void)rx.Write(0x20000000, payload);
  const double copy_sem_mbps = MeasureMbps(kTransfer, [&] {
    SysBuffer sysbuf = AllocateSysBuffer(vm.pm(), 0, kTransfer);
    InternetChecksum sum;
    (void)CopyinToIoVec(tx, 0x10000000, kTransfer, sysbuf.iov, &sum);
    const std::uint16_t header = sum.value();
    const std::uint16_t verify = ChecksumOfIoVec(vm.pm(), sysbuf.iov, kTransfer);
    g_sink = static_cast<std::uint16_t>(header ^ verify);
    (void)DisposeCopyOutIntoApp(rx, 0x20000000, kTransfer, sysbuf.iov);
    FreeSysBuffer(vm.pm(), sysbuf);
  });

  for (const GateResult& gate :
       {CheckThroughputFloor("memcpy_64k", memcpy_mbps, 4000.0),
        CheckThroughputFloor("checksum_64k", checksum_mbps, 3000.0),
        CheckThroughputFloor("copy_semantics_64k", copy_sem_mbps, 1200.0)}) {
    EXPECT_TRUE(gate.ok()) << gate.ToString();
  }
}

// Parallel-mode tax gate: the single-threaded fused rate through the
// parallel harness (RunParallelFused at 1 thread: allocation-point sysbufs,
// one worker thread) must stay within a small factor of the same work done
// as a plain direct loop. Guards against the parallel plumbing (arena
// bookkeeping, the MT allocator entry points, thread spawn) quietly taxing
// the path everyone measures single-threaded.
TEST(BenchSmokeTest, ParallelModeOffEquivalenceFloor) {
#if defined(GENIE_ASAN_BUILD) || defined(GENIE_TSAN_BUILD)
  GTEST_SKIP() << "wall-clock throughput floors are meaningless under sanitizers";
#else
  constexpr std::uint64_t kTransfer = 64 * 1024;
  constexpr std::size_t kOps = 400;

  // Direct loop: same per-op work RunParallelFused's worker does (pattern
  // copyin with fused checksum into a fresh contiguous sysbuf), no threads,
  // no allocation point — the "parallel mode off" reference.
  std::vector<std::byte> pattern(kTransfer);
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<std::byte>((i * 37 + 11) & 0xFF);
  }
  PhysicalMemory direct_pm(64, kPage);
  const auto direct_loop = [&] {
    for (std::size_t op = 0; op < kOps; ++op) {
      SysBuffer buf;
      ASSERT_TRUE(TryAllocateSysBuffer(direct_pm, 0, kTransfer, &buf));
      InternetChecksum sum;
      sum.UpdateWithCopy(pattern,
                         direct_pm.DataRun(buf.iov.segments[0].frame, 0, kTransfer).data());
      g_sink = sum.value();
      FreeSysBuffer(direct_pm, buf);
    }
  };

  // Harness at 1 thread, pool churn off: same op count per measurement.
  ParallelFusedConfig cfg;
  cfg.threads = 1;
  cfg.ops_per_thread = kOps;
  cfg.bytes_per_op = kTransfer;
  cfg.arena_frames = 64;
  cfg.seed = 11;
  PhysicalMemory mt_pm(cfg.arena_frames * 3 + 16, kPage);
  const auto harness_loop = [&] { (void)RunParallelFused(mt_pm, cfg); };

  // Short windows of the two sides, interleaved, each side scored by its
  // best window: a host burst then slows one window of one side instead of
  // that side's whole measurement. Past the minimum, rounds go on (up to a
  // cap, about 2 s) only while the gate would fail: tests running alongside
  // this one tax the harness's per-body thread spawn far more than the
  // direct loop, so a failure has to hold through every round to count.
  constexpr int kMinRounds = 6;
  constexpr int kMaxRounds = 40;
  constexpr std::chrono::milliseconds kWindow(20);
  double direct_mbps = 0.0;
  double harness_mbps = 0.0;
  for (int round = 0; round < kMaxRounds; ++round) {
    direct_mbps = std::max(direct_mbps, MeasureMbps(kTransfer * kOps, direct_loop, kWindow));
    harness_mbps = std::max(harness_mbps, MeasureMbps(kTransfer * kOps, harness_loop, kWindow));
    if (round + 1 >= kMinRounds && harness_mbps >= 0.5 * direct_mbps) {
      break;
    }
  }

  // The harness pays one thread spawn+join per measurement body (~10 us)
  // against ~25 MB of copying, plus the arena bookkeeping; allow it to run
  // at half the direct rate before calling it a regression. In practice the
  // two are within a few percent — the floor is slack for loaded CI boxes.
  const GateResult gate =
      CheckThroughputFloor("hostpath_mt_1t_vs_direct", harness_mbps, 0.5 * direct_mbps);
  EXPECT_TRUE(gate.ok()) << gate.ToString() << " (direct=" << direct_mbps
                         << " MB/s, harness=" << harness_mbps << " MB/s)";
#endif
}

}  // namespace
}  // namespace genie
