#include "perfbench/ladder.h"

#include <cstdio>
#include <span>

#include "perfbench/stats.h"
#include "perfbench/two_node.h"
#include "src/analysis/linear_fit.h"
#include "src/genie/host_path.h"
#include "src/genie/sys_buffer.h"
#include "src/net/checksum.h"
#include "src/sim/engine.h"
#include "src/sim/task.h"
#include "src/sim/trace.h"
#include "src/vm/address_space.h"
#include "src/vm/vm.h"

namespace perfbench {

namespace {

// Gray & Kukol-style sweep from a minimal datagram to one AAL5 datagram.
constexpr std::uint64_t kSweep[] = {64, 1024, 4096, 16384, 61440};
constexpr genie::Vaddr kBase = 0x10000000;
constexpr std::uint64_t kArea = 64 * 1024;
constexpr std::size_t kTraceRungTransfers = 1500;
constexpr int kTraceRungReps = 3;
constexpr std::size_t kFabricMixTransfers = 20000;

volatile std::uint64_t g_sink;

// Wall nanoseconds per call of `fn`: the median of three back-to-back
// repetitions of `seconds` / 3 each, after a short warm-up.
template <typename Fn>
double NsPerCall(Fn&& fn, double seconds) {
  for (int i = 0; i < 3; ++i) {
    fn();
  }
  std::vector<double> reps;
  for (int rep = 0; rep < 3; ++rep) {
    std::uint64_t calls = 0;
    const Clock::time_point t0 = Clock::now();
    double elapsed = 0.0;
    do {
      for (int i = 0; i < 8; ++i) {
        fn();
      }
      calls += 8;
      elapsed = SecondsSince(t0);
    } while (elapsed < seconds / 3);
    reps.push_back(elapsed * 1e9 / static_cast<double>(calls));
  }
  return Median(reps);
}

// One per-byte rung: a + b*bytes over the sweep, in nanoseconds.
template <typename Fn>
genie::LinearFit FitRung(Fn&& per_size, double seconds) {
  std::vector<std::pair<double, double>> points;
  for (const std::uint64_t n : kSweep) {
    points.emplace_back(static_cast<double>(n),
                        NsPerCall([&] { per_size(n); }, seconds / std::size(kSweep)));
  }
  return genie::FitLine(points);
}

double At(const genie::LinearFit& f, double bytes) { return f.intercept + f.slope * bytes; }
double PerKiB(const genie::LinearFit& f) { return f.slope * 1024.0; }

struct MixRung {
  double us_per_xfer = 0.0;
  genie::LinearFit fit;  // us against bytes
  RawCounts delta;
  double transfers = 0.0;
};

// Two-node, one transfer in flight, cycling the mix until `seconds` pass or
// `max_transfers` complete.
MixRung RunMixRung(const LadderSpec& spec, bool arq, double seconds, std::size_t max_transfers,
                   genie::TraceLog* trace, const PayloadSource& payloads,
                   std::vector<std::string>* violations) {
  TwoNode node({spec.checksum, arq, trace}, payloads);
  std::uint64_t id = 0;
  auto one = [&](const MixEntry& e) {
    const TwoNode::Outcome o = node.Transfer(id++, e.sem, e.len, nullptr);
    if (!o.ok || !o.verified) {
      violations->push_back("ladder: two-node transfer " + std::to_string(id - 1) + " failed");
    }
  };
  for (std::size_t i = 0; i < std::min<std::size_t>(spec.mix.size(), 16); ++i) {
    one(spec.mix[i]);
  }
  const RawCounts base = ReadCounts(node.view());
  std::vector<std::pair<double, double>> points;
  double total_us = 0.0;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; points.size() < max_transfers && SecondsSince(start) < seconds; ++i) {
    const MixEntry& e = spec.mix[i % spec.mix.size()];
    const Clock::time_point t0 = Clock::now();
    one(e);
    const double us = SecondsSince(t0) * 1e6;
    points.emplace_back(static_cast<double>(e.len), us);
    total_us += us;
  }
  node.Drain();
  MixRung r;
  r.transfers = static_cast<double>(points.size());
  r.us_per_xfer = total_us / r.transfers;
  r.fit = genie::FitLine(points);
  r.delta = ReadCounts(node.view()).Minus(base);
  return r;
}

genie::Task<void> NoopTask() { co_return; }

}  // namespace

LadderResult RunLadder(const LadderSpec& spec, std::uint64_t seed, double budget_s,
                       std::size_t transfers, double measured_us) {
  LadderResult out;
  // Cumulative rungs on the workload's path, bottom first, in us/transfer.
  std::vector<std::pair<std::string, double>> rungs;
  Metrics& m = out.metrics;
  const PayloadSource payloads(seed);
  double mean_len = 0.0;
  for (const MixEntry& e : spec.mix) {
    mean_len += static_cast<double>(e.len) / static_cast<double>(spec.mix.size());
  }

  // --- Per-byte primitives and the host-path library calls ---
  const double prim_s = 0.15 * budget_s / 6;
  std::vector<std::byte> src(kArea);
  std::vector<std::byte> dst(kArea);
  payloads.Fill(0, src);
  genie::Vm vm(256, 4096);
  genie::AddressSpace tx(vm, "tx");
  genie::AddressSpace rx(vm, "rx");
  tx.CreateRegion(kBase, kArea);
  rx.CreateRegion(kBase, kArea);
  GENIE_CHECK(tx.Write(kBase, src) == genie::AccessResult::kOk);
  GENIE_CHECK(rx.Write(kBase, src) == genie::AccessResult::kOk);
  const std::span<const std::byte> s(src);
  const std::span<std::byte> d(dst);
  const genie::LinearFit fused = FitRung(
      [&](std::uint64_t n) { g_sink = genie::CopyAndChecksum(s.first(n), d.first(n)); }, prim_s);
  const genie::LinearFit verify =
      FitRung([&](std::uint64_t n) { g_sink = genie::ChecksumOf(s.first(n)); }, prim_s);
  const genie::LinearFit rw = FitRung(
      [&](std::uint64_t n) {
        (void)tx.Write(kBase, s.first(n));
        (void)tx.Read(kBase, d.first(n));
      },
      prim_s);
  genie::SysBuffer sysbuf = genie::AllocateSysBuffer(vm.pm(), 0, kArea);
  const bool fuse = spec.checksum != genie::ChecksumMode::kNone;
  const genie::LinearFit copyin = FitRung(
      [&](std::uint64_t n) {
        genie::InternetChecksum sum;
        (void)genie::CopyinToIoVec(tx, kBase, n, sysbuf.iov, fuse ? &sum : nullptr);
        g_sink = sum.value();
      },
      prim_s);
  const genie::LinearFit copyout = FitRung(
      [&](std::uint64_t n) { (void)genie::DisposeCopyOutIntoApp(rx, kBase, n, sysbuf.iov); },
      prim_s);
  genie::FreeSysBuffer(vm.pm(), sysbuf);
  const genie::LinearFit sysbufs = FitRung(
      [&](std::uint64_t n) {
        genie::SysBuffer b = genie::AllocateSysBuffer(vm.pm(), 0, n);
        genie::FreeSysBuffer(vm.pm(), b);
      },
      prim_s);
  m["net.checksum.fused_ns_per_KiB"] = {PerKiB(fused), "ns/KiB"};
  m["net.checksum.verify_ns_per_KiB"] = {PerKiB(verify), "ns/KiB"};
  m["vm.rw_ns_per_KiB"] = {PerKiB(rw), "ns/KiB"};
  m["genie.host_path.copyin_ns_per_KiB"] = {PerKiB(copyin), "ns/KiB"};
  m["genie.host_path.copyout_ns_per_KiB"] = {PerKiB(copyout), "ns/KiB"};
  m["mem.sysbuf_ns"] = {At(sysbufs, mean_len), "ns"};

  // --- Simulator dispatch ---
  {
    genie::Engine engine;
    constexpr int kEvents = 256;
    const double ns = NsPerCall(
        [&] {
          for (int k = 0; k < kEvents; ++k) {
            engine.ScheduleAfter(k, [] {});
          }
          engine.Run();
        },
        0.025 * budget_s);
    m["sim.ns_per_event"] = {ns / kEvents, "ns"};
    m["sim.ns_per_task"] = {NsPerCall([] { NoopTask().Detach(); }, 0.025 * budget_s), "ns"};
  }

  // --- End-to-end rungs at the workload's mix ---
  std::vector<std::string>* v = &out.violations;
  const double rung_s = 3 * budget_s;  // a backstop; the transfer count bounds the rung
  const MixRung noarq = RunMixRung(spec, false, rung_s, transfers, nullptr, payloads, v);
  const double vm_us = At(rw, mean_len) / 1000.0;
  const double prim_us =
      spec.copy_prims
          ? (At(copyin, mean_len) + At(copyout, mean_len) + At(verify, mean_len) +
             2 * At(sysbufs, mean_len)) / 1000.0
          : 0.0;
  rungs.emplace_back("vm", vm_us);
  if (spec.copy_prims) {
    rungs.emplace_back("host_path", vm_us + prim_us);
  }
  rungs.emplace_back("endpoint", noarq.us_per_xfer);
  std::printf("ladder: two-node no-ARQ rung %.3f us/xfer over %.0f transfers (fit %.3f + %.6f us/B)\n",
              noarq.us_per_xfer, noarq.transfers, noarq.fit.intercept, noarq.fit.slope);
  if (spec.arq) {
    const MixRung arq = RunMixRung(spec, true, rung_s, transfers, nullptr, payloads, v);
    rungs.emplace_back("reliable", arq.us_per_xfer);
    std::printf("ladder: two-node ARQ rung %.3f us/xfer over %.0f transfers (fit %.3f + %.6f us/B)\n",
                arq.us_per_xfer, arq.transfers, arq.fit.intercept, arq.fit.slope);
  }
  // --- The fabric layers, measured on every workload at fabric_mixed_lossy's
  //     shape: lossless batches with the sampler off and on, the lossy batch,
  //     and the two-node ARQ rung at the same mix. ---
  const FabricRung fab = RunFabricRung(seed, false, false, v);
  const FabricRung fab_tel = RunFabricRung(seed, false, true, v);
  const FabricRung fab_lossy = RunFabricRung(seed, true, true, v);
  const MixRung arq_fab = RunMixRung(FabricLadderSpec(seed), true, rung_s, kFabricMixTransfers,
                                     nullptr, payloads, v);
  m["net.fabric.us_per_xfer"] = {fab.us_per_xfer - arq_fab.us_per_xfer, "us"};
  m["obs.telemetry.us_per_xfer"] = {fab_tel.us_per_xfer - fab.us_per_xfer, "us"};
  m["net.fabric.grants_per_xfer"] = {fab_lossy.grants_per_xfer, "count"};
  m["genie.reliable.lossy_retransmit_frac"] = {fab_lossy.retransmit_frac, "ratio"};
  m["net.adapter.lossy_ctrl_cells_per_xfer"] = {fab_lossy.ctrl_cells_per_xfer, "count"};

  std::vector<double> cumulative;
  for (const auto& r : rungs) {
    cumulative.push_back(r.second);
  }
  const std::vector<double> self = LadderSelfTimes(cumulative);
  m["ledger.unexplained_frac"] = {UnexplainedFraction(self, measured_us), "ratio"};
  auto self_of = [&](const char* name) {
    for (std::size_t i = 0; i < rungs.size(); ++i) {
      if (rungs[i].first == name) {
        return self[i];
      }
    }
    return 0.0;  // the layer is not on this workload's path
  };
  m["genie.endpoint.us_per_xfer"] = {self_of("endpoint"), "us"};
  m["genie.reliable.us_per_xfer"] = {self_of("reliable"), "us"};
  m["ladder.top_us_per_xfer"] = {cumulative.back(), "us"};

  // --- Trace overhead on the copy_stream_60k shape (60 KiB copy, integrated
  //     checksum, ARQ): a TraceLog attached versus none, same transfer count,
  //     alternating, medians of each side.
  {
    LadderSpec shape;
    shape.mix = {{genie::Semantics::kCopy, 60 * 1024}};
    shape.checksum = genie::ChecksumMode::kIntegrated;
    std::vector<double> plain;
    std::vector<double> traced;
    for (int rep = 0; rep < kTraceRungReps; ++rep) {
      plain.push_back(
          RunMixRung(shape, true, rung_s, kTraceRungTransfers, nullptr, payloads, v).us_per_xfer);
      genie::TraceLog log;
      traced.push_back(
          RunMixRung(shape, true, rung_s, kTraceRungTransfers, &log, payloads, v).us_per_xfer);
    }
    m["obs.trace.overhead_frac"] = {Median(traced) / Median(plain) - 1.0, "ratio"};
  }

  double self_sum = 0.0;
  std::printf("ladder (us/xfer at mean %.0f B):", mean_len);
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    std::printf(" %s=%.3f (self %.3f)", rungs[i].first.c_str(), rungs[i].second, self[i]);
    self_sum += self[i];
  }
  std::printf("\nladder: self times sum to %.3f = top rung %.3f; measured %.3f us/xfer\n",
              self_sum, cumulative.back(), measured_us);
  return out;
}

}  // namespace perfbench
