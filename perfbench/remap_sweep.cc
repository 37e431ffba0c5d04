// remap_sweep: the paper's two-node Testbed (early demultiplexing, ARQ off,
// one transfer in flight, receive preposted) cycling the seven non-copy
// semantics over Figure 3's page-multiple lengths, 4-60 KiB. Data moves by
// VM remapping (TCOW, page swap, region hiding, moved-in regions) with no
// checksum. Each cycle of the 105 (semantics, length) pairs runs in a seeded
// order.
//
// Known baseline behaviour, recorded rather than fixed: every emulated-move
// and weak-move output leaves a region and a memory object behind in the
// sender, so wall time per transfer grows over an epoch (vm.live_regions_end,
// drift.late_vs_early). An epoch is a fixed number of whole cycles, so the
// growth is the same in every epoch and on every build.
#include <algorithm>

#include "perfbench/common.h"
#include "perfbench/stats.h"
#include "perfbench/two_node.h"
#include "src/util/rng.h"
#include "src/vm/invariants.h"

namespace perfbench {

namespace {

constexpr std::size_t kEpochCycles = 40;

class RemapSweep final : public Workload {
 public:
  explicit RemapSweep(std::uint64_t seed) : seed_(seed), payloads_(seed) {
    for (const genie::Semantics sem : genie::kAllSemantics) {
      if (sem == genie::Semantics::kCopy) {
        continue;
      }
      for (const std::uint64_t len : genie::PageMultipleLengths()) {
        canonical_.push_back({sem, len});
      }
    }
  }

  std::uint64_t Setup() override {
    node_.reset();
    node_ = std::make_unique<TwoNode>(TwoNode::Config{}, payloads_);
    cycle_ = canonical_;
    rng_ = genie::SplitMix64(seed_);
    pos_ = 0;
    next_id_ = 0;
    for (std::size_t i = 0; i < cycle_.size(); ++i) {
      const MixEntry e = Next();
      const TwoNode::Outcome o = node_->Transfer(next_id_++, e.sem, e.len, nullptr);
      if (!o.ok || !o.verified) {
        warmup_violations_.push_back("remap_sweep warm-up transfer failed");
      }
    }
    baseline_ = ReadCounts(node_->view());
    timed_bytes_ = 0;
    latencies_.clear();
    timed_start_ = node_->engine().now();
    return node_->engine().event_digest();
  }

  UnitResult Step(SpanRecorder* spans) override {
    const MixEntry e = Next();
    const TwoNode::Outcome o = node_->Transfer(next_id_++, e.sem, e.len, spans);
    UnitResult r;
    r.attempted = 1;
    r.failed = o.ok ? 0 : 1;
    r.unverified = o.ok && !o.verified ? 1 : 0;
    r.completed = o.ok && o.verified ? 1 : 0;
    r.bytes = r.completed * e.len;
    latencies_.push_back(o.sim_latency_us);
    timed_bytes_ += r.bytes;
    return r;
  }

  std::size_t EpochUnits() const override { return kEpochCycles * canonical_.size(); }

  SimSummary Sim() const override {
    SimSummary s;
    const double sim_s = genie::SimTimeToMicros(node_->engine().now() - timed_start_) / 1e6;
    s.mbps = sim_s > 0 ? static_cast<double>(timed_bytes_) / sim_s / 1e6 : 0.0;
    s.latency_p50_us = Percentile(latencies_, 50);
    s.latency_p99_us = Percentile(latencies_, 99);
    s.samples = latencies_.size();
    return s;
  }

  std::vector<std::string> Check() override {
    node_->Drain();
    const TwoNodeView v = node_->view();
    std::vector<std::string> out = warmup_violations_;
    for (const auto& [vm, app] : {std::pair{&v.tx_node->vm(), v.tx_app},
                                  std::pair{&v.rx_node->vm(), v.rx_app}}) {
      const genie::InvariantReport rep = genie::VmInvariants::CheckAll(*vm, *app, true);
      out.insert(out.end(), rep.violations.begin(), rep.violations.end());
    }
    if (v.engine->pending_events() != 0) {
      out.push_back("engine not quiescent after the timed phase");
    }
    return out;
  }

  RawCounts CountsSinceSetup() const override {
    return ReadCounts(node_->view()).Minus(baseline_);
  }

  LadderSpec Ladder() const override {
    LadderSpec spec;
    spec.mix = canonical_;
    return spec;
  }

  std::size_t SpansPerUnit() const override { return 8; }

 private:
  // The next (semantics, length) pair; each cycle is a fresh seeded shuffle.
  MixEntry Next() {
    if (pos_ == 0) {
      for (std::size_t i = cycle_.size() - 1; i > 0; --i) {
        std::swap(cycle_[i], cycle_[rng_.Below(i + 1)]);
      }
    }
    const MixEntry e = cycle_[pos_];
    pos_ = (pos_ + 1) % cycle_.size();
    return e;
  }

  std::uint64_t seed_;
  PayloadSource payloads_;
  std::vector<std::string> warmup_violations_;
  std::vector<MixEntry> canonical_;
  std::vector<MixEntry> cycle_;
  genie::SplitMix64 rng_{0};
  std::size_t pos_ = 0;
  std::uint64_t next_id_ = 0;
  std::unique_ptr<TwoNode> node_;
  RawCounts baseline_;
  std::uint64_t timed_bytes_ = 0;
  std::vector<double> latencies_;
  genie::SimTime timed_start_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeRemapSweep(std::uint64_t seed) {
  return std::make_unique<RemapSweep>(seed);
}

}  // namespace perfbench
