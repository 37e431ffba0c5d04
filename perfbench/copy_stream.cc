// copy_stream_60k: two nodes, copy semantics, one 60 KiB AAL5 datagram per
// transfer, integrated transport checksum, ARQ window 16 driven through the
// endpoints' submit/completion rings, lossless. Each unit is one ring batch
// of 16 transfers; every transfer carries a fresh seeded payload that is
// checked on the receiver. The per-byte layers do nearly all the work here
// (checksum, copyin/copyout, adapter wire copy, AddressSpace read/write).
#include <span>

#include "perfbench/common.h"
#include "perfbench/stats.h"
#include "src/vm/invariants.h"

namespace perfbench {

namespace {

constexpr std::size_t kWindow = 16;
constexpr std::uint64_t kLen = 60 * 1024;
constexpr std::uint64_t kSlotStride = 64 * 1024;
constexpr genie::Vaddr kTxBase = 0x10000000;
constexpr genie::Vaddr kRxBase = 0x20000000;
constexpr std::uint64_t kWarmupBatches = 4;
constexpr std::size_t kEpochBatches = 256;

genie::Task<void> DriveBatch(genie::Endpoint& rx, genie::Endpoint& tx, std::size_t n) {
  (void)co_await rx.Drain();
  (void)co_await tx.Drain();
  (void)co_await tx.WaitCompletions(n);
  (void)co_await rx.WaitCompletions(n);
}

// Members in construction order; destroyed in reverse, engine last.
struct Instance {
  genie::Engine engine;
  std::unique_ptr<genie::Node> tx_node;
  std::unique_ptr<genie::Node> rx_node;
  std::unique_ptr<genie::Network> network;
  std::unique_ptr<genie::Endpoint> tx;
  std::unique_ptr<genie::Endpoint> rx;
  genie::AddressSpace* tx_app = nullptr;
  genie::AddressSpace* rx_app = nullptr;

  Instance() {
    tx_node = std::make_unique<genie::Node>(engine, "tx", genie::Node::Config{});
    rx_node = std::make_unique<genie::Node>(engine, "rx", genie::Node::Config{});
    network = std::make_unique<genie::Network>(engine, *tx_node, *rx_node);
    genie::GenieOptions opts;
    opts.checksum_mode = genie::ChecksumMode::kIntegrated;
    tx = std::make_unique<genie::Endpoint>(*tx_node, 1, opts);
    rx = std::make_unique<genie::Endpoint>(*rx_node, 1, opts);
    tx_app = &tx_node->CreateProcess("app");
    rx_app = &rx_node->CreateProcess("app");
    tx_app->CreateRegion(kTxBase, kWindow * kSlotStride);
    rx_app->CreateRegion(kRxBase, kWindow * kSlotStride);
    genie::ReliableOptions ropts;
    ropts.arq = true;
    ropts.window = kWindow;
    tx_node->EnableReliableDelivery(ropts);
    rx_node->EnableReliableDelivery(ropts);
  }

  TwoNodeView view() {
    return {&engine, tx_node.get(), rx_node.get(), tx.get(), rx.get(), tx_app, rx_app};
  }
};

class CopyStream final : public Workload {
 public:
  explicit CopyStream(std::uint64_t seed) : payloads_(seed), buf_(kLen) {}

  std::uint64_t Setup() override {
    inst_.reset();
    inst_ = std::make_unique<Instance>();
    next_id_ = 0;
    for (std::uint64_t b = 0; b < kWarmupBatches; ++b) {
      if (RunBatch(nullptr, nullptr).completed != kWindow) {
        warmup_violations_.push_back("copy_stream_60k warm-up batch failed");
      }
    }
    baseline_ = ReadCounts(inst_->view());
    latencies_.clear();
    timed_bytes_ = 0;
    timed_start_ = inst_->engine.now();
    return inst_->engine.event_digest();
  }

  UnitResult Step(SpanRecorder* spans) override {
    const UnitResult r = RunBatch(spans, &latencies_);
    timed_bytes_ += r.bytes;
    return r;
  }

  std::size_t EpochUnits() const override { return kEpochBatches; }

  SimSummary Sim() const override {
    SimSummary s;
    const double sim_s = genie::SimTimeToMicros(inst_->engine.now() - timed_start_) / 1e6;
    s.mbps = sim_s > 0 ? static_cast<double>(timed_bytes_) / sim_s / 1e6 : 0.0;
    s.latency_p50_us = Percentile(latencies_, 50);
    s.latency_p99_us = Percentile(latencies_, 99);
    s.samples = latencies_.size();
    return s;
  }

  std::vector<std::string> Check() override {
    Instance& in = *inst_;
    std::vector<std::string> out = warmup_violations_;
    for (const auto& [node, app] : {std::pair{in.tx_node.get(), in.tx_app},
                                    std::pair{in.rx_node.get(), in.rx_app}}) {
      const genie::InvariantReport rep = genie::VmInvariants::CheckAll(node->vm(), *app, true);
      out.insert(out.end(), rep.violations.begin(), rep.violations.end());
      if (node->reliable().stats().giveups != 0) {
        out.push_back(node->name() + ": ARQ gave up on a transfer");
      }
    }
    for (const genie::Endpoint* ep : {in.tx.get(), in.rx.get()}) {
      if (ep->stats().ring_completions != ep->stats().ring_submits) {
        out.push_back("ring completions do not match submissions");
      }
    }
    if (in.engine.pending_events() != 0) {
      out.push_back("engine not quiescent after the timed phase");
    }
    return out;
  }

  RawCounts CountsSinceSetup() const override {
    return ReadCounts(inst_->view()).Minus(baseline_);
  }

  LadderSpec Ladder() const override {
    LadderSpec spec;
    spec.mix = {{genie::Semantics::kCopy, kLen}};
    spec.checksum = genie::ChecksumMode::kIntegrated;
    spec.copy_prims = true;
    spec.arq = true;
    return spec;
  }

  std::size_t SpansPerUnit() const override { return 4 + 2 * kWindow; }

 private:
  // One ring batch: write 16 payloads, submit 16 posted inputs and 16
  // outputs, drain both rings, harvest, verify. Latency samples are output
  // completion times measured from the submit instant.
  UnitResult RunBatch(SpanRecorder* spans, std::vector<double>* latencies) {
    Instance& in = *inst_;
    const std::uint64_t first = next_id_;
    next_id_ += kWindow;
    ScopedSpan batch(spans, "batch", first / kWindow);
    const std::span<std::byte> buf(buf_);
    std::vector<genie::Endpoint::SubmitEntry> outs(kWindow);
    std::vector<genie::Endpoint::SubmitEntry> ins(kWindow);
    for (std::size_t i = 0; i < kWindow; ++i) {
      const std::uint64_t id = first + i;
      {
        ScopedSpan s(spans, "app.write", id, batch.index());
        payloads_.Fill(id, buf);
        GENIE_CHECK(in.tx_app->Write(kTxBase + i * kSlotStride, buf) == genie::AccessResult::kOk);
      }
      outs[i].op = genie::Endpoint::SubmitEntry::Op::kOutput;
      outs[i].app = in.tx_app;
      outs[i].va = kTxBase + i * kSlotStride;
      outs[i].len = kLen;
      outs[i].sem = genie::Semantics::kCopy;
      outs[i].user_data = id;
      ins[i] = outs[i];
      ins[i].op = genie::Endpoint::SubmitEntry::Op::kInput;
      ins[i].app = in.rx_app;
      ins[i].va = kRxBase + i * kSlotStride;
    }
    {
      ScopedSpan s(spans, "ring.submit", first / kWindow, batch.index());
      GENIE_CHECK(in.rx->SubmitBatch(ins) == kWindow && in.tx->SubmitBatch(outs) == kWindow);
    }
    const genie::SimTime submitted_at = in.engine.now();
    {
      ScopedSpan s(spans, "engine.run", first / kWindow, batch.index());
      std::move(DriveBatch(*in.rx, *in.tx, kWindow)).Detach();
      in.engine.Run();
    }
    std::vector<genie::Endpoint::Completion> tx_done;
    std::vector<genie::Endpoint::Completion> rx_done;
    {
      ScopedSpan s(spans, "ring.harvest", first / kWindow, batch.index());
      (void)in.tx->Harvest(&tx_done);
      (void)in.rx->Harvest(&rx_done);
    }
    UnitResult r;
    r.attempted = kWindow;
    std::uint64_t tx_ok = 0;
    for (const genie::Endpoint::Completion& c : tx_done) {
      if (c.status == genie::IoStatus::kOk) {
        ++tx_ok;
        if (latencies != nullptr) {
          latencies->push_back(genie::SimTimeToMicros(c.completed_at - submitted_at));
        }
      }
    }
    for (const genie::Endpoint::Completion& c : rx_done) {
      if (c.status != genie::IoStatus::kOk || c.bytes != kLen) {
        continue;
      }
      ScopedSpan s(spans, "app.verify", c.user_data, batch.index());
      if (in.rx_app->Read(c.addr, buf) == genie::AccessResult::kOk &&
          payloads_.Verify(c.user_data, buf)) {
        ++r.completed;
      } else {
        ++r.unverified;
      }
    }
    // A transfer completes when its input verified and its output reported
    // success; anything short of that, other than bad data, failed.
    r.completed = std::min<std::uint64_t>(r.completed, tx_ok);
    r.failed = kWindow - r.completed - r.unverified;
    r.bytes = r.completed * kLen;
    return r;
  }

  PayloadSource payloads_;
  std::vector<std::byte> buf_;
  std::vector<std::string> warmup_violations_;
  std::unique_ptr<Instance> inst_;
  std::uint64_t next_id_ = 0;
  RawCounts baseline_;
  std::vector<double> latencies_;
  std::uint64_t timed_bytes_ = 0;
  genie::SimTime timed_start_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeCopyStream(std::uint64_t seed) {
  return std::make_unique<CopyStream>(seed);
}

}  // namespace perfbench
