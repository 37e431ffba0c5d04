#include "src/harness/experiment.h"

#include <algorithm>

#include "src/util/check.h"
#include "src/util/stats.h"

namespace genie {

namespace {

constexpr Vaddr kSrcRegion = 0x20000000;
constexpr Vaddr kDstRegion = 0x30000000;
constexpr std::uint64_t kBufferRegionBytes = 64 * 1024 + 8 * 8192;  // fits 60 KB at any offset

std::vector<std::byte> Payload(std::uint64_t len) {
  std::vector<std::byte> v(static_cast<std::size_t>(len));
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<std::byte>((i * 31 + 7) & 0xFF);
  }
  return v;
}

}  // namespace

Testbed::Testbed(const ExperimentConfig& config) : config_(config) {
  Node::Config sender_cfg;
  sender_cfg.profile = config.profile;
  sender_cfg.mem_frames = config.mem_frames;
  sender_cfg.rx_buffering = InputBuffering::kEarlyDemux;  // Sender never receives here.
  Node::Config receiver_cfg = sender_cfg;
  receiver_cfg.rx_buffering = config.buffering;

  sender_ = std::make_unique<Node>(engine_, "tx", sender_cfg);
  receiver_ = std::make_unique<Node>(engine_, "rx", receiver_cfg);
  if (config.trace != nullptr) {
    sender_->set_trace(config.trace);
    receiver_->set_trace(config.trace);
  }
  network_ = std::make_unique<Network>(engine_, *sender_, *receiver_);
  tx_ep_ = std::make_unique<Endpoint>(*sender_, 1, config.options);
  rx_ep_ = std::make_unique<Endpoint>(*receiver_, 1, config.options);
  tx_app_ = &sender_->CreateProcess("app");
  rx_app_ = &receiver_->CreateProcess("app");

  tx_app_->CreateRegion(kSrcRegion, kBufferRegionBytes + sender_->page_size(),
                        RegionState::kUnmovable);
  rx_app_->CreateRegion(kDstRegion, kBufferRegionBytes + receiver_->page_size(),
                        RegionState::kUnmovable);
  src_buffer_ = kSrcRegion + config.src_page_offset;
  dst_buffer_ = kDstRegion + config.dst_page_offset;
}

Testbed::~Testbed() {
  sender_->set_trace(nullptr);
  receiver_->set_trace(nullptr);
}

InputResult Testbed::TransferOnceMixed(std::uint64_t len, Semantics out_sem,
                                       Semantics in_sem) {
  if (pending_free_ != 0) {
    // Free the previous datagram's moved-in input region (deferred so the
    // caller could inspect the data).
    rx_ep_->FreeIoBuffer(*rx_app_, pending_free_);
    pending_free_ = 0;
  }
  Vaddr src = src_buffer_;
  if (IsSystemAllocated(out_sem)) {
    // Fresh moved-in source buffer per datagram (the output deallocates it).
    src = tx_ep_->AllocateIoBuffer(*tx_app_, len);
  }
  const auto payload = Payload(len);
  const AccessResult wrote = tx_app_->Write(src, payload);
  GENIE_CHECK(wrote == AccessResult::kOk);

  InputResult result;
  auto input_driver = [](Endpoint& ep, AddressSpace& app, Vaddr va, std::uint64_t n,
                         Semantics s, InputResult* out) -> Task<void> {
    if (IsSystemAllocated(s)) {
      *out = co_await ep.InputSystemAllocated(app, n, s);
    } else {
      *out = co_await ep.Input(app, va, n, s);
    }
  };
  std::move(input_driver(*rx_ep_, *rx_app_, dst_buffer_, len, in_sem, &result)).Detach();
  // Paper methodology (Section 6.2.1): receives are preposted — let the
  // input's prepare finish before the sender starts, so slow receiver
  // prepares (e.g. wiring a large fresh region) cannot lose the race with a
  // fast sender. In steady state the prepare overlaps the previous datagram
  // anyway, so it is correctly excluded from the measured one-way latency.
  const bool prepared = engine_.RunUntil([&] { return rx_ep_->HasPreparedInput(); });
  GENIE_CHECK(prepared) << "input prepare never posted";
  last_send_time_ = engine_.now();
  std::move(tx_ep_->Output(*tx_app_, src, len, out_sem)).Detach();
  engine_.Run();
  GENIE_CHECK(result.ok) << "transfer failed";

  if (IsSystemAllocated(in_sem)) {
    // Steady-state receiver: release the moved-in input region (on the next
    // call). For the emulated semantics this returns nothing to the cache,
    // matching a consumer that processes and frees its input; the next
    // input's region allocation overlaps the sender and network.
    pending_free_ = result.addr;
  }
  return result;
}

RunResult Experiment::Run(Semantics sem, std::span<const std::uint64_t> lengths) {
  RunResult run;
  for (const std::uint64_t len : lengths) {
    Testbed bed(config_);
    if (config_.collect_op_samples) {
      auto probe = [&run](OpKind op, std::uint64_t bytes, SimTime cost) {
        run.op_samples[op].emplace_back(bytes, SimTimeToMicros(cost));
      };
      bed.tx().set_op_probe(probe);
      bed.rx().set_op_probe(probe);
    }

    // Warm-up (populate buffers, caches, region queues).
    bed.TransferOnce(len, sem);

    // Measurement window.
    bed.sender().cpu().ResetBusyTime();
    bed.receiver().cpu().ResetBusyTime();
    const SimTime window_start = bed.engine().now();
    std::vector<double> latencies;
    latencies.reserve(static_cast<std::size_t>(config_.repetitions));
    for (int rep = 0; rep < config_.repetitions; ++rep) {
      const InputResult r = bed.TransferOnce(len, sem);
      latencies.push_back(SimTimeToMicros(r.completed_at - bed.last_send_time()));
    }
    const SimTime window = bed.engine().now() - window_start;
    GENIE_CHECK_GT(window, 0);

    LatencySample sample;
    sample.bytes = len;
    sample.latency_us = Mean(latencies);
    sample.throughput_mbps = ThroughputMbps(len, sample.latency_us);
    sample.sender_utilization =
        static_cast<double>(bed.sender().cpu().busy_time()) / static_cast<double>(window);
    sample.receiver_utilization =
        static_cast<double>(bed.receiver().cpu().busy_time()) / static_cast<double>(window);
    run.samples.push_back(sample);
  }
  return run;
}

std::vector<std::uint64_t> PageMultipleLengths(std::uint32_t page_size,
                                               std::uint64_t max_bytes) {
  std::vector<std::uint64_t> lengths;
  for (std::uint64_t b = page_size; b <= max_bytes; b += page_size) {
    lengths.push_back(b);
  }
  return lengths;
}

std::vector<std::uint64_t> ShortDatagramLengths() {
  // Figure 5's regime: tens of bytes up to two pages, dense around the
  // half-page crossover and the conversion thresholds.
  return {64,   128,  256,  512,  1024, 1500, 1666, 2048, 2178, 2560,
          3072, 3584, 4096, 5120, 6144, 7168, 8192};
}

double ThroughputMbps(std::uint64_t bytes, double latency_us) {
  GENIE_CHECK_GT(latency_us, 0.0);
  return static_cast<double>(bytes) * 8.0 / latency_us;
}

}  // namespace genie
