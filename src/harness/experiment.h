// Experiment harness: builds a sender/receiver testbed and measures one-way
// end-to-end datagram latency and CPU utilization for a given semantics,
// device input-buffering scheme, machine profile, and datagram length sweep
// — the methodology of the paper's Section 7 (warm caches, averages over
// repeated runs, preposted receives).
#ifndef GENIE_SRC_HARNESS_EXPERIMENT_H_
#define GENIE_SRC_HARNESS_EXPERIMENT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "src/genie/endpoint.h"
#include "src/genie/node.h"
#include "src/sim/engine.h"

namespace genie {

struct ExperimentConfig {
  MachineProfile profile = MachineProfile::MicronP166();
  InputBuffering buffering = InputBuffering::kEarlyDemux;
  GenieOptions options;
  // Byte offset of the receive buffer within its page: 0 reproduces the
  // application-aligned experiments, nonzero the unaligned ones (Figure 7).
  std::uint32_t dst_page_offset = 0;
  std::uint32_t src_page_offset = 0;
  // Measured repetitions per point after one warm-up (paper: averages of
  // five runs on warm caches).
  int repetitions = 5;
  std::size_t mem_frames = 4096;
  bool collect_op_samples = false;
  // Optional execution trace: attached to both testbed nodes (benches set
  // this from the GENIE_TRACE env hook). Not owned; nullptr disables.
  TraceLog* trace = nullptr;
};

struct LatencySample {
  std::uint64_t bytes = 0;
  double latency_us = 0.0;          // mean one-way latency
  double throughput_mbps = 0.0;     // single-datagram equivalent throughput
  double sender_utilization = 0.0;  // busy fraction over the measured window
  double receiver_utilization = 0.0;
};

struct RunResult {
  std::vector<LatencySample> samples;
  // Per-operation instrumentation: op -> (bytes, charged microseconds),
  // collected when ExperimentConfig::collect_op_samples is set.
  std::map<OpKind, std::vector<std::pair<std::uint64_t, double>>> op_samples;
};

// A ready-made two-node testbed (also used by the examples).
class Testbed {
 public:
  explicit Testbed(const ExperimentConfig& config);
  // Releases the nodes' trace track claims, so a later bed can attach to the
  // same (not owned, longer-lived) log under the same track names.
  ~Testbed();

  Engine& engine() { return engine_; }
  Node& sender() { return *sender_; }
  Node& receiver() { return *receiver_; }
  Endpoint& tx() { return *tx_ep_; }
  Endpoint& rx() { return *rx_ep_; }
  AddressSpace& tx_app() { return *tx_app_; }
  AddressSpace& rx_app() { return *rx_app_; }

  // Application buffers (within pre-created regions), honoring the
  // configured page offsets.
  Vaddr src_buffer() const { return src_buffer_; }
  Vaddr dst_buffer() const { return dst_buffer_; }

  // Sends one datagram and waits for the receiver-side completion.
  // For system-allocated semantics, allocates/fills a fresh moved-in source
  // buffer per call and ignores src/dst addresses.
  InputResult TransferOnce(std::uint64_t len, Semantics sem) {
    return TransferOnceMixed(len, sem, sem);
  }

  // Sender and receiver may use different semantics (paper Section 8's
  // mixed-semantics composition).
  InputResult TransferOnceMixed(std::uint64_t len, Semantics out_sem, Semantics in_sem);

  // Simulated time at which the last transfer's output call was issued
  // (after the receive was preposted): one-way latency is
  // result.completed_at - last_send_time().
  SimTime last_send_time() const { return last_send_time_; }

 private:
  ExperimentConfig config_;
  Engine engine_;
  std::unique_ptr<Node> sender_;
  std::unique_ptr<Node> receiver_;
  std::unique_ptr<Network> network_;
  std::unique_ptr<Endpoint> tx_ep_;
  std::unique_ptr<Endpoint> rx_ep_;
  AddressSpace* tx_app_ = nullptr;
  AddressSpace* rx_app_ = nullptr;
  Vaddr src_buffer_ = 0;
  Vaddr dst_buffer_ = 0;
  Vaddr pending_free_ = 0;  // Moved-in input region to release on next call.
  SimTime last_send_time_ = 0;
};

class Experiment {
 public:
  explicit Experiment(ExperimentConfig config) : config_(std::move(config)) {}

  // Runs the length sweep for one semantics, returning per-length means.
  RunResult Run(Semantics sem, std::span<const std::uint64_t> lengths);

  const ExperimentConfig& config() const { return config_; }

 private:
  ExperimentConfig config_;
};

// The paper's standard sweeps.
std::vector<std::uint64_t> PageMultipleLengths(std::uint32_t page_size = 4096,
                                               std::uint64_t max_bytes = 60 * 1024);
std::vector<std::uint64_t> ShortDatagramLengths();

// Equivalent single-datagram throughput in Mbps.
double ThroughputMbps(std::uint64_t bytes, double latency_us);

}  // namespace genie

#endif  // GENIE_SRC_HARNESS_EXPERIMENT_H_
