// One-transfer-at-a-time runner over the harness's two-node Testbed, the way
// Testbed::TransferOnce moves a datagram (receive preposted and prepared
// before the output, system-allocated buffers allocated per output and the
// previous moved-in input region freed on the next call), but with seeded
// payloads that are verified on delivery. remap_sweep runs on it, and so do
// the ladder's two-node rungs.
#ifndef PERFBENCH_TWO_NODE_H_
#define PERFBENCH_TWO_NODE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "perfbench/common.h"
#include "src/harness/experiment.h"

namespace perfbench {

class TwoNode {
 public:
  struct Config {
    genie::ChecksumMode checksum = genie::ChecksumMode::kNone;
    bool arq = false;  // ARQ at window 16 on both nodes
    genie::TraceLog* trace = nullptr;
  };

  struct Outcome {
    bool ok = false;        // the library reported success
    bool verified = false;  // and the delivered bytes matched
    double sim_latency_us = 0.0;
  };

  TwoNode(const Config& config, const PayloadSource& payloads);

  // Moves transfer `id` (semantics `sem`, `len` bytes) end to end.
  Outcome Transfer(std::uint64_t id, genie::Semantics sem, std::uint64_t len, SpanRecorder* spans);

  // Releases the last moved-in input region, so the system is quiescent.
  void Drain();

  TwoNodeView view();
  genie::Engine& engine() { return bed_->engine(); }

 private:
  const PayloadSource* payloads_;
  std::unique_ptr<genie::Testbed> bed_;
  genie::Vaddr pending_free_ = 0;
  std::vector<std::byte> buf_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TWO_NODE_H_
