// Extension bench: sender-managed buffer placement (paper Section 6.2.1,
// Hamlyn [5] / decoupled data transfer [20]) vs receiver-preposted input.
// With a persistent named buffer the receive path shrinks to interrupt +
// notification — the data-path analogue of the control-path OS-bypass
// optimizations discussed in Section 9.
#include <cstdio>

#include "bench/bench_util.h"

namespace genie {
namespace {

Task<void> ReceiveInto(Endpoint& ep, std::uint32_t tag, InputResult* out) {
  *out = co_await ep.ReceiveNamed(tag);
}

double NamedLatency(std::uint64_t len) {
  Testbed bed(ExperimentConfig{});
  const std::uint32_t tag = bed.rx().RegisterNamedBuffer(bed.rx_app(), bed.dst_buffer(), len);
  std::vector<std::byte> payload(len, std::byte{0x5A});
  (void)bed.tx_app().Write(bed.src_buffer(), payload);

  double latency = 0;
  for (int rep = 0; rep < 3; ++rep) {  // Warm + measured.
    InputResult r;
    std::move(ReceiveInto(bed.rx(), tag, &r)).Detach();
    const SimTime t0 = bed.engine().now();
    std::move(bed.tx().OutputTagged(bed.tx_app(), bed.src_buffer(), len,
                                    Semantics::kEmulatedShare, tag))
        .Detach();
    bed.engine().Run();
    latency = SimTimeToMicros(r.completed_at - t0);
  }
  return latency;
}

double PostedLatency(std::uint64_t len, Semantics sem) {
  ExperimentConfig config;
  config.repetitions = 3;
  Experiment experiment(config);
  const std::vector<std::uint64_t> lengths = {len};
  return experiment.Run(sem, lengths).samples[0].latency_us;
}

void Run() {
  std::printf("=== Sender-managed placement vs receiver-preposted input ===\n");
  std::printf("Named persistent buffers (Hamlyn-style tags in the packet header)\n");
  std::printf("against the taxonomy's cheapest preposted semantics.\n\n");
  TextTable table;
  table.AddHeader({"bytes", "sender-managed (us)", "emulated share (us)", "emulated copy (us)",
                   "copy (us)"});
  for (const std::uint64_t len : {4096ull, 16384ull, 61440ull}) {
    table.AddRow({std::to_string(len), FormatDouble(NamedLatency(len), 0),
                  FormatDouble(PostedLatency(len, Semantics::kEmulatedShare), 0),
                  FormatDouble(PostedLatency(len, Semantics::kEmulatedCopy), 0),
                  FormatDouble(PostedLatency(len, Semantics::kCopy), 0)});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf("\nSender-managed placement removes the per-datagram unreference from the\n");
  std::printf("critical path (and all buffer management from the receive side), at the\n");
  std::printf("cost of weak integrity and a pinned (non-pageable) buffer - exactly the\n");
  std::printf("trade-offs Section 9 attributes to OS-bypass architectures.\n");
}

}  // namespace
}  // namespace genie

int main() {
  genie::Run();
  return 0;
}
