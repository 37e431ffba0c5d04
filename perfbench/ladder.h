// The layer ladder of the traced run: rungs timed from outside around public
// calls, each adding one layer to the one below, at the workload's sizes.
// Per-byte rungs are fitted as a + b*bytes (src/analysis/linear_fit) over a
// size sweep; end-to-end rungs are averaged over the workload's own
// (semantics, length) mix. Consecutive rungs subtract into per-layer self
// times, which add back up to the top rung.
#ifndef PERFBENCH_LADDER_H_
#define PERFBENCH_LADDER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/common.h"

namespace perfbench {

struct LadderResult {
  Metrics metrics;
  std::vector<std::string> violations;
};

// `transfers` bounds each end-to-end rung, so it covers as many transfers
// as the untraced epoch it is compared against (time per transfer can
// depend on how many came before, as remap_sweep's does). `measured_us` is
// that epoch's wall time per transfer, which the ledger explains.
LadderResult RunLadder(const LadderSpec& spec, std::uint64_t seed, double budget_s,
                       std::size_t transfers, double measured_us);

// fabric_mixed_lossy's (semantics, length) mix. Defined in fabric_rung.cc,
// like the rung below.
LadderSpec FabricLadderSpec(std::uint64_t seed);

// One fabric_mixed_lossy-shaped batch, with or without the 1% link drops
// and the telemetry sampler.
struct FabricRung {
  double us_per_xfer = 0.0;  // wall time per completed transfer, build included
  double grants_per_xfer = 0.0;
  double ctrl_cells_per_xfer = 0.0;
  double retransmit_frac = 0.0;
};
FabricRung RunFabricRung(std::uint64_t seed, bool lossy, bool telemetry,
                         std::vector<std::string>* violations);

}  // namespace perfbench

#endif  // PERFBENCH_LADDER_H_
