// Critical-path latency attribution over a flow's causal graph.
//
// The analyzer decomposes a transfer's end-to-end simulated latency into the
// stages of the buffering-semantics taxonomy: sender prepare, credit wait,
// wire occupancy, receiver prepare, ack wait, retransmission, window stall,
// and dispose.
// Attribution is a deterministic priority sweep over the flow's time range:
// at every instant the highest-priority overlapping span claims the time, and
// instants not covered by any span fall into "other". The per-stage totals
// therefore sum *exactly* to the flow's makespan — the trace-derived table is
// directly comparable against the CostModel's analytic Table 6.
//
// Retransmission attribution: the first wire span of a flow is real delivery
// (kWire); every later wire span, every ack wait except the last, and every
// nack pause exist only because a frame was lost or damaged, so they charge
// to kRetransmit. A lossy run thus shows its extra latency under
// "retransmit", with "wire" identical to the lossless run.
#ifndef GENIE_SRC_OBS_CRITICAL_PATH_H_
#define GENIE_SRC_OBS_CRITICAL_PATH_H_

#include <array>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/causal_graph.h"

namespace genie {

enum class Stage : std::uint8_t {
  kPrepare = 0,      // sender prepare (Table 2 left column)
  kCreditWait,       // blocked on flow-control credit
  kWire,             // first delivery's wire occupancy
  kReceiverPrepare,  // receiver prepare (Tables 3/4)
  kAckWait,          // final attempt's wire-end-to-ack gap
  kRetransmit,       // loss recovery: extra wire spans, earlier ack waits,
                     // nack pauses
  kDispose,          // sender + receiver dispose
  kWindowStall,      // admission blocked on a full selective-repeat window
  kFabricWait,       // waiting for a contended link (point-to-point or switched)
  kOther,            // covered by no span (fixed hardware latencies, gaps)
};
inline constexpr std::size_t kStageCount = 10;

std::string_view StageName(Stage stage);

// One flow's attributed latency. stage_ns sums exactly to makespan.
struct FlowBreakdown {
  std::uint64_t flow = 0;
  std::string label;      // "out#<id>[<semantics>]", empty if unknown
  std::string semantics;  // parsed from the label, empty if unknown
  SimTime start = 0;
  SimTime makespan = 0;
  std::array<SimTime, kStageCount> stage_ns{};

  SimTime stage(Stage s) const { return stage_ns[static_cast<std::size_t>(s)]; }
};

// Attributes `graph`'s makespan across the stages.
FlowBreakdown AttributeStages(const CausalGraph& graph);

// Analyzes every flow recorded in `log`, ascending by flow id.
std::vector<FlowBreakdown> AnalyzeTrace(const TraceLog& log);

// Deterministic JSON document of the per-flow breakdowns (times in
// microseconds). Byte-identical across runs of the same deterministic
// schedule — the golden analyzer test diffs this output.
void WriteBreakdownJson(std::ostream& os, const std::vector<FlowBreakdown>& flows);

// Human-readable per-semantics breakdown table (the trace-derived Table-6
// analogue): one row per semantics, mean stage times in microseconds over
// that semantics' flows, in first-appearance order.
void WriteBreakdownTable(std::ostream& os, const std::vector<FlowBreakdown>& flows);

}  // namespace genie

#endif  // GENIE_SRC_OBS_CRITICAL_PATH_H_
