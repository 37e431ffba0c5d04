// Shared pieces of the host-speed benchmark: the workload interface the
// binary (main.cc) runs, metric maps, seeded payloads, the per-layer counters
// read from the library's public stats, and the heap-allocation counters that
// main.cc's operator new replacement maintains.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "perfbench/spans.h"
#include "src/genie/endpoint.h"
#include "src/genie/node.h"
#include "src/genie/options.h"
#include "src/genie/semantics.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

// Heap allocations made through operator new while `g_heap_counting` is set
// (single-threaded: the benchmark runs on one host thread).
extern bool g_heap_counting;
extern std::uint64_t g_heap_allocs;
extern std::uint64_t g_heap_bytes;

// Deterministic per-transfer payloads. Transfer `id` carries a window of a
// seeded 68 KiB pattern starting at a seeded offset, with its first eight
// bytes replaced by a stamp of the id, so a stale or misdelivered buffer
// never verifies.
class PayloadSource {
 public:
  explicit PayloadSource(std::uint64_t seed);
  void Fill(std::uint64_t id, std::span<std::byte> out) const;
  bool Verify(std::uint64_t id, std::span<const std::byte> got) const;

 private:
  std::uint64_t Offset(std::uint64_t id) const;
  std::uint64_t Stamp(std::uint64_t id) const;

  std::uint64_t seed_;
  std::vector<std::byte> pattern_;
};

// One datagram of a workload's transfer mix.
struct MixEntry {
  genie::Semantics sem = genie::Semantics::kCopy;
  std::uint64_t len = 0;
};

// What the layer ladder needs to know about a workload's path.
struct LadderSpec {
  std::vector<MixEntry> mix;  // representative (semantics, length) draws
  genie::ChecksumMode checksum = genie::ChecksumMode::kNone;
  bool copy_prims = false;  // copyin / verify / copyout / sysbufs on the path
  bool arq = false;
};

// Raw counters of one simulated system, read from public stats. Counters
// accumulate; the *_end fields are the state at the time of the read.
struct RawCounts {
  std::uint64_t events = 0;
  std::uint64_t tlb_hits = 0;
  std::uint64_t tlb_misses = 0;
  std::uint64_t faults = 0;
  std::uint64_t tcow = 0;
  std::uint64_t ops = 0;
  std::uint64_t bytes_copied = 0;
  std::uint64_t pages_swapped = 0;
  std::uint64_t region_cache_hits = 0;
  std::uint64_t region_cache_misses = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t sequenced = 0;
  std::uint64_t ctrl_cells = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t free_runs_end = 0;
  std::uint64_t live_regions_end = 0;
  std::uint64_t live_objects_end = 0;

  // Counter-wise difference (end-state fields keep this side's values).
  RawCounts Minus(const RawCounts& base) const;
};

// A two-node system: one sender and one receiver endpoint on one channel.
struct TwoNodeView {
  genie::Engine* engine = nullptr;
  genie::Node* tx_node = nullptr;
  genie::Node* rx_node = nullptr;
  genie::Endpoint* tx = nullptr;
  genie::Endpoint* rx = nullptr;
  genie::AddressSpace* tx_app = nullptr;
  genie::AddressSpace* rx_app = nullptr;
};
RawCounts ReadCounts(const TwoNodeView& v);
// Node-level counters (adapter, ARQ, VM, physical memory) of one node.
void AddNodeCounts(genie::Node& node, RawCounts* out);

// Per-layer count metrics over `transfers` transfers.
void EmitCounts(const RawCounts& delta, double transfers, Metrics* out);

// What one timed unit (a transfer or a ring batch) did, or a sum of them.
struct UnitResult {
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;      // the library reported failure
  std::uint64_t unverified = 0;  // delivered bytes did not match
  std::uint64_t bytes = 0;       // delivered payload bytes

  UnitResult& operator+=(const UnitResult& o) {
    attempted += o.attempted;
    completed += o.completed;
    failed += o.failed;
    unverified += o.unverified;
    bytes += o.bytes;
    return *this;
  }
  // Failed, unverified, and attempted-but-never-finished transfers.
  std::uint64_t bad() const { return attempted - completed; }
};

// Simulated-clock results over the units run since Setup.
struct SimSummary {
  double mbps = 0.0;
  double latency_p50_us = 0.0;
  double latency_p99_us = 0.0;
  std::uint64_t samples = 0;

  bool operator==(const SimSummary&) const = default;
};

// A workload is timed in epochs: a fresh Setup, then EpochUnits() units.
// Every epoch of a seed does the same work, so time per transfer that grows
// with the transfers before it (remap_sweep's) weighs the same in every
// epoch, and a build that is faster across the board shows it in full.
class Workload {
 public:
  virtual ~Workload() = default;

  // Replaces any previous instance with a freshly built one and runs its
  // warm-up; returns the simulated event digest after the warm-up.
  virtual std::uint64_t Setup() = 0;
  // Runs one timed unit; `spans` is null in the untraced run.
  virtual UnitResult Step(SpanRecorder* spans) = 0;
  // Units per epoch: fixed, and enough for >= 1000 latency samples.
  virtual std::size_t EpochUnits() const = 0;
  virtual SimSummary Sim() const = 0;
  // Quiescence checks on the current instance (VM invariants, exactly-once
  // delivery, ARQ give-ups); one string per violation.
  virtual std::vector<std::string> Check() = 0;
  // Counters of the current instance since the end of Setup's warm-up.
  virtual RawCounts CountsSinceSetup() const = 0;
  virtual LadderSpec Ladder() const = 0;
  // Spans the traced run records per unit, to size the recorder.
  virtual std::size_t SpansPerUnit() const = 0;
};

std::unique_ptr<Workload> MakeCopyStream(std::uint64_t seed);
std::unique_ptr<Workload> MakeRemapSweep(std::uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
