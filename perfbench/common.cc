#include "perfbench/common.h"

#include <cstring>

#include "perfbench/stats.h"
#include "src/cost/op_kind.h"
#include "src/util/check.h"
#include "src/util/rng.h"

namespace perfbench {

namespace {

constexpr std::size_t kPatternBytes = 68 * 1024;
constexpr std::size_t kStampBytes = 8;

std::uint64_t Mix(std::uint64_t x) { return genie::SplitMix64(x).Next(); }

}  // namespace

PayloadSource::PayloadSource(std::uint64_t seed) : seed_(seed), pattern_(kPatternBytes) {
  genie::SplitMix64 rng(seed);
  for (std::size_t i = 0; i < pattern_.size(); i += 8) {
    const std::uint64_t w = rng.Next();
    std::memcpy(pattern_.data() + i, &w, 8);
  }
}

std::uint64_t PayloadSource::Offset(std::uint64_t id) const {
  return Mix(seed_ ^ (id * 0x9e3779b97f4a7c15ULL)) % 4096;
}

std::uint64_t PayloadSource::Stamp(std::uint64_t id) const { return Mix(~seed_ + id); }

void PayloadSource::Fill(std::uint64_t id, std::span<std::byte> out) const {
  GENIE_CHECK_LE(out.size() + 4096, pattern_.size());
  std::memcpy(out.data(), pattern_.data() + Offset(id), out.size());
  const std::uint64_t stamp = Stamp(id);
  std::memcpy(out.data(), &stamp, std::min(kStampBytes, out.size()));
}

bool PayloadSource::Verify(std::uint64_t id, std::span<const std::byte> got) const {
  if (got.size() + 4096 > pattern_.size()) {
    return false;
  }
  const std::uint64_t stamp = Stamp(id);
  const std::size_t head = std::min(kStampBytes, got.size());
  return std::memcmp(got.data(), &stamp, head) == 0 &&
         std::memcmp(got.data() + head, pattern_.data() + Offset(id) + head,
                     got.size() - head) == 0;
}

RawCounts RawCounts::Minus(const RawCounts& base) const {
  RawCounts d = *this;
  d.events -= base.events;
  d.tlb_hits -= base.tlb_hits;
  d.tlb_misses -= base.tlb_misses;
  d.faults -= base.faults;
  d.tcow -= base.tcow;
  d.ops -= base.ops;
  d.bytes_copied -= base.bytes_copied;
  d.pages_swapped -= base.pages_swapped;
  d.region_cache_hits -= base.region_cache_hits;
  d.region_cache_misses -= base.region_cache_misses;
  d.retransmits -= base.retransmits;
  d.sequenced -= base.sequenced;
  d.ctrl_cells -= base.ctrl_cells;
  d.frames_sent -= base.frames_sent;
  return d;
}

void AddNodeCounts(genie::Node& node, RawCounts* out) {
  const genie::Adapter& nic = node.adapter();
  const genie::ReliableDelivery::Stats& rel = node.reliable().stats();
  out->retransmits += rel.retransmits;
  out->sequenced += rel.sequenced_frames;
  out->ctrl_cells += nic.acks_sent() + nic.nacks_sent() + nic.sack_cells_sent();
  out->frames_sent += nic.frames_sent();
  out->free_runs_end += node.vm().pm().free_runs();
  out->live_objects_end += node.vm().live_objects();
}

RawCounts ReadCounts(const TwoNodeView& v) {
  RawCounts c;
  c.events = v.engine->events_executed();
  for (genie::AddressSpace* as : {v.tx_app, v.rx_app}) {
    const genie::AddressSpace::Counters& k = as->counters();
    c.tlb_hits += k.tlb_hits;
    c.tlb_misses += k.tlb_misses;
    c.faults += k.faults;
    c.tcow += k.tcow_copies;
    c.live_regions_end += as->region_count();
  }
  for (genie::Endpoint* ep : {v.tx, v.rx}) {
    for (std::size_t op = 0; op < genie::kOpKindCount; ++op) {
      c.ops += ep->op_count(static_cast<genie::OpKind>(op));
    }
    const genie::Endpoint::Stats& s = ep->stats();
    c.bytes_copied += s.bytes_copied;
    c.pages_swapped += s.pages_swapped;
    c.region_cache_hits += s.region_cache_hits;
    c.region_cache_misses += s.region_cache_misses;
  }
  AddNodeCounts(*v.tx_node, &c);
  AddNodeCounts(*v.rx_node, &c);
  return c;
}

void EmitCounts(const RawCounts& d, double transfers, Metrics* out) {
  const double per = transfers > 0 ? 1.0 / transfers : 0.0;
  const double per_k = 1000.0 * per;
  const double lookups = static_cast<double>(d.tlb_hits + d.tlb_misses);
  (*out)["sim.events_per_xfer"] = {static_cast<double>(d.events) * per, "count"};
  (*out)["vm.tlb_hit_ratio"] = {Ratio{static_cast<double>(d.tlb_hits), lookups}.value(), "ratio"};
  (*out)["vm.tlb_lookups_per_xfer"] = {lookups * per, "count"};
  (*out)["vm.faults_per_xfer"] = {static_cast<double>(d.faults) * per, "count"};
  (*out)["vm.tcow_per_xfer"] = {static_cast<double>(d.tcow) * per, "count"};
  (*out)["vm.live_regions_end"] = {static_cast<double>(d.live_regions_end) * per_k, "count/1k"};
  (*out)["vm.live_objects_end"] = {static_cast<double>(d.live_objects_end) * per_k, "count/1k"};
  (*out)["mem.free_runs_end"] = {static_cast<double>(d.free_runs_end), "count"};
  (*out)["genie.endpoint.ops_per_xfer"] = {static_cast<double>(d.ops) * per, "count"};
  (*out)["genie.endpoint.bytes_copied_per_xfer"] = {static_cast<double>(d.bytes_copied) * per,
                                                     "B"};
  (*out)["genie.endpoint.pages_swapped_per_xfer"] = {static_cast<double>(d.pages_swapped) * per,
                                                      "count"};
  const double cache_lookups = static_cast<double>(d.region_cache_hits + d.region_cache_misses);
  (*out)["genie.endpoint.region_cache_hit_ratio"] = {
      Ratio{static_cast<double>(d.region_cache_hits), cache_lookups}.value(), "ratio"};
  (*out)["genie.endpoint.region_cache_lookups_per_xfer"] = {cache_lookups * per, "count"};
  (*out)["genie.reliable.retransmit_frac"] = {
      Ratio{static_cast<double>(d.retransmits), static_cast<double>(d.sequenced)}.value(),
      "ratio"};
  (*out)["genie.reliable.sequenced_per_xfer"] = {static_cast<double>(d.sequenced) * per, "count"};
  (*out)["net.adapter.ctrl_cells_per_xfer"] = {static_cast<double>(d.ctrl_cells) * per, "count"};
  (*out)["net.adapter.frames_per_xfer"] = {static_cast<double>(d.frames_sent) * per, "count"};
}

}  // namespace perfbench
