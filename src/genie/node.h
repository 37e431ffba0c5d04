// A simulated host: CPU, physical/virtual memory, pageout daemon, network
// adapter, and the cost model for its machine profile. Genie endpoints run
// on nodes; examples and benchmarks build a pair of nodes joined by a
// Network.
#ifndef GENIE_SRC_GENIE_NODE_H_
#define GENIE_SRC_GENIE_NODE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/cost/cost_model.h"
#include "src/genie/reliable.h"
#include "src/net/adapter.h"
#include "src/obs/metrics.h"
#include "src/sim/engine.h"
#include "src/sim/trace.h"
#include "src/sim/resource.h"
#include "src/vm/address_space.h"
#include "src/vm/pageout.h"
#include "src/vm/vm.h"

namespace genie {

class Endpoint;

class Node {
 public:
  struct Config {
    MachineProfile profile = MachineProfile::MicronP166();
    std::size_t mem_frames = 4096;
    InputBuffering rx_buffering = InputBuffering::kEarlyDemux;
    std::size_t pool_pages = 64;
    // Charge overlapped per-byte driver work on the CPUs (Figure 4).
    bool model_driver_work = true;
    // Credit-based flow control on the adapter (refs [2], [14]).
    bool flow_control = false;
  };

  Node(Engine& engine, std::string name, Config config);

  Engine& engine() { return *engine_; }
  const std::string& name() const { return name_; }
  const MachineProfile& profile() const { return cost_.profile(); }
  const CostModel& cost_model() const { return cost_; }
  Vm& vm() { return vm_; }
  Resource& cpu() { return cpu_; }
  Adapter& adapter() { return adapter_; }
  ReliableDelivery& reliable() { return *reliable_; }
  PageoutDaemon& pageout() { return pageout_; }
  std::uint32_t page_size() const { return vm_.page_size(); }

  // Creates a process address space owned by this node.
  AddressSpace& CreateProcess(const std::string& proc_name);

  // Cost of `op` over `bytes` on this machine, as simulated time.
  SimTime Cost(OpKind op, std::uint64_t bytes) const { return cost_.Cost(op, bytes); }

  // Makes sure at least `frames` page frames are free, running the pageout
  // daemon under memory pressure (as a real kernel does before allocating
  // system buffers). Aborts only if eviction cannot make room.
  void EnsureFreeFrames(std::size_t frames) {
    GENIE_CHECK(TryEnsureFreeFrames(frames)) << "out of memory and nothing evictable";
  }

  // Recoverable variant for the data path: returns false when eviction
  // cannot make room (genuine exhaustion, or every eligible pageout write
  // failing under fault injection), letting the caller fail the operation
  // instead of the kernel aborting.
  bool TryEnsureFreeFrames(std::size_t frames) {
    if (vm_.pm().free_frames() < frames) {
      pageout_.EvictUntilFree(frames);
    }
    return vm_.pm().free_frames() >= frames;
  }

  // Attaches `plan` (nullptr detaches) to every injection point this node
  // owns — frame allocation, backing-store I/O, and the adapter's transmit
  // path — and gives the plan this node's sim clock for time-window rules.
  void AttachFaultPlan(FaultPlan* plan) {
    vm_.pm().set_fault_plan(plan);
    vm_.backing().set_fault_plan(plan);
    adapter_.set_fault_plan(plan);
    if (plan != nullptr) {
      plan->set_clock([this] { return engine_->now(); });
    }
  }

  // Turns on the reliable delivery layer (ARQ and/or watchdog) for every
  // endpoint on this node. Off by default; see ReliableOptions. The ARQ
  // window also configures this node's *receive* side (dedup discipline and
  // SACK batching), so both peers of a reliable channel should be enabled
  // with the same window.
  void EnableReliableDelivery(const ReliableOptions& options) {
    reliable_->Configure(options);
    adapter_.set_arq_window(options.window);
  }

  // Optional execution tracing (chrome://tracing export); nullptr disables.
  // The log is given this node's sim clock so TraceScope and the VM fault
  // instants read the current simulated time without threading the engine.
  // The node claims its track names on attach, so two nodes sharing one log
  // with colliding names (e.g. both called "tx") abort at wiring time
  // instead of silently interleaving their events on one lane.
  void set_trace(TraceLog* trace) {
    if (trace_ != nullptr && trace_ != trace) {
      trace_->UnregisterNode(this);
    }
    trace_ = trace;
    adapter_.set_trace(trace);
    vm_.set_trace(trace);
    reliable_->set_trace(trace);
    if (trace != nullptr) {
      trace->RegisterNode(this, name_ + ".xfer");
      trace->RegisterNode(this, name_ + ".cpu");
      trace->RegisterNode(this, name_ + ".nic.wire");
      trace->set_clock([this] { return engine_->now(); });
    }
  }
  TraceLog* trace() { return trace_; }

  // --- Crash-stop node failures & epoch-fenced restart ---
  //
  // Crash() atomically discards every piece of in-flight I/O state this
  // incarnation owns: the adapter drops posted receives, held frames, dedup
  // and credit state; every endpoint fails its waiting inputs with
  // IoStatus::kPeerCrashed; the reliable layer resolves in-flight transfers
  // as crashed. The incarnation epoch bumps at crash time, so a peer still
  // talking to the dead epoch is fenced (its frames bounce with an epoch
  // fence cell) and must resynchronize before new traffic flows. Process
  // memory and metrics survive — the model is kernel I/O state loss, not
  // full machine loss — and VM bookkeeping invariants are asserted on the
  // post-crash state. Restart() clears the crashed flag; the node accepts
  // traffic again under the new epoch.
  void Crash();
  void Restart();
  bool crashed() const { return crashed_; }
  std::uint32_t epoch() const { return epoch_; }
  std::uint64_t crashes() const { return crashes_; }

  // Observer invoked at crash time, BEFORE any state is discarded — the
  // flight recorder dumps the victim's trace ring here, with its last events
  // intact. Receives the epoch the node is crashing INTO.
  void set_crash_observer(std::function<void(std::uint32_t epoch)> observer) {
    crash_observer_ = std::move(observer);
  }
  // Observer invoked after Restart() (flight recorder: reset the trace ring
  // and stamp subsequent dumps with the new epoch).
  void set_restart_observer(std::function<void(std::uint32_t epoch)> observer) {
    restart_observer_ = std::move(observer);
  }

  // Seeded crash injection: every `period` a tick consults `plan` at
  // FaultSite::kNodeCrash; a firing rule crash-stops the node and schedules
  // Restart() after the rule's arg ns (0 = `restart_delay`). Ticks stop
  // after `horizon` so the simulation can go quiescent.
  void ArmCrashInjection(FaultPlan* plan, SimTime period, SimTime horizon,
                         SimTime restart_delay);

  // Endpoint registry (maintained by the Endpoint ctor/dtor) so Crash() can
  // unwind every endpoint's waiting operations.
  void RegisterEndpoint(Endpoint* endpoint);
  void UnregisterEndpoint(Endpoint* endpoint);

  // This node's metrics registry. The node registers gauges over its own
  // components (physical memory, backing store, pageout daemon, adapter) at
  // construction and over each process address space in CreateProcess;
  // endpoints add theirs when constructed on the node. The underlying
  // structs stay authoritative — the registry is a uniform read path.
  MetricsRegistry& metrics() { return metrics_; }

 private:
  void RegisterComponentGauges();
  void ScheduleCrashTick(FaultPlan* plan, SimTime period, SimTime horizon,
                         SimTime restart_delay);

  Engine* engine_;
  std::string name_;
  CostModel cost_;
  MetricsRegistry metrics_;
  Vm vm_;
  Resource cpu_;
  Adapter adapter_;
  // unique_ptr so the header needs only the declaration order above; the
  // layer registers itself as the adapter's ack handler at construction.
  std::unique_ptr<ReliableDelivery> reliable_;
  PageoutDaemon pageout_;
  std::vector<std::unique_ptr<AddressSpace>> processes_;
  TraceLog* trace_ = nullptr;

  std::uint32_t epoch_ = 1;  // incarnation; bumped at crash time
  bool crashed_ = false;
  std::uint64_t crashes_ = 0;
  std::vector<Endpoint*> endpoints_;
  std::function<void(std::uint32_t)> crash_observer_;
  std::function<void(std::uint32_t)> restart_observer_;
};

// Connects two nodes with one ATM virtual circuit in each direction.
class Network {
 public:
  Network(Engine& engine, Node& a, Node& b);

 private:
  Resource link_ab_;
  Resource link_ba_;
};

}  // namespace genie

#endif  // GENIE_SRC_GENIE_NODE_H_
