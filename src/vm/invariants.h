// Whole-VM invariant checker for tests and the fault-stress harness.
//
// The paper's emulated semantics are only "transparently safe" if every
// error and completion path restores the kernel's bookkeeping exactly:
// I/O-deferred deallocation must reclaim every zombie, failed DMAs must drop
// their references, TCOW replacements must retarget every PTE, and region
// hiding must never leak cache entries. CheckAll verifies all of it from
// first principles — it walks the raw frame table, free runs, object page
// maps, page tables, TLBs, and region caches, and cross-checks them against
// each other rather than trusting any counter in isolation.
//
// Call it between sim events (it assumes no operation is mid-flight on the
// C++ stack). With `expect_quiescent` additionally require that no I/O is
// pending anywhere: every reference dropped, every zombie reclaimed.
#ifndef GENIE_SRC_VM_INVARIANTS_H_
#define GENIE_SRC_VM_INVARIANTS_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "src/vm/address_space.h"
#include "src/vm/vm.h"

namespace genie {

struct InvariantReport {
  std::vector<std::string> violations;
  std::uint64_t checks = 0;  // individual predicates evaluated

  bool ok() const { return violations.empty(); }
  // All violations, one per line (gtest failure messages).
  std::string ToString() const;
};

class VmInvariants {
 public:
  // Verifies, across `vm` and the given address spaces:
  //   * frame accounting — every frame is exactly one of free / allocated /
  //     zombie; free frames carry no refs, no wiring, no owner, and are
  //     covered by exactly one free run; the free-run map is sorted,
  //     non-overlapping, maximal, and sums to free_frames();
  //   * zombies — a zombie frame still has I/O references (otherwise it
  //     should have been reclaimed) and is unowned;
  //   * ownership — frame <-> object page maps agree bidirectionally, every
  //     owner is a live object, and no frame is owned twice;
  //   * I/O references — total per-frame input references equal total
  //     per-object input references (input refs are always taken in pairs);
  //   * per address space — no stale PTE, no stale TLB entry, every
  //     hidden-region cache entry a live region of its cache's state and
  //     length, none cached twice (AppendInvariantViolations);
  //   * with expect_quiescent — no frame or object reference outstanding,
  //     no zombie frames (every transfer fully unwound).
  static InvariantReport CheckAll(Vm& vm, std::span<AddressSpace* const> spaces,
                                  bool expect_quiescent);

  // Convenience: one address space.
  static InvariantReport CheckAll(Vm& vm, AddressSpace& aspace, bool expect_quiescent) {
    AddressSpace* spaces[] = {&aspace};
    return CheckAll(vm, spaces, expect_quiescent);
  }

  // Total predicates evaluated across all CheckAll calls, process-wide, for
  // the stats table (proves the harness actually ran its checks).
  static std::uint64_t total_checks();

  // Process-wide hook invoked by CheckAll whenever a report comes back with
  // violations, before the report is returned. The flight recorder installs
  // one to dump its trace ring at the exact moment a check fails; tests that
  // *plant* violations should clear it (pass nullptr/empty) around the
  // expected failure. Replaces any previous hook.
  static void SetViolationHook(std::function<void(const InvariantReport&)> hook);
};

}  // namespace genie

#endif  // GENIE_SRC_VM_INVARIANTS_H_
