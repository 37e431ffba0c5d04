// Google-benchmark microbenchmarks of this library's real (wall-clock)
// primitive costs: the data-movement and VM-manipulation operations whose
// *simulated* costs come from the paper's Table 6. Useful to see that the
// structural claim — VM manipulation is much cheaper than copying — holds on
// modern hardware too, and to profile the simulator itself.
#include <benchmark/benchmark.h>

#include <cstring>

#include "src/genie/sys_buffer.h"
#include "src/mem/phys_memory.h"
#include "src/sim/awaitable.h"
#include "src/sim/engine.h"
#include "src/sim/resource.h"
#include "src/sim/task.h"
#include "src/vm/address_space.h"
#include "src/vm/io_ref.h"
#include "src/vm/vm.h"

namespace genie {
namespace {

constexpr std::uint32_t kPage = 4096;
constexpr Vaddr kBase = 0x10000000;

void BM_MemcpyPerPage(benchmark::State& state) {
  const std::size_t pages = static_cast<std::size_t>(state.range(0));
  std::vector<std::byte> src(pages * kPage, std::byte{1});
  std::vector<std::byte> dst(pages * kPage);
  for (auto _ : state) {
    std::memcpy(dst.data(), src.data(), src.size());
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * src.size()));
}
BENCHMARK(BM_MemcpyPerPage)->Arg(1)->Arg(4)->Arg(15);

void BM_PageSwap(benchmark::State& state) {
  // Swapping pages between a system buffer and an application buffer: the
  // copy-avoidance path (object map + PTE update, no data movement).
  const std::uint64_t pages = static_cast<std::uint64_t>(state.range(0));
  Vm vm(4096, kPage);
  AddressSpace as(vm, "app");
  as.CreateRegion(kBase, pages * kPage);
  std::vector<std::byte> payload(pages * kPage, std::byte{2});
  (void)as.Write(kBase, payload);
  for (auto _ : state) {
    SysBuffer sys = AllocateSysBuffer(vm.pm(), 0, pages * kPage);
    const DisposePlan plan = DisposeAlignedIntoApp(as, kBase, pages * kPage, sys, 2178);
    benchmark::DoNotOptimize(plan.pages_swapped);
    FreeSysBuffer(vm.pm(), sys);
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * pages * kPage));
}
BENCHMARK(BM_PageSwap)->Arg(1)->Arg(4)->Arg(15);

void BM_PageReference(benchmark::State& state) {
  const std::uint64_t pages = static_cast<std::uint64_t>(state.range(0));
  Vm vm(4096, kPage);
  AddressSpace as(vm, "app");
  as.CreateRegion(kBase, pages * kPage);
  std::vector<std::byte> payload(pages * kPage, std::byte{2});
  (void)as.Write(kBase, payload);
  for (auto _ : state) {
    IoReference ref;
    (void)ReferenceRange(as, kBase, pages * kPage, IoDirection::kOutput, &ref);
    Unreference(vm, ref);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * pages));
}
BENCHMARK(BM_PageReference)->Arg(1)->Arg(4)->Arg(15);

void BM_ProtectionChange(benchmark::State& state) {
  const std::uint64_t pages = static_cast<std::uint64_t>(state.range(0));
  Vm vm(4096, kPage);
  AddressSpace as(vm, "app");
  as.CreateRegion(kBase, pages * kPage);
  std::vector<std::byte> payload(pages * kPage, std::byte{2});
  (void)as.Write(kBase, payload);
  for (auto _ : state) {
    as.RemoveWrite(kBase, pages * kPage);
    as.Reinstate(kBase, pages * kPage);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * pages * 2));
}
BENCHMARK(BM_ProtectionChange)->Arg(1)->Arg(4)->Arg(15);

void BM_TcowFault(benchmark::State& state) {
  // Full TCOW cycle: write-protect with pending output, fault, page copy.
  Vm vm(4096, kPage);
  AddressSpace as(vm, "app");
  as.CreateRegion(kBase, kPage);
  std::vector<std::byte> payload(kPage, std::byte{2});
  (void)as.Write(kBase, payload);
  std::vector<std::byte> tiny(8, std::byte{3});
  for (auto _ : state) {
    IoReference ref;
    (void)ReferenceRange(as, kBase, kPage, IoDirection::kOutput, &ref);
    as.RemoveWrite(kBase, kPage);
    (void)as.Write(kBase, tiny);  // TCOW copy fault.
    Unreference(vm, ref);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TcowFault);

void BM_RegionCreateRemove(benchmark::State& state) {
  Vm vm(4096, kPage);
  AddressSpace as(vm, "app");
  for (auto _ : state) {
    const Vaddr addr = as.FindFreeRange(4 * kPage);
    as.CreateRegion(addr, 4 * kPage);
    as.RemoveRegion(addr);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RegionCreateRemove);

void BM_RegionCacheReuse(benchmark::State& state) {
  // Region hiding's fast path: enqueue + dequeue a cached region, with
  // range(0) hidden regions of another length already cached, so the rows
  // show how the cost grows with the number of regions a process has hidden.
  Vm vm(4096, kPage);
  AddressSpace as(vm, "app");
  Region* region = as.CreateRegion(kBase, 4 * kPage, RegionState::kMovedIn);
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    const Vaddr addr = as.FindFreeRange(2 * kPage);
    as.CreateRegion(addr, 2 * kPage, RegionState::kMovedOut);
    as.EnqueueCachedRegion(addr);
  }
  for (auto _ : state) {
    region->state = RegionState::kMovedOut;
    as.EnqueueCachedRegion(kBase);
    Region* got = as.DequeueCachedRegion(4 * kPage, RegionState::kMovedOut);
    benchmark::DoNotOptimize(got);
    got->state = RegionState::kMovedIn;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RegionCacheReuse)->Arg(0)->Arg(2048);

// --- Simulator dispatch: coroutine resumes and detached resource charges ---

Task<void> ResumeLoop(Engine& eng, SimTime period, const bool* stop) {
  while (!*stop) {
    co_await Delay(eng, period);
  }
}

void BM_EngineResume(benchmark::State& state) {
  // 64 coroutines each re-arm a Delay when resumed, so every Step() is one
  // coroutine resume against a steady queue of 64 events; distinct periods
  // keep the heap sifts realistic.
  constexpr int kDepth = 64;
  Engine eng;
  bool stop = false;
  for (int i = 0; i < kDepth; ++i) {
    std::move(ResumeLoop(eng, 100 + i, &stop)).Detach();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(eng.Step());
  }
  stop = true;
  eng.Run();  // Each loop resumes once more and returns, freeing its frame.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EngineResume);

// range(0) driver charges issued at one instant on one resource (the first
// is granted, the rest queue FIFO), then the engine drains them.
// BM_ResourceRunDetached is the frame-free path the adapter uses;
// BM_ResourceRunTaskDetach the coroutine form, std::move(Run(c)).Detach().
void BM_ResourceRunDetached(benchmark::State& state) {
  Engine eng;
  Resource cpu(eng, "cpu");
  const std::int64_t n = state.range(0);
  for (auto _ : state) {
    for (std::int64_t i = 0; i < n; ++i) {
      cpu.RunDetached(100);
    }
    eng.Run();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ResourceRunDetached)->Arg(1)->Arg(16);

void BM_ResourceRunTaskDetach(benchmark::State& state) {
  Engine eng;
  Resource cpu(eng, "cpu");
  const std::int64_t n = state.range(0);
  for (auto _ : state) {
    for (std::int64_t i = 0; i < n; ++i) {
      std::move(cpu.Run(100)).Detach();
    }
    eng.Run();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ResourceRunTaskDetach)->Arg(1)->Arg(16);

}  // namespace
}  // namespace genie

BENCHMARK_MAIN();
