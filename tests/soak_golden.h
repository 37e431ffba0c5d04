// Schedule goldens for the soak harnesses. A soak's same-seed replay test
// only shows that a schedule is deterministic; a change that moves an event
// (a control cell one latency late, say) replays identically and passes it.
// A golden pins the schedules themselves: each run's event digest and event
// count are folded, in seed order, into one FNV-1a hash over 64-bit words.
#ifndef GENIE_TESTS_SOAK_GOLDEN_H_
#define GENIE_TESTS_SOAK_GOLDEN_H_

#include <cstdint>
#include <initializer_list>

namespace genie {

// FNV-1a over 64-bit words (offset basis 1469598103934665603, prime
// 1099511628211), shared by the soak goldens and the charge golden.
inline constexpr std::uint64_t kFnvOffsetBasis = 1469598103934665603ull;
constexpr std::uint64_t FnvFold(std::uint64_t fold, std::uint64_t word) {
  return (fold ^ word) * 1099511628211ull;
}

// Runs `run(seed, window)` for the 20 seeds from `first_seed` and folds each
// outcome's `digest` and `events`.
template <typename RunFn>
std::uint64_t FoldSoakSchedules(std::uint64_t first_seed, std::uint32_t window, RunFn run) {
  std::uint64_t fold = kFnvOffsetBasis;
  for (std::uint64_t seed = first_seed; seed < first_seed + 20; ++seed) {
    const auto out = run(seed, window);
    for (const std::uint64_t word : {out.digest, out.events}) {
      fold = FnvFold(fold, word);
    }
  }
  return fold;
}

}  // namespace genie

#endif  // GENIE_TESTS_SOAK_GOLDEN_H_
