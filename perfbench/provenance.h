// Provenance printed with every run: compiler, flags and build type, the
// checksum kernel in use, and two same-process calibrations (a 64 KiB
// memcpy and a one-thread spin loop) so drift between sessions shows up next
// to the numbers it would distort.
#ifndef PERFBENCH_PROVENANCE_H_
#define PERFBENCH_PROVENANCE_H_

#include <cstdint>
#include <string>

namespace perfbench {

// False for an unoptimized or sanitizer build, whose timings mean nothing.
bool OptimizedBuild();

void PrintProvenance(const std::string& workload, std::uint64_t seed, double seconds, int trace);

}  // namespace perfbench

#endif  // PERFBENCH_PROVENANCE_H_
