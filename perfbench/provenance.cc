#include "perfbench/provenance.h"

#include <cstdio>
#include <cstring>
#include <vector>

#include "perfbench/common.h"
#include "perfbench/stats.h"
#include "src/net/checksum.h"

namespace perfbench {

namespace {

volatile std::uint64_t g_sink;

// Median of five ~20 ms repetitions of `body`, in nanoseconds per call.
template <typename Fn>
double Calibrate(Fn&& body) {
  std::vector<double> reps;
  for (int rep = 0; rep < 5; ++rep) {
    std::uint64_t calls = 0;
    const Clock::time_point t0 = Clock::now();
    double elapsed = 0.0;
    do {
      body();
      ++calls;
      elapsed = SecondsSince(t0);
    } while (elapsed < 0.02);
    reps.push_back(elapsed * 1e9 / static_cast<double>(calls));
  }
  return Median(reps);
}

}  // namespace

bool OptimizedBuild() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    defined(GENIE_ASAN_BUILD) || defined(GENIE_TSAN_BUILD) || !defined(__OPTIMIZE__)
  return false;
#else
  return true;
#endif
}

void PrintProvenance(const std::string& workload, std::uint64_t seed, double seconds, int trace) {
  std::printf("provenance: workload=%s seed=%llu seconds=%g trace=%d\n", workload.c_str(),
              static_cast<unsigned long long>(seed), seconds, trace);
  std::printf("provenance: compiler=\"%s\" build_type=%s flags=\"%s\" checksum_kernel=%s\n",
              __VERSION__, PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS, genie::ChecksumIsaName());
  std::vector<std::byte> src(64 * 1024, std::byte{0x5a});
  std::vector<std::byte> dst(64 * 1024);
  const double memcpy_ns = Calibrate([&] {
    std::memcpy(dst.data(), src.data(), src.size());
    g_sink = static_cast<std::uint64_t>(dst[g_sink % dst.size()]);
  });
  const double spin_ns = Calibrate([] {
    std::uint64_t x = g_sink;
    for (int i = 0; i < 1000; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    }
    g_sink = x;
  });
  std::printf("calibration: memcpy_64k=%.1f MB/s spin_1t=%.4f ns/iter\n",
              static_cast<double>(src.size()) / memcpy_ns * 1e3, spin_ns / 1000.0);
}

}  // namespace perfbench
