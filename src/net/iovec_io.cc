#include "src/net/iovec_io.h"

#include <cstring>

#include "src/util/check.h"

namespace genie {

void ReadFromIoVec(const PhysicalMemory& pm, const IoVec& iov, std::uint64_t offset,
                   std::span<std::byte> out) {
  const std::uint64_t done =
      ForEachRun(iov, offset, out.size(), [&](std::uint64_t pos, const IoSegment& run) {
        std::memcpy(out.data() + pos, pm.DataRun(run.frame, run.offset, run.length).data(),
                    run.length);
      });
  GENIE_CHECK_EQ(done, out.size());
}

std::uint64_t WriteToIoVec(PhysicalMemory& pm, const IoVec& iov, std::uint64_t offset,
                           std::span<const std::byte> in) {
  return ForEachRun(iov, offset, in.size(), [&](std::uint64_t pos, const IoSegment& run) {
    std::memcpy(pm.DataRun(run.frame, run.offset, run.length).data(), in.data() + pos,
                run.length);
  });
}

}  // namespace genie
