#include "src/genie/host_path.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <random>
#include <thread>

#include "src/genie/sys_buffer.h"
#include "src/net/buffer_pool.h"
#include "src/util/check.h"

namespace genie {

AccessResult CopyinToIoVec(AddressSpace& app, Vaddr va, std::uint64_t len, const IoVec& dst,
                           InternetChecksum* sum) {
  GENIE_CHECK_LE(len, dst.total_bytes());
  PhysicalMemory& pm = app.vm().pm();
  std::uint64_t copied = 0;  // bytes of dst already written
  return app.ReadScatter(va, len, [&](std::span<const std::byte> chunk) {
    copied += ForEachRun(dst, copied, chunk.size(), [&](std::uint64_t pos, const IoSegment& run) {
      std::byte* out = pm.DataRun(run.frame, run.offset, run.length).data();
      if (sum != nullptr) {
        sum->UpdateWithCopy(chunk.subspan(pos, run.length), out);
      } else {
        std::memcpy(out, chunk.data() + pos, run.length);
      }
    });
  });
}

namespace {

constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t FnvMix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ (v & 0xFF)) * kFnvPrime;
    v >>= 8;
  }
  return h;
}

// One worker's whole life. Everything it touches is either thread-private
// (pattern, allocation point, checksum state) or explicitly thread-safe
// (PhysicalMemory *Mt entry points via the allocation point, the sharded
// pool), so the per-thread digest is a pure function of (seed, tid, cfg).
void FusedWorker(PhysicalMemory& pm, const ParallelFusedConfig& cfg, std::size_t tid,
                 ShardedBufferPool* pool, ParallelFusedThreadResult* out) {
  const std::uint32_t psz = pm.page_size();
  // Thread-seeded source pattern; the first 8 bytes are rewritten with the
  // op counter so every op checksums distinct data.
  std::vector<std::byte> pattern(static_cast<std::size_t>(cfg.bytes_per_op));
  std::mt19937_64 rng(cfg.seed * 0x9E3779B97F4A7C15ull + tid);
  for (std::byte& b : pattern) {
    b = static_cast<std::byte>(rng() & 0xFF);
  }

  AllocationPoint ap(pm, cfg.arena_frames);
  std::uint64_t digest = kFnvBasis;
  std::uint64_t bytes = 0;

  for (std::size_t op = 0; op < cfg.ops_per_thread; ++op) {
    for (std::size_t i = 0; i < 8 && i < pattern.size(); ++i) {
      pattern[i] = static_cast<std::byte>((op >> (8 * i)) & 0xFF);
    }
    // Vary intra-page alignment across ops so the SIMD head/tail paths and
    // the arena bump arithmetic both get exercised at every offset class.
    const std::uint32_t page_offset =
        static_cast<std::uint32_t>((tid * 13 + op * 29) % std::min<std::uint32_t>(psz, 128));

    SysBuffer buf;
    GENIE_CHECK(TryAllocateSysBufferFrom(ap, page_offset, cfg.bytes_per_op, &buf))
        << "parallel fused run under-provisioned: size PhysicalMemory with >= "
           "threads*arena_frames*3 + pool_pages frames";
    GENIE_CHECK_EQ(buf.iov.segments.size(), 1u);
    const IoSegment& seg = buf.iov.segments[0];
    std::span<std::byte> dst = pm.DataRun(seg.frame, seg.offset, seg.length);

    InternetChecksum sum;
    sum.set_use_simd(cfg.use_simd);
    sum.UpdateWithCopy(pattern, dst.data());
    const std::uint16_t cksum = sum.value();
    if (cfg.verify) {
      InternetChecksum ref;
      ref.set_use_simd(false);
      ref.Update(dst);
      GENIE_CHECK_EQ(ref.value(), cksum) << "fused copy+checksum mismatch vs scalar re-read";
      GENIE_CHECK_EQ(std::memcmp(dst.data(), pattern.data(), pattern.size()), 0)
          << "fused copy corrupted destination bytes";
    }
    digest = FnvMix(digest, cksum);
    bytes += cfg.bytes_per_op;

    if (pool != nullptr) {
      // Overlay churn: take a small burst of frames (draining the home
      // shard when the pool is tight, which forces the steal path), stamp
      // them, return them. Frame identities are schedule-dependent, so they
      // are deliberately NOT folded into the digest.
      FrameId burst[3];
      std::size_t got = 0;
      for (FrameId& f : burst) {
        f = pool->Allocate(tid);
        if (f == kInvalidFrame) {
          break;
        }
        pm.Data(f)[0] = static_cast<std::byte>(tid);
        ++got;
      }
      for (std::size_t i = 0; i < got; ++i) {
        pool->Free(burst[i]);
      }
    }
    FreeSysBuffer(ap, buf);
  }

  out->digest = digest;
  out->bytes = bytes;
  out->ops = cfg.ops_per_thread;
  out->alloc = ap.stats();
}

}  // namespace

ParallelFusedResult RunParallelFused(PhysicalMemory& pm, const ParallelFusedConfig& cfg) {
  GENIE_CHECK_GT(cfg.threads, 0u);
  GENIE_CHECK_GT(cfg.bytes_per_op, 0u);
  ParallelFusedResult result;
  result.per_thread.resize(cfg.threads);

  std::unique_ptr<ShardedBufferPool> pool;
  if (cfg.pool_pages > 0) {
    pool = std::make_unique<ShardedBufferPool>(pm, cfg.pool_pages, cfg.threads);
  }

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(cfg.threads);
  for (std::size_t t = 0; t < cfg.threads; ++t) {
    threads.emplace_back(FusedWorker, std::ref(pm), std::cref(cfg), t, pool.get(),
                         &result.per_thread[t]);
  }
  for (std::thread& t : threads) {
    t.join();
  }
  const auto end = std::chrono::steady_clock::now();
  result.seconds = std::chrono::duration<double>(end - start).count();

  for (const ParallelFusedThreadResult& r : result.per_thread) {
    result.total_bytes += r.bytes;
  }
  if (pool != nullptr) {
    result.pool_steals = pool->steals();
    result.pool_depletions = pool->depletion_events();
  }
  return result;
}

}  // namespace genie
