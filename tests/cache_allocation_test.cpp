// Allocation budget of the cache tier's serve path.
//
// Every heap allocation of this binary goes through the replaced global
// operator new below, which counts it. Once a session's buffers have
// grown, a window fed through CacheEngine::Feed — classified, its misses
// evicted and filled by a device sweep, then served by a static wrapped
// engine — allocates nothing but the growth of the wrapped engine's
// window log. A per-window copy of the accesses, a rebuilt frame block
// or per-miss scratch would each show up as extra allocations.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <span>
#include <string>

#include "cache/engine.h"
#include "online/policy.h"
#include "sim/experiment.h"
#include "trace/generators.h"
#include "util/rng.h"

namespace {

std::atomic<std::size_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace rtmp;

constexpr std::size_t kWindow = 256;
constexpr std::size_t kVariables = 1024;
constexpr std::uint32_t kDbcs = 16;
/// Another tenant's variables, registered first: the fed ids are
/// remapped by this offset, as the serve layer remaps a tenant's.
constexpr std::uint32_t kPrefix = 64;
constexpr int kWarmLaps = 4;

TEST(CacheAllocation, SteadyStateWindowAllocatesNothing) {
  util::Rng rng(5);
  const trace::AccessSequence stream = trace::GenerateZipf(
      {.num_vars = kVariables, .length = 32 * kWindow, .exponent = 0.6},
      rng);
  const std::span<const trace::Access> accesses(stream.accesses());
  const rtm::RtmConfig device = sim::CellConfig(kDbcs, kVariables / 2);

  for (const char* eviction :
       {"cache-lru", "cache-lfu", "cache-sample", "cache-shift-aware"}) {
    cache::CacheConfig config;
    config.eviction = eviction;
    config.capacity_slots = kVariables / 2;
    config.engine = online::OnlinePolicyRegistry::Global()
                        .Find("online-static-dma-sr")
                        ->MakeConfig();
    config.engine.window_accesses = kWindow;
    cache::CacheEngine engine(config, device);
    for (std::uint32_t v = 0; v < kPrefix + kVariables; ++v) {
      (void)engine.RegisterVariable(trace::MakeVariableName(v));
    }
    // Laps alternate whole windows (resolved in place) and blocks of a
    // window and a half (every other window gathered across two calls);
    // each call resolves one or two windows. The first kWarmLaps grow
    // every buffer to its largest size.
    std::size_t measured = 0;
    for (int lap = 0; lap < kWarmLaps + 12; ++lap) {
      const std::size_t block = lap % 2 ? kWindow : kWindow + kWindow / 2;
      for (std::size_t i = 0; i < accesses.size(); i += block) {
        const std::size_t log = engine.Windows().capacity();
        const cache::CacheStats before = engine.stats();
        const std::size_t allocations = g_allocations.load();
        engine.Feed(accesses.subspan(i, std::min(block, accesses.size() - i)),
                    kPrefix);
        const std::size_t spent = g_allocations.load() - allocations;
        const cache::CacheStats after = engine.stats();
        if (lap < kWarmLaps) continue;
        const bool log_grew = engine.Windows().capacity() != log;
        EXPECT_EQ(spent, log_grew ? 1u : 0u)
            << eviction << " lap " << lap << " access " << i;
        if (after.hits > before.hits && after.misses > before.misses &&
            after.fill_accesses > before.fill_accesses) {
          ++measured;
        }
      }
    }
    // The measured calls did serve hits, misses and fill sweeps.
    EXPECT_GT(measured, 40u) << eviction;
  }
}

}  // namespace
