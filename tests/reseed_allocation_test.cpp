// Allocation budget of the online re-seed.
//
// Every heap allocation of this binary goes through the replaced global
// operator new below, which counts it. Once the engine's placement
// workspace and migration plan have grown, a phase-change window may
// allocate only the candidate placement the re-seed returns: its DBC-list
// array, one list per DBC and its slot table. Scratch that is rebuilt per
// call, a plan built for a refused re-seed, or a copied request would
// each show up as extra allocations.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "online/engine.h"
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
constexpr std::size_t kVariables = 1280;
constexpr std::uint32_t kDbcs = 16;
/// The candidate placement's buffers: the DBC-list array, one list per
/// DBC and the slot table.
constexpr std::size_t kCandidateAllocations = 2 + kDbcs;

rtm::RtmConfig Device() {
  rtm::RtmConfig device = sim::CellConfig(kDbcs, kVariables);
  device.initial_alignment = rtm::InitialAlignment::kZero;
  return device;
}

online::OnlineConfig EwmaConfig() {
  online::OnlineConfig config = online::OnlinePolicyRegistry::Global()
                                    .Find("online-ewma-dma-sr")
                                    ->MakeConfig();
  config.strategy_options.cost.initial_alignment =
      rtm::InitialAlignment::kZero;
  config.controller.proactive_alignment = true;
  config.controller.lookahead = 1;
  return config;
}

/// `segments` phases of two windows each over `kVariables` ids: every
/// phase draws a fresh working set of 48 ids from the whole space and a
/// different generator family, as in perfbench's adaptive-stream.
trace::AccessSequence AdaptiveStream(std::size_t segments,
                                     std::uint64_t seed) {
  util::Rng rng(seed);
  trace::AccessSequence stream;
  std::vector<trace::VariableId> ids;
  for (std::size_t v = 0; v < kVariables; ++v) {
    ids.push_back(stream.AddVariable(trace::MakeVariableName(v)));
  }
  constexpr std::size_t kWorkingSet = 48;
  constexpr std::size_t kLength = 2 * kWindow;
  for (std::size_t s = 0; s < segments; ++s) {
    rng.Shuffle(ids);
    trace::AccessSequence segment;
    switch (s % 3) {
      case 0:
        segment = trace::GenerateMarkov(
            {.num_vars = kWorkingSet, .length = kLength}, rng);
        break;
      case 1:
        segment = trace::GenerateZipf(
            {.num_vars = kWorkingSet, .length = kLength, .exponent = 1.1},
            rng);
        break;
      default:
        segment = trace::GenerateSequential(
            {.num_vars = kWorkingSet, .length = kLength, .window = 4}, rng);
        break;
    }
    for (std::size_t i = 0; i < kLength; ++i) {
      const trace::Access& access = segment[i % segment.size()];
      stream.Append(ids[access.variable % kWorkingSet], access.type);
    }
  }
  return stream;
}

void RegisterAll(online::OnlineEngine& engine,
                 const trace::AccessSequence& seq) {
  for (trace::VariableId v = 0; v < seq.num_variables(); ++v) {
    (void)engine.RegisterVariable(seq.name_of(v));
  }
}

struct WindowAllocations {
  std::size_t allocations = 0;
  /// The engine's window log grew (one allocation of its own).
  bool log_grew = false;
};

WindowAllocations FeedWindow(online::OnlineEngine& engine,
                             std::span<const trace::Access> window) {
  const std::size_t capacity = engine.Windows().capacity();
  const std::size_t before = g_allocations.load();
  engine.Feed(window);
  return {g_allocations.load() - before,
          engine.Windows().capacity() != capacity};
}

TEST(ReseedAllocation, PhaseChangeWindowAllocatesOnlyTheCandidate) {
  // The stream is fed twice. A re-seed's scratch depends only on its
  // window, so the first lap grows the workspace to every size the
  // second lap needs; the plan makes room for the largest migration on
  // its first use. Every phase-change window of the second lap, accepted
  // or refused, then allocates the candidate placement and nothing else.
  const trace::AccessSequence stream = AdaptiveStream(64, 7);
  const std::span<const trace::Access> accesses(stream.accesses());
  online::OnlineEngine engine(EwmaConfig(), Device());
  RegisterAll(engine, stream);
  std::size_t accepted = 0;
  std::size_t refused = 0;
  for (int lap = 0; lap < 2; ++lap) {
    for (std::size_t w = 0; w * kWindow < accesses.size(); ++w) {
      const WindowAllocations window =
          FeedWindow(engine, accesses.subspan(w * kWindow, kWindow));
      const online::WindowRecord& record = engine.Windows().back();
      if (lap == 0 || !record.phase_change) continue;
      EXPECT_EQ(window.allocations,
                kCandidateAllocations + (window.log_grew ? 1 : 0))
          << "window " << w
          << (record.replaced ? " (accepted)" : " (refused)");
      ++(record.replaced ? accepted : refused);
    }
  }
  // Both decisions are exercised.
  EXPECT_GT(accepted, 10u);
  EXPECT_GT(refused, 10u);
}

/// Name `v0000`, `v0001`, ...: name order is id order, so two working
/// sets whose ids differ by a constant get placements of the same shape.
std::string OrderedName(std::size_t v) {
  std::string name = std::to_string(v);
  name.insert(0, 5 - name.size(), '0');
  name.insert(0, 1, 'v');
  return name;
}

TEST(ReseedAllocation, RefusedReseedMaterializesNoPlan) {
  // Every window is a phase change. Windows 0 and 1 run on working set
  // A: window 0 places it, and window 1's re-seed returns the same
  // placement (nothing moves) while growing the engine's workspace. From
  // window 2 on, set B (the same shape under other ids) and set A
  // alternate: each window on B re-seeds a candidate that the accept rule
  // refuses (without refinement, nothing else plans a migration), each on
  // A again moves nothing. So from the first refusal on — while the
  // engine's plan has never been built — a window allocates exactly the
  // candidate.
  constexpr std::size_t kSet = 48;
  util::Rng rng(11);
  const trace::AccessSequence shape = trace::GenerateMarkov(
      {.num_vars = kSet, .length = kWindow}, rng);
  trace::AccessSequence stream;
  for (std::size_t v = 0; v < kVariables; ++v) {
    (void)stream.AddVariable(OrderedName(v));
  }
  constexpr std::size_t kWindows = 12;
  const auto on_set_b = [](std::size_t w) { return w >= 2 && w % 2 == 0; };
  for (std::size_t w = 0; w < kWindows; ++w) {
    const trace::VariableId base = on_set_b(w) ? kSet : 0;
    for (std::size_t i = 0; i < kWindow; ++i) {
      const trace::Access& access = shape[i % shape.size()];
      stream.Append(base + access.variable % kSet, access.type);
    }
  }
  online::OnlineConfig config = EwmaConfig();
  config.refine = false;
  config.detector.kind = online::DetectorKind::kFixedWindow;
  config.detector.period = 1;
  online::OnlineEngine engine(config, Device());
  RegisterAll(engine, stream);
  const std::span<const trace::Access> accesses(stream.accesses());
  std::size_t refused = 0;
  for (std::size_t w = 0; w < kWindows; ++w) {
    const WindowAllocations window =
        FeedWindow(engine, accesses.subspan(w * kWindow, kWindow));
    const online::WindowRecord& record = engine.Windows().back();
    if (w == 0) continue;
    ASSERT_TRUE(record.phase_change) << "window " << w;
    ASSERT_FALSE(record.replaced) << "window " << w;
    if (w == 1) continue;
    EXPECT_EQ(window.allocations,
              kCandidateAllocations + (window.log_grew ? 1 : 0))
        << "window " << w;
    if (on_set_b(w)) ++refused;
  }
  EXPECT_EQ(refused, (kWindows - 1) / 2);
  // One constructive evaluation per re-seed, plus the accept rule's two
  // prices on each refused window only: the set-A re-seeds moved nothing.
  const online::OnlineResult result = engine.Finish();
  EXPECT_EQ(result.evaluations, kWindows + 2 * refused);
}

}  // namespace
