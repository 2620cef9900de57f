// Cache cells of the evaluation matrix.
//
// A cache cell is one (benchmark, dbc count, cache policy) cell of
// sim::RunCell: every sequence is served by its own CacheEngine session.
// Its sim::RunResult carries the controller's view — shifts, accesses,
// runtime and energy INCLUDE migration AND eviction/fill traffic plus
// the backing store's latency/energy — so cache cells compare
// apples-to-apples with static and online cells in the same report,
// golden and ResultTable.
//
// Device sizing is the one place cache cells deliberately differ: the
// device is sized for the CAPACITY (the resident frame pool), not the
// variable count — that is the whole point of the hybrid mode. A
// capacity-ratio-1.0 cell therefore gets the exact device its uncached
// online twin gets, which is what makes the c100 oracle equality exact.
//
// RunCacheSequence is the one place a cache cell sequence is built and
// run; sim::RunCell, the streamed trace path, fig_cache and
// placement_explorer's `cache` subcommand all call it.
#pragma once

#include <cstddef>
#include <string_view>

#include "cache/cache_policy.h"
#include "cache/engine.h"
#include "sim/experiment.h"
#include "trace/access_sequence.h"

namespace rtmp::cache {

/// Runs sequence `sequence_index` of the (benchmark_name, dbcs, policy)
/// cell: the resident capacity is resolved against the sequence's
/// variable count, the device is sim::CellConfig(dbcs, capacity), and
/// the config is the policy's recipe with sim::StampCellSearch applied
/// to the wrapped engine (the same seed feeds randomized eviction) and
/// the experiment's obs sinks (tid = sequence_index). `sequence_index`
/// must count delivered sequences including empty ones, and `seq` must
/// declare at least one variable. A "cache-<e>-c100" sequence is
/// bit-identical to the "online-fixed-dma-sr" cell's on every exact
/// counter.
[[nodiscard]] sim::CellRun<CacheResult> RunCacheSequence(
    const trace::AccessSequence& seq, std::size_t sequence_index,
    unsigned dbcs, const CachePolicy& policy,
    const sim::ExperimentOptions& options, std::string_view benchmark_name);

/// Aggregate of one CacheResult in sim terms: what a cache cell
/// accumulates per sequence. Writebacks count as device reads and fills
/// as device writes (each transfer touches the device once on its way
/// down/up); the backing store's busy time is a serial penalty on the
/// runtime and its transfer energy lands in the read/write term.
[[nodiscard]] sim::SimulationResult ToSimulationResult(
    const CacheResult& result, const rtm::RtmConfig& config);

}  // namespace rtmp::cache
