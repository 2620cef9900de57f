// Multi-tenant serve cells of the evaluation matrix.
//
// A serve cell is one (benchmark, dbc count, serve policy) cell of
// sim::RunCell: the benchmark's sequences are admitted as tenants of ONE
// PlacementService on the cell's device. Its sim::RunResult carries the
// service's device view — shifts, accesses, runtime and energy all
// INCLUDE migration traffic and shared-channel waits — so serve cells
// compare apples-to-apples with static and online cells in the same
// report, golden and ResultTable.
//
// RunServeBenchmark is the one place a serve cell is built and run;
// sim::RunCell, fig_multitenant and placement_explorer's `serve`
// subcommand all call it.
#pragma once

#include "offsetstone/suite.h"
#include "serve/serve_policy.h"
#include "serve/service.h"
#include "sim/experiment.h"

namespace rtmp::serve {

/// Runs the (benchmark, dbcs, policy) cell: every non-empty sequence
/// becomes a tenant ("t0", "t1", ... by sequence index) of one
/// PlacementService on sim::CellConfig(dbcs, summed variable count). The
/// config is the policy's recipe with sim::StampCellSearch's sequence-0
/// stamp applied to the engine recipe (the service derives per-shard
/// seeds from it via online::WindowSeed) and the experiment's obs sinks.
/// A single-tenant "serve-1s-static-<s>" cell is therefore bit-identical
/// to the "online-static-<s>" cell on every exact counter. Throws
/// std::invalid_argument when no sequence declares a variable.
[[nodiscard]] sim::CellRun<ServeResult> RunServeBenchmark(
    const offsetstone::Benchmark& benchmark, unsigned dbcs,
    const ServePolicy& policy, const sim::ExperimentOptions& options);

/// Aggregate of one ServeResult in sim terms: what a serve cell reports.
[[nodiscard]] sim::SimulationResult ToSimulationResult(
    const ServeResult& result, const rtm::RtmConfig& config);

}  // namespace rtmp::serve
