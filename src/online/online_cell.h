// Online cells of the evaluation matrix.
//
// An online cell is one (benchmark, dbc count, online policy) cell of
// sim::RunCell: every sequence is served by its own OnlineEngine session
// on the cell's device (sim::CellConfig, identical to the static
// cells'). Its sim::RunResult carries the controller's view — shifts,
// accesses, runtime and energy all INCLUDE migration traffic — so
// online and static cells compare apples-to-apples in the same report,
// golden and ResultTable.
//
// RunOnlineSequence is the one place an online cell sequence is built
// and run; sim::RunCell, the streamed trace path, fig_online and
// placement_explorer's `online` subcommand all call it.
#pragma once

#include <cstddef>
#include <string_view>

#include "online/engine.h"
#include "online/policy.h"
#include "sim/experiment.h"
#include "trace/access_sequence.h"

namespace rtmp::online {

/// Runs sequence `sequence_index` of the (benchmark_name, dbcs, policy)
/// cell: the device is sim::CellConfig(dbcs, variables), the config is
/// the policy's recipe with sim::StampCellSearch applied and the
/// experiment's obs sinks (tid = sequence_index). `sequence_index` must
/// count delivered sequences including empty ones, and `seq` must
/// declare at least one variable. An "online-static-<s>" sequence is
/// bit-identical to the "<s>" cell's on every exact counter.
[[nodiscard]] sim::CellRun<OnlineResult> RunOnlineSequence(
    const trace::AccessSequence& seq, std::size_t sequence_index,
    unsigned dbcs, const OnlinePolicy& policy,
    const sim::ExperimentOptions& options, std::string_view benchmark_name);

/// Aggregate of one OnlineResult in sim terms: what an online cell
/// accumulates per sequence.
[[nodiscard]] sim::SimulationResult ToSimulationResult(
    const OnlineResult& result, const rtm::RtmConfig& config);

}  // namespace rtmp::online
