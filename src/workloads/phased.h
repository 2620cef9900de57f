// The phased(a,b,c) workload combinator: splice registered workloads
// into one phase-change workload.
//
// The registry's workloads are stationary — one access structure per
// benchmark. Real deployments drift between phases, and the online
// placement engine (src/online/) exists exactly for that regime; this
// combinator manufactures phased traffic from ANY workloads already in
// the registry (or trace files, or nested phased(...) specs):
//
//   phased(gemm-tiled,bfs-frontier,stream-scan)
//
// Splice semantics — the deterministic seam:
//
//  * Phase k materializes its benchmark with the request's seed and
//    scale, exactly as it would standalone.
//  * Variables are identified ACROSS phases by position: id i of every
//    phase maps to the shared variable "x<i>". The phases therefore
//    reuse one working set (|V| = max over phases) with genuinely
//    different affinity structures — the hard case for a single static
//    placement, and the one migration pays off in. (Name-based union
//    would make most phase pairs disjoint, which a static strategy
//    handles trivially by clustering per phase.)
//  * Result sequence i (i in [0, max over phases of sequence count))
//    concatenates phase 0's sequence (i mod n_0), then phase 1's
//    (i mod n_1), ... — every sequence crosses every phase seam, and
//    every phase's sequences all appear.
//
// Specs are parsed by workloads::ResolveWorkload (the parentheses make
// them invalid registry names, so they cannot shadow a registered
// workload); `placement_explorer workloads` lists the combinator
// alongside the registry.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "workloads/workload.h"

namespace rtmp::workloads {

/// A workload splicing `phases` (each itself resolved through
/// ResolveWorkload at Generate() time — names, trace files and nested
/// phased(...) specs all work). Throws std::invalid_argument on an
/// empty phase list. Unresolvable phases surface when Generate() runs.
[[nodiscard]] std::shared_ptr<const Workload> MakePhasedWorkload(
    std::vector<std::string> phases);

/// Deepest phased(...) nesting a spec may have; the same cap as the JSON
/// parser's. Generate() recurses once per level, so an uncapped spec
/// could overflow the stack.
inline constexpr std::size_t kMaxPhasedDepth = 64;

/// Parses "phased(a,b,...)" into its phase specs (whitespace around
/// commas trimmed; nested parentheses respected, so phases can be
/// phased(...) themselves). Returns nullopt when `spec` is not a phased
/// spec at all; throws std::invalid_argument on a malformed one
/// (unbalanced parentheses, empty phase, or parentheses nested deeper
/// than kMaxPhasedDepth levels, the outer phased(...) included).
[[nodiscard]] std::optional<std::vector<std::string>> ParsePhasedSpec(
    std::string_view spec);

/// Canonical spelling of a phased spec: "phased(a,b,c)" lowercased with
/// no spaces — the benchmark name the combinator emits.
[[nodiscard]] std::string CanonicalPhasedName(
    const std::vector<std::string>& phases);

}  // namespace rtmp::workloads
