// Incremental shift-cost evaluation engine.
//
// ShiftCost (core/cost_model.h) replays the whole access sequence for every
// candidate placement: O(|S|) per call. The GA evaluates tens of thousands
// of candidates that differ from an already-scored placement by one
// mutation, so almost all of that replay work is redundant. (The random
// walk's candidates are unrelated draws; it scores them with ScoreSlots,
// one flat walk each over the access runs: O(runs), not O(|S|), since a
// repeated access costs nothing.) Following the ShiftsReduce observation
// that the single-port cost decomposes into pairwise transition counts,
//
//   cost(DBC d) = sum over unordered pairs {u, v} placed in d of
//                 w_d(u, v) * |offset(u) - offset(v)|   (+ first-access term)
//
// where w_d(u, v) counts how often u and v are accessed consecutively in
// the subsequence of S restricted to d's variables, this evaluator
// maintains the per-DBC transition weights w_d for a bound placement and
// keeps the cost up to date under moves and Evaluate's diffs:
//
//  * the weights depend only on the DBC *partition* (which DBC each
//    variable lives in), never on the order inside a DBC — when a move
//    shifts the offsets inside a DBC, its existing weights are re-priced
//    in O(distinct transitions of the DBC) instead of O(|S|);
//  * moving one variable between DBCs splices its trace positions out of
//    one restricted subsequence and into the other, touching only the
//    weights of its former and new neighbors.
//
// Fast-path applicability: the decomposition above holds for the paper's
// single-port cost model (CostOptions::port_offsets has one entry), where
// the cost of a transition is the offset distance regardless of the port's
// own offset. With several ports the cheapest port depends on the running
// alignment, which does not decompose into pairwise terms; the evaluator
// then keeps the exact same interface but scores through the existing
// DbcState replay path (PerDbcShiftCost), so multi-port results stay
// bit-identical to ShiftCost by construction. Debug builds additionally
// assert every Evaluate() against ShiftCost.
//
// Typical use (the greedy move loop of online::OnlineEngine::Refine):
//
//   CostEvaluator evaluator(seq, options.cost);
//   evaluator.Bind(placement);                  // O(|S|), once
//   const std::uint64_t before = evaluator.Cost();
//   std::uint32_t best = home;
//   std::uint64_t best_cost = before;
//   for (std::uint32_t d = 0; d < num_dbcs; ++d) {
//     const std::uint64_t cost = evaluator.PeekMove(v, d);  // no edit
//     if (cost < best_cost) { best = d; best_cost = cost; }
//   }
//   if (best != home) {
//     const std::uint64_t after = evaluator.ApplyMove(v, best);
//     if (after + margin >= before) evaluator.Undo();  // not worth it
//   }
//
// Evaluate(p) scores an arbitrary placement by diffing it against the
// currently bound one and rebinding: cheap when few variables changed
// DBCs, automatically falling back to a full O(|S|) rebuild when the diff
// is large (so it is never asymptotically worse than ShiftCost).
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "core/cost_model.h"
#include "core/placement.h"
#include "trace/access_sequence.h"

namespace rtmp::core {

class CostEvaluator {
 public:
  /// Precomputes the per-variable trace positions of `seq`. The sequence
  /// is borrowed and must outlive the evaluator. Throws
  /// std::invalid_argument if `options` has no ports (as ShiftCost does).
  CostEvaluator(const trace::AccessSequence& seq, CostOptions options);

  /// True when the O(transitions) single-port fast path is active; false
  /// when every scoring call goes through the DbcState replay path.
  [[nodiscard]] bool incremental() const noexcept { return single_port_; }

  [[nodiscard]] bool bound() const noexcept { return bound_; }

  [[nodiscard]] const CostOptions& options() const noexcept {
    return options_;
  }

  /// Binds `placement` (copied) and rebuilds the transition structure:
  /// O(|S| + transitions). Validates like ShiftCost: every accessed
  /// variable must be placed (std::logic_error) and the placement must fit
  /// options.domains_per_dbc when set (std::invalid_argument). Clears the
  /// undo stack.
  void Bind(const Placement& placement);

  /// Cost of `placement`, diffed against the bound state: O(#variables +
  /// splice work + re-priced transitions) for small diffs, one O(|S|)
  /// rebuild otherwise (never asymptotically worse than ShiftCost). Binds
  /// `placement` as a side effect and clears the undo stack.
  std::uint64_t Evaluate(const Placement& placement);

  /// Single-port cost of a complete placement given in flat form:
  /// `slots[v]` is variable v's (dbc, offset) and `fill[d]` the number of
  /// variables in DBC d. One walk over the access runs (maximal blocks
  /// of one repeated variable): O(runs) <= O(|S|), with no Placement and
  /// no binding, so the bound state is untouched. A repeat of the
  /// previous access faces its port already and costs 0, so skipping it
  /// is exact. The first call builds the run list (O(|S|), once). This
  /// is how the random walk scores its unrelated candidates. Throws
  /// std::invalid_argument when a DBC is deeper than
  /// options.domains_per_dbc (same message as ShiftCost) or `slots`
  /// misses a variable of the sequence, and std::logic_error on a
  /// multi-port evaluator (use Evaluate there).
  [[nodiscard]] std::uint64_t ScoreSlots(std::span<const Slot> slots,
                                         std::span<const std::uint32_t> fill);

  /// Total cost of the bound placement. O(1); throws std::logic_error
  /// when nothing is bound.
  [[nodiscard]] std::uint64_t Cost() const;

  /// The bound placement (kept in lock-step with ApplyMove and Undo).
  [[nodiscard]] const Placement& placement() const;

  // -- trial scoring ---------------------------------------------------------
  // Read-only: the total cost the bound placement WOULD have after
  // ApplyMove(v, dbc), without performing it. This is the hot primitive
  // of neighborhood search — score many candidate moves, commit one (via
  // ApplyMove) or none. Nothing to undo afterwards. Same validation as
  // ApplyMove. Single-port: re-prices the source DBC's edges under the
  // gap-closed offsets and walks the insertion merge into the target,
  // O(E_from + n_from + freq(v) + |S_to|). Non-const only because it
  // shares the evaluator's scratch buffers (and lazily rebuilds stale
  // weights); the bound placement and cost are never modified.
  // Multi-port: O(|S|) replay of a scratch copy.

  [[nodiscard]] std::uint64_t PeekMove(VariableId v, std::uint32_t dbc);

  // -- incremental edits ----------------------------------------------------
  // ApplyMove mirrors Placement::MoveToEnd, updates the cost, pushes an
  // undo record and returns the new total cost. Validation (range
  // checks, capacity) is delegated to Placement and happens before any
  // internal state changes. Single-port: splices v's occurrences out in
  // O(freq(v)), merges them into the target in O(|S_target| + freq(v))
  // and re-prices both DBCs over their dense transition-edge arrays —
  // far below the O(|S|) trace replay. Undo restores the stored pre-edit
  // costs and links in O(freq(v)). Multi-port: ApplyMove is O(|S|) (full
  // replay re-price), Undo is cheap.

  std::uint64_t ApplyMove(VariableId v, std::uint32_t dbc);

  /// Reverts the most recent not-yet-undone ApplyMove (LIFO). Throws
  /// std::logic_error when the undo stack is empty.
  void Undo();

  /// Moves that can still be undone. Bind/Evaluate reset this to 0.
  [[nodiscard]] std::size_t undo_depth() const noexcept {
    return undo_.size();
  }

  /// Times any arena-backed storage (edge SoA arrays) had to grow its
  /// backing allocation. Rebinding same-shaped placements reuses the warm
  /// arenas, so the counter goes quiet after the first Bind — the
  /// invariant the arena growth/reuse test pins.
  [[nodiscard]] std::size_t arena_growths() const noexcept {
    return arena_growths_;
  }

 private:
  /// The transition edges of one DBC's restricted subsequence, in
  /// structure-of-arrays layout: parallel arrays over the edge slots.
  /// `keys[i]` packs the unordered variable pair (min << 32 | max) —
  /// the identity used by EdgeIndex lookups and key-addressed undo;
  /// `us[i]` / `vs[i]` are the same pair pre-unpacked so the pricing
  /// scan is pure array arithmetic (no shifts/masks per edge);
  /// `weights[i]` counts how often the pair is accessed consecutively.
  /// Self pairs are stored (splices need their bookkeeping) but always
  /// price to zero. Slots form a dense arena so re-pricing is a flat
  /// scan; zero-weight slots are tombstones, compacted when they
  /// outnumber the live ones. clear() keeps capacity: the arena
  /// survives rebinds without reallocating.
  struct EdgeArray {
    std::vector<std::uint64_t> keys;
    std::vector<std::uint32_t> us, vs;
    std::vector<std::uint64_t> weights;

    [[nodiscard]] std::size_t size() const noexcept { return keys.size(); }
    void clear() noexcept {
      keys.clear();
      us.clear();
      vs.clear();
      weights.clear();
    }
    /// Appends one edge; returns true when the backing storage grew
    /// (arena telemetry — see CostEvaluator::arena_growths()).
    bool Append(std::uint64_t key, std::uint64_t weight) {
      const bool grew = keys.size() == keys.capacity();
      keys.push_back(key);
      us.push_back(static_cast<std::uint32_t>(key >> 32));
      vs.push_back(static_cast<std::uint32_t>(key & 0xFFFFFFFFULL));
      weights.push_back(weight);
      return grew;
    }
  };

  /// Open-addressing edge lookup (packed pair -> slot in DbcData::edges).
  /// Linear probing, power-of-two capacity, no per-entry allocation and no
  /// erase (stale slots vanish with the rebuild after compaction) — a
  /// splice's handful of lookups stays a handful of cache probes instead
  /// of unordered_map node chases.
  class EdgeIndex {
   public:
    /// Slot for `key`; existing on hit, `fresh` (stored) on miss.
    std::uint32_t FindOrInsert(std::uint64_t key, std::uint32_t fresh);
    void Clear() noexcept;

   private:
    void Grow();
    // (u, v) pairs of real variable ids never reach ~0: the sentinel is
    // safe for any sequence that fits in memory.
    static constexpr std::uint64_t kEmptyKey = ~0ULL;
    std::vector<std::uint64_t> keys_;
    std::vector<std::uint32_t> slots_;
    std::size_t size_ = 0;
  };

  struct DbcData {
    std::uint32_t head = kNoPosition;  ///< first trace position of the DBC
    std::uint32_t tail = kNoPosition;
    std::size_t count = 0;  ///< chain length (positions in this DBC)
    EdgeArray edges;
    EdgeIndex edge_index;
    std::size_t dead = 0;  ///< zero-weight edges in `edges`
    std::uint64_t cost = 0;
  };

  /// One ApplyMove(v, dbc) to revert: v came from (from_dbc, from_offset).
  struct UndoRecord {
    VariableId v = 0;
    std::uint32_t from_dbc = 0;
    std::uint32_t from_offset = 0;
    std::uint32_t dbc = 0;
    /// Start of this record's slice of links_arena_ — v's (prev, next)
    /// links in from_dbc before the splice-out, one pair per occurrence;
    /// undo relinks from these in O(1) each.
    std::size_t links_begin = 0;
    /// Start of this record's slice of weight_log_; undo replays the
    /// slice backwards.
    std::size_t log_begin = 0;
    /// The corresponding DBC's transition edges were rebuilt wholesale
    /// (high-frequency variable) instead of spliced+logged; undo swaps
    /// the snapshotted pre-edit edge state back in.
    bool from_rebuilt = false;
    bool to_rebuilt = false;
    EdgeArray from_snap, to_snap;
    EdgeIndex from_index_snap, to_index_snap;
    std::size_t from_dead_snap = 0, to_dead_snap = 0;
    /// Pre-edit costs of from_dbc and dbc; undo restores them instead of
    /// re-pricing (LIFO makes the values valid).
    std::uint64_t from_cost = 0;
    std::uint64_t to_cost = 0;
  };

  /// One logged weight mutation: undo writes old_weight back into the
  /// edge keyed `key` of dbcs_[dbc]. Key-addressed (not slot-addressed)
  /// so wholesale edge rebuilds between log and replay stay safe.
  struct WeightEdit {
    std::uint32_t dbc = 0;
    std::uint64_t key = 0;
    std::uint64_t old_weight = 0;
  };

  static constexpr std::uint32_t kNoPosition =
      std::numeric_limits<std::uint32_t>::max();

  static constexpr std::int64_t kNoAccess = -1;

  void RequireBound() const;
  /// Single-port shifts of one access at `offset` in a DBC whose port
  /// last faced `last` (kNoAccess before the DBC's first access); moves
  /// `last` to `offset`. The per-access body of both single-port walks,
  /// RebuildAll's and ScoreSlots'.
  [[nodiscard]] std::uint64_t AccessShifts(std::int64_t& last,
                                           std::uint32_t offset) const;
  /// Full rebuild from `placement`. `with_weights` also populates the
  /// transition edges; without, they are marked stale and rebuilt lazily by
  /// the first diff/edit that needs them (Evaluate's full-rebuild path
  /// skips them so an unrelated placement — a GA's random initial
  /// individual — costs exactly one SinglePortCosts-style pass).
  void RebuildAll(const Placement& placement, bool with_weights);
  /// Rebuilds the per-DBC position chains from the mirror: O(|S|). The
  /// no-weights rebuild skips link maintenance, so the first chain
  /// consumer afterwards calls this.
  void RebuildLinks();
  /// Rebuilds every DBC's transition edges from its (valid) chains.
  /// Ensures the chains first; weights_valid_ implies links are valid.
  void RebuildWeights();
  /// Re-prices one DBC: flat scan over its edges + the mirror's offsets.
  void RepriceDbc(std::uint32_t d);
  void RecomputeMultiPort();
  /// Slot of the edge keyed `key` in `data`, appended as a tombstone on
  /// first sight. All weight writes go through SetEdgeWeight so the
  /// dead-edge counter (the compaction trigger) has a single owner.
  std::uint32_t EdgeFor(DbcData& data, std::uint64_t key);
  void SetEdgeWeight(DbcData& data, std::uint32_t slot, std::uint64_t weight);
  void AddWeight(std::uint32_t dbc, VariableId u, VariableId v,
                 std::int64_t delta);
  /// Unlinks ALL of v's trace positions from a DBC's restricted
  /// subsequence, O(1) + (when `update_weights`) a few weight updates per
  /// occurrence. When `save_links` is set, each occurrence's old
  /// (prev, next) pair is pushed onto links_arena_ so RelinkAll can
  /// restore it blindly.
  void SpliceOutAll(std::uint32_t dbc, VariableId v, bool save_links,
                    bool update_weights);
  /// Inserts ALL of v's trace positions into a DBC by merging along its
  /// position chain: O(|S_dbc| + freq(v)).
  void SpliceInAll(std::uint32_t dbc, VariableId v, bool update_weights);
  /// Undo helpers: pure link surgery, weights are restored from
  /// weight_log_ separately. UnlinkAll is SpliceOutAll minus weights;
  /// RelinkAll re-wires v from its saved (prev, next) pairs, O(freq(v)).
  void UnlinkAll(DbcData& data, VariableId v);
  void RelinkAll(DbcData& data, VariableId v, std::size_t links_begin);
  /// Rebuilds one DBC's transition edges from its chain (never logged) —
  /// the cheaper path when a moved variable's occurrence count rivals the
  /// chain length. Small-membership DBCs count pairs in a dense
  /// offset-indexed matrix (no hashing at all); larger ones hash.
  void RebuildDbcWeights(std::uint32_t dbc);
  /// Sum of one DBC's edge prices under the offsets currently staged in
  /// offset_scratch_. The all-edges variant is the hot scan: branch-free
  /// over the SoA slots (tombstones carry weight 0 and price to zero, so
  /// no skip test — the loop is pure multiply-accumulate the compiler can
  /// vectorize). The excluding variant masks out edges incident to one
  /// variable (PeekMove's from-side).
  [[nodiscard]] std::uint64_t PriceDbcEdgesAll(const DbcData& data) const;
  [[nodiscard]] std::uint64_t PriceDbcEdgesExcluding(const DbcData& data,
                                                     VariableId excluded) const;
  /// Multi-port trial scoring: replay a mutated scratch copy.
  [[nodiscard]] std::uint64_t PeekByReplay(
      const Placement& candidate) const;
  std::uint64_t TotalFromDbcs() const;
  void AssertMatchesShiftCost() const;

  const trace::AccessSequence* seq_;
  CostOptions options_;
  bool single_port_;
  bool first_pays_;
  std::int64_t port_ = 0;
  std::vector<VariableId> var_of_;  ///< trace position -> variable
  /// var_of_ with consecutive repeats dropped: the access runs that
  /// ScoreSlots walks. Built by the first ScoreSlots call, so evaluators
  /// that never call it (GA, online windows) hold no copy.
  std::vector<VariableId> run_vars_;

  /// Per-variable trace positions in CSR layout: variable v's positions
  /// are pos_data_[pos_begin_[v] .. pos_begin_[v + 1]) — one flat arena
  /// instead of a vector-of-vectors, so splice loops stream contiguous
  /// memory and the frequency of v is a subtraction.
  std::vector<std::uint32_t> pos_data_;
  std::vector<std::uint32_t> pos_begin_;  ///< size NumVars() + 1

  [[nodiscard]] std::span<const std::uint32_t> PositionsOf(
      VariableId v) const noexcept {
    return {pos_data_.data() + pos_begin_[v],
            pos_data_.data() + pos_begin_[v + 1]};
  }
  [[nodiscard]] std::size_t FreqOf(VariableId v) const noexcept {
    return pos_begin_[v + 1] - pos_begin_[v];
  }
  [[nodiscard]] std::size_t NumVars() const noexcept {
    return pos_begin_.size() - 1;
  }

  bool bound_ = false;
  bool links_valid_ = false;
  bool weights_valid_ = false;
  Placement mirror_{0, 1};
  std::vector<DbcData> dbcs_;
  /// Doubly-linked chains threading the trace positions of each DBC's
  /// restricted subsequence (kNoPosition-terminated; heads/tails live in
  /// DbcData). Every position belongs to exactly one chain.
  std::vector<std::uint32_t> prev_, next_;
  std::uint64_t total_ = 0;
  std::vector<UndoRecord> undo_;
  /// LIFO arenas backing the undo records (truncated in lock-step with
  /// undo_): saved links and the weight-edit log. log_weights_ arms the
  /// logging inside ApplyMove only.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> links_arena_;
  std::vector<WeightEdit> weight_log_;
  bool log_weights_ = false;
  /// Scratch offset-by-variable table for RepriceDbc (avoids a checked
  /// SlotOf per edge endpoint); entries are refreshed per call.
  std::vector<std::uint32_t> offset_scratch_;
  /// Scratch pair-count matrix for RebuildDbcWeights' dense path.
  std::vector<std::uint32_t> matrix_scratch_;
  /// Scratch last-offset-per-DBC table for the single-port cost walks.
  std::vector<std::int64_t> last_off_scratch_;
  /// Backing-storage growth events across all edge arenas (telemetry for
  /// arena_growths()).
  std::size_t arena_growths_ = 0;
};

}  // namespace rtmp::core
