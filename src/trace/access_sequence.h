// Memory access traces: the input of every placement strategy.
//
// An AccessSequence is the paper's `S = (s1, ..., sk)`: an ordered list of
// accesses to named program variables. Variables are identified by dense
// 32-bit ids in order of first registration; positions are 0-based (the
// paper's prose is 1-based; tests that encode paper numbers subtract 1).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace rtmp::trace {

using VariableId = std::uint32_t;

/// Kind of memory access. OffsetStone-style traces do not distinguish reads
/// from writes; generators tag a configurable fraction as writes so the
/// energy model has both terms.
enum class AccessType : std::uint8_t { kRead, kWrite };

/// One element of an access sequence.
struct Access {
  VariableId variable = 0;
  AccessType type = AccessType::kRead;

  friend bool operator==(const Access&, const Access&) = default;
};

/// An ordered trace of accesses over a named variable set.
class AccessSequence {
 public:
  AccessSequence() = default;

  /// Builds a sequence from whitespace-style tokens; each distinct token
  /// becomes a variable (ids assigned in order of first appearance). A
  /// trailing '!' on a token marks a write access ("a!" = write to a).
  [[nodiscard]] static AccessSequence FromTokens(
      std::span<const std::string> tokens);

  /// Convenience for tests: builds from a string of single-character
  /// variable names, e.g. "abacab" (all reads).
  [[nodiscard]] static AccessSequence FromCompactString(std::string_view text);

  /// Registers a variable; returns its id. Re-registering a name returns the
  /// existing id.
  VariableId AddVariable(std::string name);

  /// Looks up a variable id by name.
  [[nodiscard]] std::optional<VariableId> FindVariable(
      std::string_view name) const;

  /// Appends one access. The variable must have been registered.
  void Append(VariableId variable, AccessType type = AccessType::kRead);

  /// Makes room for `count` accesses in total, so a reader that knows the
  /// length up front allocates once instead of once per growth step.
  void ReserveAccesses(std::size_t count) { accesses_.reserve(count); }

  /// Drops all accesses, keeping the registered variables. The online
  /// engine reuses one sequence as its rolling window buffer this way —
  /// names accumulate across windows, accesses do not.
  void ClearAccesses() noexcept { accesses_.clear(); }

  /// Appends one textual access token — a variable name with an
  /// optional trailing '!' write marker ("acc!") — registering the name
  /// on first appearance. Throws std::invalid_argument on a bare "!".
  /// The one token grammar shared by FromTokens and the streaming trace
  /// reader (trace/trace_stream.h). Allocates only for a name's first
  /// appearance.
  void AppendToken(std::string_view token);

  /// Number of registered variables (the paper's |V|). Variables with zero
  /// accesses are allowed (they still need a placement slot).
  [[nodiscard]] std::size_t num_variables() const noexcept {
    return names_.size();
  }

  /// Trace length (the paper's |S|).
  [[nodiscard]] std::size_t size() const noexcept { return accesses_.size(); }
  [[nodiscard]] bool empty() const noexcept { return accesses_.empty(); }

  [[nodiscard]] const Access& operator[](std::size_t i) const noexcept {
    return accesses_[i];
  }

  [[nodiscard]] const std::vector<Access>& accesses() const noexcept {
    return accesses_;
  }

  [[nodiscard]] const std::string& name_of(VariableId v) const {
    return names_.at(v);
  }

  [[nodiscard]] const std::vector<std::string>& variable_names()
      const noexcept {
    return names_;
  }

  /// Calls `visit(id)` for every registered id in ascending name order.
  /// AddVariable keeps this order (O(log V + kNameBlockSize) per new
  /// name), so name-ordered tie-breaks (AFD's frequency deal) walk it
  /// instead of sorting strings. Generator names are scrambled on
  /// purpose, so this order is unrelated to id order.
  template <typename Visit>
  void ForEachIdByName(Visit&& visit) const {
    for (const std::vector<VariableId>& block : name_blocks_) {
      for (const VariableId v : block) visit(v);
    }
  }

  /// Number of write accesses (the rest are reads).
  [[nodiscard]] std::size_t CountWrites() const noexcept;

  /// Restriction of this sequence to a variable subset, preserving order:
  /// the paper's per-DBC subsequence `S_i`. Ids and names are preserved
  /// (the result references the same variable space).
  [[nodiscard]] std::vector<Access> Restrict(
      std::span<const VariableId> subset) const;

 private:
  /// Transparent string hash: `ids_` answers std::string_view lookups
  /// without building a std::string. std::hash gives std::string and
  /// std::string_view the same value for the same characters. Not
  /// noexcept on purpose: libstdc++ then keeps each node's hash, as it
  /// does for std::hash<std::string>, so neither a rehash nor a bucket
  /// walk hashes a stored name again.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view name) const {
      return std::hash<std::string_view>{}(name);
    }
  };

  std::vector<std::string> names_;
  /// Lookup-only (find/emplace, never iterated): hash order must not
  /// leak into anything observable. `names_` is the deterministic,
  /// registration-ordered view; rtmlint's unordered-iteration rule
  /// keeps it that way.
  std::unordered_map<std::string, VariableId, NameHash, std::equal_to<>>
      ids_;
  /// Ids in name order (see ForEachIdByName), cut into blocks of at
  /// most 2 * kNameBlockSize so an insert moves a block, not all of V.
  static constexpr std::size_t kNameBlockSize = 64;
  std::vector<std::vector<VariableId>> name_blocks_;
  /// Per id: the name's first 8 bytes, big-endian and zero-padded. Keys
  /// order like the names wherever they differ, so the index insert
  /// compares strings only on a key tie.
  std::vector<std::uint64_t> name_keys_;
  std::vector<Access> accesses_;
};

}  // namespace rtmp::trace
