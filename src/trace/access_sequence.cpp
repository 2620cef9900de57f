#include "trace/access_sequence.h"

#include <algorithm>
#include <iterator>
#include <stdexcept>

namespace rtmp::trace {

namespace {

/// A name's first 8 bytes as a big-endian integer, zero-padded: for two
/// names with different keys, the key order is the name order (bytes
/// compare as unsigned char, as std::string does).
std::uint64_t NamePrefixKey(const std::string& name) {
  std::uint64_t key = 0;
  for (std::size_t i = 0; i < 8 && i < name.size(); ++i) {
    key |= std::uint64_t{static_cast<unsigned char>(name[i])} << (56 - 8 * i);
  }
  return key;
}

}  // namespace

AccessSequence AccessSequence::FromTokens(
    std::span<const std::string> tokens) {
  AccessSequence seq;
  for (const std::string& token : tokens) seq.AppendToken(token);
  return seq;
}

void AccessSequence::AppendToken(std::string_view token) {
  if (token.empty()) return;
  AccessType type = AccessType::kRead;
  if (token.back() == '!') {
    type = AccessType::kWrite;
    token.remove_suffix(1);
    if (token.empty()) {
      throw std::invalid_argument("trace token '!' has no variable name");
    }
  }
  const auto it = ids_.find(token);
  Append(it != ids_.end() ? it->second : AddVariable(std::string(token)),
         type);
}

AccessSequence AccessSequence::FromCompactString(std::string_view text) {
  AccessSequence seq;
  for (const char c : text) {
    if (c == ' ') continue;
    seq.Append(seq.AddVariable(std::string(1, c)));
  }
  return seq;
}

VariableId AccessSequence::AddVariable(std::string name) {
  const auto id = static_cast<VariableId>(names_.size());
  const auto [it, inserted] = ids_.try_emplace(name, id);
  if (!inserted) return it->second;
  // Names are unique, so the id goes right after the ids whose names sort
  // before `name`: into the first block whose last name sorts after it
  // (else the last block). A block past twice the block size splits.
  const std::uint64_t key = NamePrefixKey(name);
  const auto before = [&](VariableId other) {
    if (name_keys_[other] != key) return name_keys_[other] < key;
    return names_[other] < name;
  };
  const auto block_before = [&](const std::vector<VariableId>& block) {
    return before(block.back());
  };
  auto& blocks = name_blocks_;
  auto block = std::partition_point(blocks.begin(), blocks.end(), block_before);
  if (block == blocks.end()) {
    if (blocks.empty()) blocks.emplace_back();
    block = std::prev(blocks.end());
  }
  block->insert(std::partition_point(block->begin(), block->end(), before), id);
  if (block->size() > 2 * kNameBlockSize) {
    const auto half = static_cast<std::ptrdiff_t>(kNameBlockSize);
    std::vector<VariableId> upper(block->begin() + half, block->end());
    block->resize(kNameBlockSize);
    blocks.insert(std::next(block), std::move(upper));
  }
  name_keys_.push_back(key);
  names_.push_back(std::move(name));
  return id;
}

std::optional<VariableId> AccessSequence::FindVariable(
    std::string_view name) const {
  if (const auto it = ids_.find(name); it != ids_.end()) {
    return it->second;
  }
  return std::nullopt;
}

void AccessSequence::Append(VariableId variable, AccessType type) {
  if (variable >= names_.size()) {
    throw std::out_of_range("access to unregistered variable id");
  }
  accesses_.push_back(Access{variable, type});
}

std::size_t AccessSequence::CountWrites() const noexcept {
  std::size_t writes = 0;
  for (const Access& a : accesses_) {
    if (a.type == AccessType::kWrite) ++writes;
  }
  return writes;
}

std::vector<Access> AccessSequence::Restrict(
    std::span<const VariableId> subset) const {
  // Variable ids are dense (assigned in registration order), so subset
  // membership is a flat bitmap — cheaper than a hash set, and no
  // unordered container near the per-DBC subsequences that feed every
  // cost figure.
  std::vector<bool> wanted(names_.size(), false);
  for (const VariableId v : subset) {
    if (v < wanted.size()) wanted[v] = true;
  }
  std::vector<Access> out;
  for (const Access& a : accesses_) {
    if (wanted[a.variable]) out.push_back(a);
  }
  return out;
}

}  // namespace rtmp::trace
