// One name-keyed registry template for every lookup kind: placement
// strategies, workloads, online / serve / cache policies, eviction
// policies and rtmlint rules are all util::Registry<T> aliases. The
// three policy kinds share one entry type too: util::Recipe<Config>, a
// named engine configuration.
//
// A registry maps a name to a factory. Names are normalized to lowercase
// and restricted to [a-z0-9._-]: they appear in CLI arguments and in
// '|'-delimited ResultTable keys. The first Find() of a name runs its
// factory and caches the instance; later Find() calls return that one
// instance. Factories run unlocked, so a factory may itself consult a
// registry. Entries sit in a vector sorted by key — there are tens of
// them, so a flat vector beats a map. All members are thread-safe.
//
// A kind declares its alias and a RegisterBuiltins hook next to T, in
// T's namespace; Global() finds the hook by argument-dependent lookup:
//
//   using StrategyRegistry = util::Registry<PlacementStrategy>;
//   void RegisterBuiltinStrategies(StrategyRegistry& registry);
//   inline void RegisterBuiltins(StrategyRegistry& registry) {
//     RegisterBuiltinStrategies(registry);
//   }
#pragma once

#include <algorithm>
#include <cctype>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/strings.h"

namespace rtmp::util {

template <typename T>
class Registry {
 public:
  using Factory = std::function<std::shared_ptr<const T>()>;
  /// What T::Describe() returns, held by value.
  using Info =
      std::remove_cvref_t<decltype(std::declval<const T&>().Describe())>;

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide registry, filled by the kind's RegisterBuiltins
  /// hook on first use. Leaked, so Registrar uses in static destructors
  /// stay valid.
  [[nodiscard]] static Registry& Global() {
    static Registry* registry = [] {
      // NOLINTNEXTLINE(rtmlint:naked-new): leaked Global() singleton.
      auto* r = new Registry();
      RegisterBuiltins(*r);
      return r;
    }();
    return *registry;
  }

  /// Registers `factory` under `name` (normalized to lowercase). Throws
  /// std::invalid_argument on a null factory, an empty name, a name
  /// outside [a-z0-9._-], or a name already registered here. Factories
  /// should be cheap: Describe() instantiates the entry to read its info.
  void Register(std::string name, Factory factory) {
    if (!factory) {
      throw std::invalid_argument("Registry: null factory for '" + name +
                                  "'");
    }
    std::string key = ToLower(name);
    const auto valid_char = [](unsigned char c) {
      return std::isalnum(c) != 0 || c == '-' || c == '_' || c == '.';
    };
    if (key.empty() || !std::all_of(key.begin(), key.end(), valid_char)) {
      throw std::invalid_argument("Registry: invalid name '" + name + "'");
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = LowerBound(key);
    if (it != entries_.end() && it->key == key) {
      throw std::invalid_argument("Registry: duplicate name '" + key + "'");
    }
    entries_.insert(it, Entry{std::move(key), std::move(factory), nullptr});
  }

  /// The instance registered under `name`; nullptr if unknown. Costs one
  /// ToLower, one lock and one binary search once the instance exists.
  [[nodiscard]] std::shared_ptr<const T> Find(std::string_view name) const {
    const std::string key = ToLower(name);
    Factory factory;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      const Entry* entry = FindEntry(key);
      if (entry == nullptr) return nullptr;
      if (entry->instance) return entry->instance;
      factory = entry->factory;
    }
    auto instance = factory();
    if (!instance) {
      throw std::logic_error("Registry: factory for '" + key +
                             "' returned null");
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    // Entries are never removed, so the entry is still present; another
    // thread may have cached an instance first, in which case that one
    // wins.
    const Entry* entry = FindEntry(key);
    if (!entry->instance) entry->instance = std::move(instance);
    return entry->instance;
  }

  /// Info of the entry registered under `name`; nullopt if unknown.
  [[nodiscard]] std::optional<Info> Describe(std::string_view name) const {
    const auto instance = Find(name);
    if (!instance) return std::nullopt;
    return instance->Describe();
  }

  [[nodiscard]] bool Contains(std::string_view name) const {
    const std::string key = ToLower(name);
    const std::lock_guard<std::mutex> lock(mutex_);
    return FindEntry(key) != nullptr;
  }

  /// All registered names, sorted.
  [[nodiscard]] std::vector<std::string> Names() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> names;
    names.reserve(entries_.size());
    for (const Entry& entry : entries_) names.push_back(entry.key);
    return names;
  }

  [[nodiscard]] std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
  }

 private:
  struct Entry {
    std::string key;
    Factory factory;
    /// Constructed on first Find(), stored under mutex_.
    mutable std::shared_ptr<const T> instance;
  };

  /// Both lookups require mutex_ to be held by the caller.
  [[nodiscard]] auto LowerBound(const std::string& key) const {
    return std::lower_bound(
        entries_.begin(), entries_.end(), key,
        [](const Entry& entry, const std::string& k) { return entry.key < k; });
  }

  [[nodiscard]] const Entry* FindEntry(const std::string& key) const {
    const auto it = LowerBound(key);
    if (it == entries_.end() || it->key != key) return nullptr;
    return &*it;
  }

  mutable std::mutex mutex_;
  std::vector<Entry> entries_;
};

/// Self-description of a Recipe.
struct RecipeInfo {
  /// Registry key: lowercase, unique ("online-ewma-dma-sr", ...).
  std::string name;
  /// One-line human-readable description for listings and docs.
  std::string summary;
};

/// A named Config under a fixed description: the entry type of the
/// online, serve and cache policy registries. Immutable, so the
/// experiment engine may share one instance across threads.
template <typename Config>
class Recipe final {
 public:
  Recipe(RecipeInfo info, Config config)
      : info_(std::move(info)), config_(std::move(config)) {}

  [[nodiscard]] const RecipeInfo& Describe() const noexcept { return info_; }

  /// The configuration this recipe stands for. Cells stamp the
  /// run-specific fields (device alignment, search effort, seeds)
  /// afterwards; see sim::StampCellSearch.
  [[nodiscard]] Config MakeConfig() const { return config_; }

 private:
  RecipeInfo info_;
  Config config_;
};

/// Registers `config` under `info.name` as a Recipe<Config>.
template <typename Config>
void RegisterRecipe(Registry<Recipe<Config>>& registry, const RecipeInfo& info,
                    const Config& config) {
  registry.Register(info.name, [info, config] {
    return std::make_shared<const Recipe<Config>>(info, config);
  });
}

/// RAII self-registration into Registry<T>::Global(), for entries
/// defined outside this library:
///
///   static const rtmp::core::StrategyRegistrar kMine{"my-layout", [] {
///     return std::make_shared<const MyLayoutStrategy>();
///   }};
///
/// Caveat: when linking rtmplace statically, a translation unit that is
/// never referenced is dropped by the linker along with its registrars —
/// keep registrars in a TU that is otherwise linked in, or register
/// explicitly at startup.
template <typename T>
struct Registrar {
  Registrar(std::string name, typename Registry<T>::Factory factory) {
    // NOLINTNEXTLINE(rtmlint:registry-discipline): the one sanctioned path.
    Registry<T>::Global().Register(std::move(name), std::move(factory));
  }
};

}  // namespace rtmp::util
