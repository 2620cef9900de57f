#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "util/csv.h"
#include "util/registry.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/table.h"

namespace rtmp::util {
namespace {

// ---------------------------------------------------------------- Rng ----

TEST(Rng, SameSeedSameStream) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int differences = 0;
  for (int i = 0; i < 16; ++i) {
    if (a() != b()) ++differences;
  }
  EXPECT_GT(differences, 0);
}

TEST(Rng, NextBelowStaysInBounds) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.NextBelow(bound), bound);
  }
}

TEST(Rng, NextBelowCoversAllValues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.NextBelow(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NextInRangeInclusive) {
  Rng rng(3);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.NextInRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextInRangeFullWidthReturnsTheRawDraw) {
  // hi - lo + 1 wraps to 0 over the whole int64 range.
  constexpr auto kMin = std::numeric_limits<std::int64_t>::min();
  constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
  Rng rng(37);
  Rng raw(37);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 100; ++i) {
    const std::int64_t v = rng.NextInRange(kMin, kMax);
    EXPECT_EQ(v, static_cast<std::int64_t>(raw()));
    seen.insert(v);
  }
  EXPECT_GT(seen.size(), 90u);
}

TEST(Rng, NextInRangeWiderThanInt64MaxStaysInRange) {
  // Half-open ranges wider than INT64_MAX: the offset from lo does not
  // fit in an int64.
  constexpr auto kMin = std::numeric_limits<std::int64_t>::min();
  constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
  Rng rng(43);
  bool saw_high = false;
  bool saw_low = false;
  for (int i = 0; i < 200; ++i) {
    const std::int64_t high = rng.NextInRange(-5, kMax);
    EXPECT_GE(high, -5);
    saw_high |= high > kMax / 2;
    const std::int64_t low = rng.NextInRange(kMin, 5);
    EXPECT_LE(low, 5);
    saw_low |= low < kMin / 2;
  }
  EXPECT_TRUE(saw_high);
  EXPECT_TRUE(saw_low);
}

TEST(Rng, NextInRangeSinglePointReturnsItAndDrawsOnce) {
  constexpr auto kMin = std::numeric_limits<std::int64_t>::min();
  constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
  Rng rng(41);
  Rng raw(41);
  for (const std::int64_t point : {kMin, std::int64_t{-7}, std::int64_t{0},
                                   std::int64_t{12}, kMax}) {
    EXPECT_EQ(rng.NextInRange(point, point), point);
    (void)raw();
    EXPECT_EQ(rng(), raw());
  }
}

// The NextBelow body that computed the rejection threshold with a 64-bit
// division on every call. The production body divides only when the low
// product word is below `bound`, and must accept and reject exactly the
// same draws.
std::uint64_t ReferenceNextBelow(Rng& rng, std::uint64_t bound) {
  const std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const std::uint64_t x = rng();
    const auto wide = static_cast<unsigned __int128>(x) * bound;
    const auto low = static_cast<std::uint64_t>(wide);
    if (low >= threshold) return static_cast<std::uint64_t>(wide >> 64);
  }
}

template <typename T>
void ReferenceShuffle(Rng& rng, std::vector<T>& items) {
  if (items.size() < 2) return;
  for (std::size_t i = items.size() - 1; i > 0; --i) {
    const auto j = static_cast<std::size_t>(ReferenceNextBelow(rng, i + 1));
    std::swap(items[i], items[j]);
  }
}

/// Draws `draws` values below `bound` from twin generators and checks
/// the results and the next raw word after each draw.
void ExpectNextBelowMatchesReference(std::uint64_t seed, std::uint64_t bound,
                                     int draws) {
  SCOPED_TRACE(bound);
  Rng fast(seed);
  Rng reference(seed);
  for (int i = 0; i < draws; ++i) {
    ASSERT_EQ(fast.NextBelow(bound), ReferenceNextBelow(reference, bound));
    ASSERT_EQ(fast(), reference());
  }
}

TEST(RngOracle, NextBelowMatchesReferenceOnEdgeBounds) {
  constexpr std::uint64_t kTwo32 = 1ULL << 32;
  constexpr std::uint64_t kTwo63 = 1ULL << 63;
  // 2^63 + 1 rejects about half of all draws: the slow path runs often.
  for (const std::uint64_t bound :
       {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{3}, kTwo32 - 1,
        kTwo32, kTwo32 + 1, kTwo63, kTwo63 + 1,
        std::numeric_limits<std::uint64_t>::max()}) {
    ExpectNextBelowMatchesReference(bound ^ 0xB0D, bound, 2000);
  }
}

TEST(RngOracle, NextBelowMatchesReferenceOnSeededBounds) {
  Rng bounds(0xB0B0);
  for (int i = 0; i < 10000; ++i) {
    // Alternate small bounds (the placement draws) with full 64-bit ones.
    std::uint64_t bound =
        i % 2 == 0 ? 1 + bounds.NextBelow(1000) : bounds();
    if (bound == 0) bound = 1;
    ExpectNextBelowMatchesReference(bounds(), bound, 4);
  }
}

TEST(RngOracle, ShuffleMatchesReferenceShuffle) {
  for (const std::size_t size : {0, 1, 2, 3, 17, 100, 1000}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      std::vector<std::size_t> fast(size);
      for (std::size_t i = 0; i < size; ++i) fast[i] = i;
      std::vector<std::size_t> reference = fast;
      Rng fast_rng(seed * 7919);
      Rng reference_rng(seed * 7919);
      fast_rng.Shuffle(fast);
      ReferenceShuffle(reference_rng, reference);
      EXPECT_EQ(fast, reference);
      EXPECT_EQ(fast_rng(), reference_rng());
    }
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NextBoolRespectsExtremes) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.NextBool(0.0));
    EXPECT_TRUE(rng.NextBool(1.0));
  }
}

TEST(Rng, NextBoolRateIsPlausible) {
  Rng rng(13);
  int hits = 0;
  constexpr int kDraws = 10000;
  for (int i = 0; i < kDraws; ++i) hits += rng.NextBool(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kDraws, 0.3, 0.03);
}

TEST(Rng, NextWeightedHonorsZeroWeights) {
  Rng rng(17);
  const double weights[] = {0.0, 1.0, 0.0};
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(rng.NextWeighted(weights), 1u);
  }
}

TEST(Rng, NextWeightedRoughProportions) {
  Rng rng(19);
  const double weights[] = {1.0, 3.0};
  int second = 0;
  constexpr int kDraws = 10000;
  for (int i = 0; i < kDraws; ++i) {
    second += rng.NextWeighted(weights) == 1 ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(second) / kDraws, 0.75, 0.03);
}

TEST(Rng, ZipfIsSkewedTowardLowRanks) {
  Rng rng(23);
  constexpr std::size_t kN = 50;
  std::vector<int> counts(kN, 0);
  for (int i = 0; i < 20000; ++i) ++counts[rng.NextZipf(kN, 1.0)];
  EXPECT_GT(counts[0], counts[kN - 1] * 4);
}

TEST(Rng, ZipfZeroExponentIsUniformish) {
  Rng rng(29);
  constexpr std::size_t kN = 10;
  std::vector<int> counts(kN, 0);
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.NextZipf(kN, 0.0)];
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / kDraws, 0.1, 0.03);
  }
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng rng(31);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, HashStringIsStableAndDiscriminates) {
  EXPECT_EQ(HashString("gzip"), HashString("gzip"));
  EXPECT_NE(HashString("gzip"), HashString("gsm"));
  EXPECT_NE(HashString(""), HashString("a"));
}

// -------------------------------------------------------------- stats ----

TEST(Stats, MeanAndGeoMean) {
  const double values[] = {1.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(Mean(values), 7.0 / 3.0);
  EXPECT_NEAR(GeoMean(values), 2.0, 1e-12);
}

TEST(Stats, EmptyInputsGiveZero) {
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(GeoMean({}), 0.0);
}

TEST(Stats, GeoMeanClampsNonPositive) {
  const double values[] = {0.0, 1.0};
  EXPECT_GT(GeoMean(values, 1e-3), 0.0);
}

TEST(Stats, FormatFixedDigits) {
  EXPECT_EQ(FormatFixed(3.14159, 2), "3.14");
  EXPECT_EQ(FormatFixed(2.0, 0), "2");
}

// ---------------------------------------------------------------- csv ----

TEST(Csv, EscapesSeparatorsQuotesAndNewlines) {
  EXPECT_EQ(CsvEscape("plain"), "plain");
  EXPECT_EQ(CsvEscape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvEscape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvEscape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, WritesRows) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.WriteHeader({"name", "value"});
  writer.WriteRow({"x", "1"});
  writer.WriteRow({"with,comma", "2"});
  EXPECT_EQ(out.str(), "name,value\nx,1\n\"with,comma\",2\n");
  EXPECT_EQ(writer.rows_written(), 3u);
}

// -------------------------------------------------------------- table ----

TEST(Table, RendersAlignedColumns) {
  TextTable table;
  table.SetHeader({"name", "cost"});
  table.SetAlignments({Align::kLeft, Align::kRight});
  table.AddRow({"alpha", "1"});
  table.AddRow({"b", "1234"});
  const std::string rendered = table.Render();
  EXPECT_NE(rendered.find("alpha"), std::string::npos);
  EXPECT_NE(rendered.find("1234"), std::string::npos);
  // Right-aligned numeric column: the "1" of the first row is padded.
  EXPECT_NE(rendered.find("   1\n"), std::string::npos);
}

TEST(Table, PadsShortRows) {
  TextTable table;
  table.SetHeader({"a", "b", "c"});
  table.AddRow({"only"});
  EXPECT_NO_THROW({ const auto s = table.Render(); });
}

TEST(Table, EmptyTableRendersEmpty) {
  TextTable table;
  EXPECT_TRUE(table.Render().empty());
}

// ------------------------------------------------------------ strings ----

TEST(Strings, Trim) {
  EXPECT_EQ(Trim("  hi  "), "hi");
  EXPECT_EQ(Trim("hi"), "hi");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(Strings, SplitWhitespace) {
  std::vector<std::string_view> tokens;
  SplitWhitespace("  a  b\tc\nd\v\fe\r", tokens);
  EXPECT_EQ(tokens, (std::vector<std::string_view>{"a", "b", "c", "d", "e"}));
  SplitWhitespace("   ", tokens);  // clears what the last call left
  EXPECT_TRUE(tokens.empty());
}

TEST(Strings, AsciiSpaceMatchesIsspaceInTheCLocale) {
  for (int c = 0; c < 256; ++c) {
    EXPECT_EQ(IsAsciiSpace(static_cast<char>(c)), std::isspace(c) != 0) << c;
  }
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto fields = Split("a,,b", ',');
  EXPECT_EQ(fields, (std::vector<std::string>{"a", "", "b"}));
}

TEST(Strings, ToLowerAndStartsWith) {
  EXPECT_EQ(ToLower("DMA-SR"), "dma-sr");
  EXPECT_TRUE(StartsWith("dma-sr", "dma"));
  EXPECT_FALSE(StartsWith("dma", "dma-sr"));
}

// ----------------------------------------------------------- Registry ----

struct Widget {
  std::string label;
  [[nodiscard]] const std::string& Describe() const noexcept { return label; }
};

Registry<Widget>::Factory MakeWidget(std::string label) {
  return [label] { return std::make_shared<const Widget>(Widget{label}); };
}

TEST(Registry, FoldsCaseKeepsNamesSortedAndValidates) {
  Registry<Widget> registry;
  registry.Register("Zeta-2", MakeWidget("z"));
  registry.Register("alpha_1.x", MakeWidget("a"));
  EXPECT_EQ(registry.Names(),
            (std::vector<std::string>{"alpha_1.x", "zeta-2"}));
  EXPECT_TRUE(registry.Contains("ZETA-2"));
  EXPECT_EQ(registry.Describe("Alpha_1.X"), std::optional<std::string>("a"));
  EXPECT_EQ(registry.Describe("nope"), std::nullopt);
  EXPECT_EQ(registry.Find("nope"), nullptr);
  for (const char* bad : {"", "has space", "a|b", "a/b", "a(b)", "tab\t"}) {
    EXPECT_THROW(registry.Register(bad, MakeWidget("x")),
                 std::invalid_argument)
        << bad;
  }
  EXPECT_THROW(registry.Register("ok", nullptr), std::invalid_argument);
  EXPECT_THROW(registry.Register("zeta-2", MakeWidget("x")),
               std::invalid_argument);
  EXPECT_THROW(registry.Register("ZETA-2", MakeWidget("x")),
               std::invalid_argument);
  EXPECT_EQ(registry.size(), 2u);
}

TEST(Registry, NullInstancesAreAFactoryBug) {
  Registry<Widget> registry;
  registry.Register("broken", [] { return std::shared_ptr<const Widget>(); });
  EXPECT_TRUE(registry.Contains("broken"));
  EXPECT_THROW((void)registry.Find("broken"), std::logic_error);
}

TEST(Registry, ConcurrentFindsShareOneInstance) {
  Registry<Widget> registry;
  registry.Register("w", MakeWidget("w"));
  constexpr std::size_t kThreads = 8;
  std::vector<std::shared_ptr<const Widget>> seen(kThreads);
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      seen[t] = registry.Find(t % 2 == 0 ? "w" : "W");
    });
  }
  go.store(true);
  for (std::thread& thread : threads) thread.join();
  ASSERT_NE(seen.front(), nullptr);
  for (const auto& widget : seen) EXPECT_EQ(widget.get(), seen.front().get());
  EXPECT_EQ(registry.Find("w").get(), seen.front().get());
}

TEST(Registry, FactoriesMayReenterFindWithoutDeadlock) {
  Registry<Widget> registry;
  registry.Register("base", MakeWidget("base"));
  registry.Register("alias", [&registry] { return registry.Find("base"); });
  const auto alias = registry.Find("alias");
  ASSERT_NE(alias, nullptr);
  EXPECT_EQ(alias.get(), registry.Find("base").get());
  EXPECT_EQ(registry.Describe("alias"), std::optional<std::string>("base"));
}

}  // namespace
}  // namespace rtmp::util
