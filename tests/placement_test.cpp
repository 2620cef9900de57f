#include <gtest/gtest.h>

#include "core/placement.h"

namespace rtmp::core {
namespace {

using Ids = std::vector<VariableId>;

TEST(Placement, StartsEmpty) {
  const Placement p(5, 2);
  EXPECT_EQ(p.num_variables(), 5u);
  EXPECT_EQ(p.num_dbcs(), 2u);
  EXPECT_EQ(p.placed_count(), 0u);
  EXPECT_FALSE(p.IsComplete());
  EXPECT_FALSE(p.IsPlaced(0));
}

TEST(Placement, AppendAssignsDenseOffsets) {
  Placement p(4, 2);
  p.Append(0, 2);
  p.Append(0, 1);
  p.Append(1, 3);
  EXPECT_EQ(p.SlotOf(2), (Slot{0, 0}));
  EXPECT_EQ(p.SlotOf(1), (Slot{0, 1}));
  EXPECT_EQ(p.SlotOf(3), (Slot{1, 0}));
  p.CheckInvariants();
}

TEST(Placement, AppendRejectsDuplicatesAndBadIds) {
  Placement p(3, 2);
  p.Append(0, 0);
  EXPECT_THROW(p.Append(1, 0), std::invalid_argument);
  EXPECT_THROW(p.Append(0, 7), std::invalid_argument);
}

TEST(Placement, CapacityIsEnforced) {
  Placement p(4, 2, /*capacity=*/2);
  p.Append(0, 0);
  p.Append(0, 1);
  EXPECT_EQ(p.FreeIn(0), 0u);
  EXPECT_THROW(p.Append(0, 2), std::invalid_argument);
  p.Append(1, 2);
  EXPECT_EQ(p.FreeIn(1), 1u);
}

TEST(Placement, RemoveClosesGapsAndReindexes) {
  Placement p(4, 1);
  for (VariableId v = 0; v < 4; ++v) p.Append(0, v);
  p.Remove(1);
  EXPECT_FALSE(p.IsPlaced(1));
  EXPECT_EQ(p.SlotOf(2).offset, 1u);
  EXPECT_EQ(p.SlotOf(3).offset, 2u);
  p.CheckInvariants();
  EXPECT_THROW(p.Remove(1), std::logic_error);
}

TEST(Placement, MoveToEndRelocates) {
  Placement p(3, 2);
  p.Append(0, 0);
  p.Append(0, 1);
  p.Append(1, 2);
  p.MoveToEnd(0, 1);
  EXPECT_EQ(p.SlotOf(0), (Slot{1, 1}));
  EXPECT_EQ(p.SlotOf(1), (Slot{0, 0}));
  p.CheckInvariants();
}

TEST(Placement, MoveToEndWithinSameDbcMovesToBack) {
  Placement p(3, 1);
  for (VariableId v = 0; v < 3; ++v) p.Append(0, v);
  p.MoveToEnd(0, 0);
  EXPECT_EQ(p.dbc(0), (Ids{1, 2, 0}));
  p.CheckInvariants();
}

TEST(Placement, MoveToEndIntoFullDbcThrowsAndLeavesStateIntact) {
  Placement p(3, 2, /*capacity=*/2);
  p.Append(0, 0);
  p.Append(0, 1);  // DBC0 full
  p.Append(1, 2);
  EXPECT_THROW(p.MoveToEnd(2, 0), std::invalid_argument);
  // Strong exception safety: 2 must still be placed where it was.
  EXPECT_EQ(p.SlotOf(2), (Slot{1, 0}));
  p.CheckInvariants();
  // Moving an unplaced variable reports the placement error instead.
  Placement q(2, 2, 1);
  EXPECT_THROW(q.MoveToEnd(0, 1), std::logic_error);
  // Moving within a full DBC is always legal (v frees its own slot).
  p.MoveToEnd(0, 0);
  EXPECT_EQ(p.dbc(0), (Ids{1, 0}));
  p.CheckInvariants();
}

TEST(Placement, TransposeSwapsAndReindexes) {
  Placement p(4, 1);
  for (VariableId v = 0; v < 4; ++v) p.Append(0, v);
  p.Transpose(0, 1, 3);
  EXPECT_EQ(p.dbc(0), (Ids{0, 3, 2, 1}));
  EXPECT_EQ(p.SlotOf(3).offset, 1u);
  EXPECT_EQ(p.SlotOf(1).offset, 3u);
  p.CheckInvariants();
  EXPECT_THROW(p.Transpose(0, 0, 9), std::out_of_range);
}

TEST(Placement, ReorderRequiresPermutation) {
  Placement p(3, 1);
  for (VariableId v = 0; v < 3; ++v) p.Append(0, v);
  p.Reorder(0, Ids{2, 0, 1});
  EXPECT_EQ(p.SlotOf(2).offset, 0u);
  p.CheckInvariants();
  EXPECT_THROW(p.Reorder(0, Ids{0, 1}), std::invalid_argument);
  EXPECT_THROW(p.Reorder(0, Ids{0, 1, 1}), std::invalid_argument);
}

// Each rejected reorder must leave the placement untouched.
TEST(Placement, ReorderRejectsEveryNonPermutation) {
  Placement p = Placement::FromLists({{0, 1, 2}, {3, 4}}, 6);
  const Placement before = p;
  // Size mismatch, both ways.
  EXPECT_THROW(p.Reorder(0, Ids{0, 1}), std::invalid_argument);
  EXPECT_THROW(p.Reorder(0, Ids{0, 1, 2, 3}), std::invalid_argument);
  // Duplicate id (right size, one member missing).
  EXPECT_THROW(p.Reorder(0, Ids{2, 2, 0}), std::invalid_argument);
  // A variable placed in another DBC.
  EXPECT_THROW(p.Reorder(0, Ids{0, 1, 3}), std::invalid_argument);
  // An unplaced variable and an out-of-range id.
  EXPECT_THROW(p.Reorder(0, Ids{0, 1, 5}), std::invalid_argument);
  EXPECT_THROW(p.Reorder(0, Ids{0, 1, 99}), std::invalid_argument);
  // An out-of-range DBC.
  EXPECT_THROW(p.Reorder(7, Ids{0, 1, 2}), std::out_of_range);
  // A repeat found after other entries were checked.
  try {
    p.Reorder(0, Ids{1, 0, 1});
    ADD_FAILURE() << "a repeated id was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "Placement: reorder is not a permutation");
  }
  EXPECT_EQ(p, before);
  p.CheckInvariants();

  p.Reorder(1, Ids{4, 3});
  EXPECT_EQ(p.SlotOf(4), (Slot{1, 0}));
  EXPECT_EQ(p.SlotOf(3), (Slot{1, 1}));
  p.CheckInvariants();
}

TEST(Placement, FromListsBuildsAndValidates) {
  const Placement p =
      Placement::FromLists({{2, 0}, {1}}, /*num_variables=*/3);
  EXPECT_TRUE(p.IsComplete());
  EXPECT_EQ(p.SlotOf(2), (Slot{0, 0}));
  EXPECT_EQ(p.SlotOf(1), (Slot{1, 0}));
  EXPECT_THROW(Placement::FromLists({{0}, {0}}, 1), std::invalid_argument);
  EXPECT_THROW(Placement::FromLists({{5}}, 2), std::invalid_argument);
  EXPECT_THROW(Placement::FromLists({{0, 1, 2}}, 3, 2),
               std::invalid_argument);
}

TEST(Placement, PartialPlacementsAreAllowed) {
  const Placement p = Placement::FromLists({{1}, {}}, 3);
  EXPECT_FALSE(p.IsComplete());
  EXPECT_EQ(p.placed_count(), 1u);
  EXPECT_THROW((void)p.SlotOf(0), std::logic_error);
}

TEST(Placement, ConstructionRejectsDegenerateShapes) {
  EXPECT_THROW(Placement(1, 0), std::invalid_argument);
  EXPECT_THROW(Placement(1, 1, 0), std::invalid_argument);
}

TEST(Placement, EqualityComparesListsAndCapacity) {
  const Placement a = Placement::FromLists({{0, 1}}, 2);
  const Placement b = Placement::FromLists({{0, 1}}, 2);
  const Placement c = Placement::FromLists({{1, 0}}, 2);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(Placement, UnboundedCapacityReportsUnbounded) {
  const Placement p(2, 1);
  EXPECT_EQ(p.FreeIn(0), kUnboundedCapacity);
}

}  // namespace
}  // namespace rtmp::core
