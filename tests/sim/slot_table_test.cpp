#include "sim/slot_table.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

namespace sf::sim {
namespace {

using Table = SlotTable<std::string>;

// The live values in slot order, the order for_each() visits them.
std::vector<std::string> values(const Table& t) {
  std::vector<std::string> out;
  t.for_each([&](Table::Id, const std::string& v) { out.push_back(v); });
  return out;
}

TEST(SlotTable, IdsStrictlyIncreaseAcrossSlotReuse) {
  Table t;
  Table::Id last = 0;
  for (int round = 0; round < 4; ++round) {
    const Table::Id a = t.insert("a");
    const Table::Id b = t.insert("b");
    EXPECT_GT(a, last);
    EXPECT_GT(b, a);
    t.take(a);
    t.take(b);
    last = b;
  }
  EXPECT_EQ(t.issued(), 8u);
  EXPECT_EQ(t.size(), 0u);
}

TEST(SlotTable, FreedSlotIsReusedBeforeTheTableGrows) {
  Table t;
  const Table::Id a = t.insert("a");
  const Table::Id b = t.insert("b");
  const Table::Id c = t.insert("c");
  t.take(b);
  t.insert("d");  // b's slot, between a and c
  EXPECT_EQ(values(t), (std::vector<std::string>{"a", "d", "c"}));
  // The free list is LIFO: the last slot freed is the first reused.
  t.take(a);
  t.take(c);
  t.insert("e");  // c's slot
  t.insert("f");  // a's slot
  EXPECT_EQ(values(t), (std::vector<std::string>{"f", "d", "e"}));
  t.insert("g");  // no free slot left: the table grows
  EXPECT_EQ(values(t), (std::vector<std::string>{"f", "d", "e", "g"}));
}

TEST(SlotTable, FindRefusesFreedAndReusedIds) {
  Table t;
  const Table::Id a = t.insert("a");
  ASSERT_NE(t.find(a), nullptr);
  EXPECT_EQ(*t.find(a), "a");
  t.take(a);
  EXPECT_EQ(t.find(a), nullptr);
  EXPECT_FALSE(t.live(a));
  const Table::Id b = t.insert("b");  // a's slot
  EXPECT_EQ(values(t), (std::vector<std::string>{"b"}));
  EXPECT_EQ(t.find(a), nullptr);
  EXPECT_FALSE(t.live(a));
  ASSERT_NE(t.find(b), nullptr);
  EXPECT_EQ(*t.find(b), "b");
  EXPECT_TRUE(t.live(b));
}

TEST(SlotTable, FindRefusesNeverIssuedIds) {
  Table t;
  EXPECT_EQ(t.find(0), nullptr);
  const Table::Id a = t.insert("a");
  EXPECT_EQ(t.find(0), nullptr);
  EXPECT_EQ(t.find(a + 1), nullptr);
  EXPECT_EQ(t.find(~Table::Id{0}), nullptr);
}

TEST(SlotTable, TakeMovesTheValueOut) {
  SlotTable<std::unique_ptr<int>> t;
  const auto id = t.insert(std::make_unique<int>(42));
  std::unique_ptr<int> out = t.take(id);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(*out, 42);
  EXPECT_EQ(t.find(id), nullptr);
  EXPECT_EQ(t.size(), 0u);
}

TEST(SlotTable, DetachedIdsAreRefusedAndConsumeASequenceNumber) {
  Table t;
  const Table::Id a = t.insert("a");
  const Table::Id d = t.detached();
  EXPECT_GT(d, a);
  EXPECT_EQ(t.find(d), nullptr);
  EXPECT_EQ(t.issued(), 2u);
  EXPECT_EQ(t.size(), 1u);
  const Table::Id b = t.insert("b");
  EXPECT_GT(b, d);
  EXPECT_EQ(t.issued(), 3u);
  EXPECT_EQ(t.find(d), nullptr);
}

}  // namespace
}  // namespace sf::sim
