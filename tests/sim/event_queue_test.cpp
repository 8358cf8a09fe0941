#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

namespace sf::sim {
namespace {

TEST(EventQueue, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.next_time(), kTimeInfinity);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(3.0, [&] { order.push_back(3); });
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(2.0, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTimeIsFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5.0, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, NextTimeTracksEarliest) {
  EventQueue q;
  q.schedule(7.0, [] {});
  EXPECT_DOUBLE_EQ(q.next_time(), 7.0);
  q.schedule(2.5, [] {});
  EXPECT_DOUBLE_EQ(q.next_time(), 2.5);
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.schedule(1.0, [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelTwiceReturnsFalse) {
  EventQueue q;
  const EventId id = q.schedule(1.0, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelUnknownIdReturnsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(12345));
}

TEST(EventQueue, CancelledEventSkippedAtTop) {
  EventQueue q;
  std::vector<int> order;
  const EventId early = q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(2.0, [&] { order.push_back(2); });
  q.cancel(early);
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
  auto fired = q.pop();
  EXPECT_DOUBLE_EQ(fired.time, 2.0);
  fired.fn();
  EXPECT_EQ(order, (std::vector<int>{2}));
}

TEST(EventQueue, SizeExcludesCancelled) {
  EventQueue q;
  const EventId a = q.schedule(1.0, [] {});
  q.schedule(2.0, [] {});
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, IdsAreUniqueAndIncreasing) {
  EventQueue q;
  const EventId a = q.schedule(1.0, [] {});
  const EventId b = q.schedule(1.0, [] {});
  EXPECT_LT(a, b);
  EXPECT_NE(a, kNoEvent);
}

TEST(EventQueue, ManyInterleavedSchedulesAndCancels) {
  EventQueue q;
  std::vector<EventId> ids;
  int fired = 0;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(q.schedule(static_cast<double>(i % 10), [&] { ++fired; }));
  }
  for (std::size_t i = 0; i < ids.size(); i += 2) q.cancel(ids[i]);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, 50);
}

TEST(EventQueue, TotalScheduledCountsEverySchedule) {
  EventQueue q;
  EXPECT_EQ(q.total_scheduled(), 0u);
  const EventId a = q.schedule(1.0, [] {});
  q.schedule(2.0, [] {});
  EXPECT_EQ(q.total_scheduled(), 2u);
  q.cancel(a);  // cancellation must not lower the lifetime count
  EXPECT_EQ(q.total_scheduled(), 2u);
  q.pop();
  EXPECT_EQ(q.total_scheduled(), 2u);
  q.schedule(3.0, [] {});  // slot reuse must still count up
  EXPECT_EQ(q.total_scheduled(), 3u);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, CancelHalfPreservesFiringOrderAndCounts) {
  // Schedule N events across a few clustered instants, cancel a
  // deterministic half, and verify the survivors fire in exact
  // (time, schedule-order) sequence while size()/empty() stay consistent.
  constexpr int kN = 400;
  EventQueue q;
  std::vector<EventId> ids;
  std::vector<int> expected;
  std::vector<int> fired;
  ids.reserve(kN);
  for (int i = 0; i < kN; ++i) {
    const double t = static_cast<double>(i % 7);
    ids.push_back(q.schedule(t, [&fired, i] { fired.push_back(i); }));
  }
  EXPECT_EQ(q.size(), static_cast<std::size_t>(kN));
  int cancelled = 0;
  for (int i = 0; i < kN; i += 2) {
    EXPECT_TRUE(q.cancel(ids[static_cast<std::size_t>(i)]));
    ++cancelled;
  }
  EXPECT_EQ(q.size(), static_cast<std::size_t>(kN - cancelled));
  // Survivors ordered by (time, insertion order): odd i, keyed by i % 7
  // then i — the same FIFO-by-id rule schedule() promises.
  for (int t = 0; t < 7; ++t) {
    for (int i = 1; i < kN; i += 2) {
      if (i % 7 == t) expected.push_back(i);
    }
  }
  double last_time = -1.0;
  while (!q.empty()) {
    auto ev = q.pop();
    EXPECT_GE(ev.time, last_time);
    last_time = ev.time;
    ev.fn();
  }
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(q.total_scheduled(), static_cast<std::uint64_t>(kN));
}

TEST(EventQueue, CancelLastEventOfInstantThenReuseInstant) {
  // Cancelling the sole event of an instant empties it; scheduling the same
  // time again must fire the new events in order, not resurrect the old.
  EventQueue q;
  int fired = 0;
  const EventId a = q.schedule(5.0, [&] { fired += 1; });
  EXPECT_TRUE(q.cancel(a));
  EXPECT_TRUE(q.empty());
  q.schedule(5.0, [&] { fired += 10; });
  q.schedule(5.0, [&] { fired += 100; });
  EXPECT_EQ(q.size(), 2u);
  EXPECT_DOUBLE_EQ(q.next_time(), 5.0);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, 110);
}

TEST(EventQueue, NegativeZeroAndPositiveZeroShareAnInstant) {
  // -0.0 == 0.0, so FIFO order must hold across the two spellings.
  EventQueue q;
  std::vector<int> order;
  q.schedule(0.0, [&] { order.push_back(1); });
  q.schedule(-0.0, [&] { order.push_back(2); });
  q.schedule(0.0, [&] { order.push_back(3); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, StressManyInstantsWithInterleavedCancellation) {
  // Enough churn to grow the slot table and recycle slots repeatedly.
  EventQueue q;
  std::vector<EventId> pending;
  std::uint64_t scheduled = 0;
  int fired = 0;
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 300; ++i) {
      pending.push_back(q.schedule(static_cast<double>((round * 300 + i) % 13),
                                   [&] { ++fired; }));
      ++scheduled;
    }
    for (std::size_t i = round % 3; i < pending.size(); i += 3) {
      q.cancel(pending[i]);  // some ids are already fired/cancelled: fine
    }
    while (q.size() > 100) q.pop().fn();
    pending.erase(pending.begin(),
                  pending.begin() +
                      static_cast<std::ptrdiff_t>(pending.size() / 2));
  }
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(q.total_scheduled(), scheduled);
  EXPECT_GT(fired, 0);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, ScheduleBeforeLastPopKeepsTimeIdOrder) {
  // A standalone queue may schedule before the time it last popped; the
  // pending events, a cancelled one among them, are then re-filed and
  // every later pop still follows (time, id).
  EventQueue q;
  std::vector<int> order;
  q.schedule(10.0, [&] { order.push_back(10); });
  q.schedule(20.0, [&] { order.push_back(20); });
  q.schedule(30.0, [&] { order.push_back(30); });
  const EventId doomed = q.schedule(25.0, [&] { order.push_back(25); });
  q.schedule(10.0, [&] { order.push_back(11); });
  q.pop().fn();  // 10.0: the base is now 10.0, with 11 still due there
  EXPECT_TRUE(q.cancel(doomed));
  q.schedule(5.0, [&] { order.push_back(5); });
  q.schedule(5.0, [&] { order.push_back(6); });
  q.schedule(20.0, [&] { order.push_back(21); });
  q.schedule(15.0, [&] { order.push_back(15); });
  EXPECT_TRUE(q.self_check().empty());
  EXPECT_DOUBLE_EQ(q.next_time(), 5.0);
  auto first = q.pop();
  EXPECT_DOUBLE_EQ(first.time, 5.0);
  first.fn();
  q.schedule(1.0, [&] { order.push_back(1); });  // below the base again
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{10, 5, 1, 6, 11, 15, 20, 21, 30}));
  EXPECT_TRUE(q.self_check().empty());
}

TEST(EventQueue, PopUntilTakesOnlyDueEvents) {
  EventQueue q;
  q.schedule(1.0, [] {});
  const EventId later = q.schedule(4.0, [] {});
  auto due = q.pop_until(2.0);
  ASSERT_TRUE(due.has_value());
  EXPECT_DOUBLE_EQ(due->time, 1.0);
  EXPECT_FALSE(q.pop_until(2.0).has_value());
  EXPECT_FALSE(q.pop_until(std::nan("")).has_value());
  EXPECT_EQ(q.size(), 1u);
  // A refused pop leaves the earlier instants open: 3.0 lies between the
  // last pop and the pending event, and fires first.
  q.schedule(3.0, [] {});
  auto next = q.pop_until(kTimeInfinity);
  ASSERT_TRUE(next.has_value());
  EXPECT_DOUBLE_EQ(next->time, 3.0);
  next = q.pop_until(4.0);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->id, later);
  EXPECT_FALSE(q.pop_until(kTimeInfinity).has_value());
  EXPECT_TRUE(q.self_check().empty());
}

TEST(EventQueue, EventAtInfinityPopsLast) {
  EventQueue q;
  const EventId inf = q.schedule(kTimeInfinity, [] {});
  q.schedule(1e300, [] {});
  EXPECT_DOUBLE_EQ(q.pop().time, 1e300);
  EXPECT_FALSE(q.pop_until(std::numeric_limits<double>::max()).has_value());
  EXPECT_EQ(q.next_time(), kTimeInfinity);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.pop().id, inf);
}

TEST(EventQueue, CancelRefusesAnIdWhoseSlotWasReused) {
  EventQueue q;
  const EventId stale = q.schedule(1.0, [] {});
  ASSERT_TRUE(q.cancel(stale));
  bool fired = false;
  const EventId fresh = q.schedule(2.0, [&] { fired = true; });
  EXPECT_FALSE(q.cancel(stale));
  EXPECT_EQ(q.size(), 1u);
  auto next = q.pop();
  EXPECT_EQ(next.id, fresh);
  next.fn();
  EXPECT_TRUE(fired);
}

}  // namespace
}  // namespace sf::sim
