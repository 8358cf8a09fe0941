#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

namespace sf::sim {
namespace {

TEST(Simulation, ClockAdvancesToEventTime) {
  Simulation sim;
  double seen = -1;
  sim.call_at(4.5, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(seen, 4.5);
  EXPECT_DOUBLE_EQ(sim.now(), 4.5);
}

TEST(Simulation, CallInIsRelative) {
  Simulation sim;
  std::vector<double> times;
  sim.call_at(2.0, [&] {
    sim.call_in(3.0, [&] { times.push_back(sim.now()); });
  });
  sim.run();
  ASSERT_EQ(times.size(), 1u);
  EXPECT_DOUBLE_EQ(times[0], 5.0);
}

TEST(Simulation, PastSchedulingThrows) {
  Simulation sim;
  sim.call_at(10.0, [] {});
  sim.run();
  EXPECT_THROW(sim.call_at(5.0, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.call_in(-1.0, [] {}), std::invalid_argument);
}

TEST(Simulation, NaNTimesThrow) {
  Simulation sim;
  const double nan = std::nan("");
  EXPECT_THROW(sim.call_at(nan, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.call_in(nan, [] {}), std::invalid_argument);
  sim.call_at(10.0, [] {});
  sim.run();
  EXPECT_THROW(sim.call_at(nan, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.call_in(-nan, [] {}), std::invalid_argument);
  EXPECT_FALSE(sim.has_pending_events());
}

TEST(Simulation, EventAtInfinityNeverFires) {
  Simulation sim;
  int fired = 0;
  sim.call_at(kTimeInfinity, [&] { fired += 100; });
  sim.call_in(kTimeInfinity, [&] { fired += 100; });
  sim.call_at(2.0, [&] { ++fired; });
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(sim.run(), 0u);
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.has_pending_events());
  EXPECT_EQ(sim.next_event_time(), kTimeInfinity);
}

TEST(Simulation, ScheduleAfterIdleRunUntilKeepsOrder) {
  // run_until stops short of the next event and moves the clock; events
  // scheduled between the clock and that event fire first, same-instant
  // ones FIFO.
  Simulation sim;
  std::vector<int> order;
  sim.call_at(10.0, [&] { order.push_back(10); });
  sim.call_at(20.0, [&] { order.push_back(20); });
  sim.run_until(15.0);
  EXPECT_DOUBLE_EQ(sim.now(), 15.0);
  sim.call_at(16.0, [&] { order.push_back(16); });
  sim.call_in(0.0, [&] { order.push_back(15); });
  sim.call_at(15.0, [&] { order.push_back(151); });
  EXPECT_DOUBLE_EQ(sim.next_event_time(), 15.0);
  EXPECT_TRUE(sim.self_check().empty());
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{10, 15, 151, 16, 20}));
  EXPECT_TRUE(sim.self_check().empty());
}

TEST(Simulation, RunReturnsEventCount) {
  Simulation sim;
  for (int i = 0; i < 7; ++i) sim.call_at(i, [] {});
  EXPECT_EQ(sim.run(), 7u);
  EXPECT_EQ(sim.events_processed(), 7u);
}

TEST(Simulation, RunUntilStopsAtBoundaryInclusive) {
  Simulation sim;
  int fired = 0;
  sim.call_at(1.0, [&] { ++fired; });
  sim.call_at(2.0, [&] { ++fired; });
  sim.call_at(3.0, [&] { ++fired; });
  sim.run_until(2.0);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  sim.run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulation, RunUntilAdvancesClockWhenIdle) {
  Simulation sim;
  sim.run_until(42.0);
  EXPECT_DOUBLE_EQ(sim.now(), 42.0);
}

TEST(Simulation, StopHaltsRun) {
  Simulation sim;
  int fired = 0;
  sim.call_at(1.0, [&] {
    ++fired;
    sim.stop();
  });
  sim.call_at(2.0, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  // A fresh run resumes the remaining events.
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, CancelledEventsDoNotRun) {
  Simulation sim;
  int fired = 0;
  const EventId id = sim.call_at(1.0, [&] { ++fired; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(Simulation, EventsScheduledFromCallbacksRun) {
  Simulation sim;
  std::vector<int> order;
  sim.call_at(1.0, [&] {
    order.push_back(1);
    sim.call_in(0.0, [&] { order.push_back(2); });
    sim.call_at(sim.now(), [&] { order.push_back(3); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulation, DeterministicRngAcrossRuns) {
  Simulation a(123);
  Simulation b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.rng().uniform(0, 1), b.rng().uniform(0, 1));
  }
}

TEST(Simulation, TraceRecordsWhenEnabled) {
  Simulation sim;
  sim.trace().set_enabled(true);
  sim.call_at(1.5, [&] {
    sim.trace().record(sim.now(), "test", "tick", {{"k", "v"}});
  });
  sim.run();
  ASSERT_EQ(sim.trace().size(), 1u);
  EXPECT_DOUBLE_EQ(sim.trace().event(0).time(), 1.5);
  EXPECT_EQ(sim.trace().event(0).attr("k"), "v");
}

TEST(Simulation, TraceDisabledByDefault) {
  Simulation sim;
  sim.trace().record(0, "test", "tick");
  EXPECT_TRUE(sim.trace().empty());
}

}  // namespace
}  // namespace sf::sim
