// sim::for_each_async: step order, early exit, the empty loop, ownership
// (finished and abandoned loops free their captures) and the promise that
// the loop adds no engine events of its own.

#include "sim/async.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulation.hpp"

namespace sf::sim {
namespace {

/// Keeps `live` equal to the number of its copies still alive: captures
/// are copied and moved around, and every copy must be destroyed.
struct Sentinel {
  explicit Sentinel(int& live) : live_(&live) { ++*live_; }
  Sentinel(const Sentinel& other) : live_(other.live_) { ++*live_; }
  Sentinel& operator=(const Sentinel&) = delete;
  ~Sentinel() { --*live_; }
  int* live_;
};

TEST(ForEachAsync, StepsRunInOrderEachAfterThePreviousFinishes) {
  Simulation sim;
  std::vector<std::string> log;
  bool finished = false;
  for_each_async(
      3,
      [&](std::size_t i, AsyncNext next) {
        log.push_back("start " + std::to_string(i) + " @" +
                      std::to_string(static_cast<int>(sim.now())));
        sim.call_in(1.0, [&log, i, next = std::move(next)] {
          log.push_back("end " + std::to_string(i));
          next(true);
        });
      },
      [&](bool ok) {
        EXPECT_TRUE(ok);
        finished = true;
      });
  EXPECT_EQ(log, (std::vector<std::string>{"start 0 @0"}));
  sim.run();
  EXPECT_TRUE(finished);
  EXPECT_EQ(log, (std::vector<std::string>{"start 0 @0", "end 0", "start 1 @1",
                                           "end 1", "start 2 @2", "end 2"}));
}

TEST(ForEachAsync, FirstFailureEndsTheLoopOnce) {
  Simulation sim;
  std::vector<std::size_t> started;
  int done_calls = 0;
  bool result = true;
  for_each_async(
      5,
      [&](std::size_t i, AsyncNext next) {
        started.push_back(i);
        sim.call_in(1.0, [i, next = std::move(next)] { next(i != 1); });
      },
      [&](bool ok) {
        ++done_calls;
        result = ok;
      });
  sim.run();
  EXPECT_EQ(done_calls, 1);
  EXPECT_FALSE(result);
  EXPECT_EQ(started, (std::vector<std::size_t>{0, 1}));
}

TEST(ForEachAsync, EmptyLoopFinishesAtOnceWithoutStepping) {
  int steps = 0;
  int done_calls = 0;
  for_each_async(
      0, [&](std::size_t, AsyncNext) { ++steps; },
      [&](bool ok) {
        EXPECT_TRUE(ok);
        ++done_calls;
      });
  EXPECT_EQ(done_calls, 1);
  EXPECT_EQ(steps, 0);
}

TEST(ForEachAsync, FinishedLoopFreesItsCaptures) {
  Simulation sim;
  int live = 0;
  bool finished = false;
  {
    Sentinel in_step{live};
    Sentinel in_done{live};
    for_each_async(
        4,
        [&sim, in_step](std::size_t, AsyncNext next) {
          sim.call_in(1.0, [next = std::move(next)] { next(true); });
        },
        [&finished, in_done](bool ok) { finished = ok; });
  }
  EXPECT_EQ(live, 2);  // the pending step's `next` owns the loop
  sim.run();
  EXPECT_TRUE(finished);
  EXPECT_EQ(live, 0);
}

TEST(ForEachAsync, AbandonedLoopFreesItsCaptures) {
  // Abandoned inside for_each_async itself (step 0) and from a later
  // step's continuation (step 2).
  for (const std::size_t abandon_at : {std::size_t{0}, std::size_t{2}}) {
    Simulation sim;
    int live = 0;
    bool done_called = false;
    {
      Sentinel in_step{live};
      Sentinel in_done{live};
      for_each_async(
          4,
          [&sim, in_step, abandon_at](std::size_t i, AsyncNext next) {
            // Dropping `next` is what a transfer of a dead attempt does.
            if (i == abandon_at) return;
            sim.call_in(1.0, [next = std::move(next)] { next(true); });
          },
          [&done_called, in_done](bool) { done_called = true; });
    }
    sim.run();
    EXPECT_FALSE(done_called) << abandon_at;
    EXPECT_EQ(live, 0) << abandon_at;
  }
}

TEST(ForEachAsync, SchedulesNoEventsOfItsOwn) {
  Simulation sim;
  bool finished = false;
  for_each_async(
      6,
      [&sim](std::size_t, AsyncNext next) {
        sim.call_in(0.5, [next = std::move(next)] { next(true); });
      },
      [&](bool ok) { finished = ok; });
  sim.run();
  EXPECT_TRUE(finished);
  EXPECT_EQ(sim.events_processed(), 6u);  // one call_in per step, no more
}

}  // namespace
}  // namespace sf::sim
