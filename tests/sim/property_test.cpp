// Model-based and invariant ("property") tests for the simulation
// engine, run over seeded random scenarios.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/ps_resource.hpp"
#include "sim/simulation.hpp"

namespace sf::sim {
namespace {

// ---- EventQueue vs. a reference model -----------------------------------

class EventQueueModelTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventQueueModelTest, MatchesMultimapReference) {
  Rng rng(GetParam());
  EventQueue queue;
  // Reference: (time, id) → alive, ordered exactly like the queue.
  std::multimap<std::pair<SimTime, EventId>, bool> model;
  std::vector<EventId> live_ids;

  std::vector<EventId> fired;
  std::vector<std::pair<SimTime, EventId>> expected;
  // About half the events share a few fixed instants (both spellings of
  // zero among them), so ties are scheduled, cancelled and popped too.
  const std::vector<SimTime> instants = {0.0, -0.0, 1.0, 50.0};

  for (int op = 0; op < 2000; ++op) {
    const double p = rng.uniform(0, 1);
    if (p < 0.6 || live_ids.empty()) {
      const SimTime t =
          rng.chance(0.5) ? rng.pick(instants) : rng.uniform(0, 100);
      EventId captured = 0;
      const EventId id = queue.schedule(t, [] {});
      captured = id;
      model.emplace(std::make_pair(t, captured), true);
      live_ids.push_back(captured);
    } else if (p < 0.8) {
      // Cancel a random live event.
      const std::size_t pick = rng.index(live_ids.size());
      const EventId id = live_ids[pick];
      const bool was_live = queue.cancel(id);
      bool model_live = false;
      for (auto& [key, alive] : model) {
        if (key.second == id && alive) {
          alive = false;
          model_live = true;
          break;
        }
      }
      EXPECT_EQ(was_live, model_live);
      live_ids.erase(live_ids.begin() + pick);
    } else if (!queue.empty()) {
      const auto event = queue.pop();
      fired.push_back(event.id);
      // Reference pop: earliest alive entry.
      auto it = model.begin();
      while (it != model.end() && !it->second) ++it;
      ASSERT_NE(it, model.end());
      expected.push_back(it->first);
      EXPECT_EQ(event.time, it->first.first);
      EXPECT_EQ(event.id, it->first.second);
      model.erase(model.begin(), std::next(it));
      std::erase(live_ids, event.id);
    }
  }
  // Drain both; order must agree to the end.
  while (!queue.empty()) {
    const auto event = queue.pop();
    auto it = model.begin();
    while (it != model.end() && !it->second) ++it;
    ASSERT_NE(it, model.end());
    EXPECT_EQ(event.id, it->first.second);
    model.erase(model.begin(), std::next(it));
  }
  for (const auto& [key, alive] : model) EXPECT_FALSE(alive);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueModelTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

// ---- EventQueue vs. the reference, in the shape Simulation drives it -----
//
// No schedule precedes the clock, and the clock is the last popped time or
// later (run_until moves it to an idle instant, and the queue refuses the
// next event there), so the queue never takes its below-the-base path.
// Delays are log-uniform from 1 µs to 600 s, so keys differ in low
// mantissa bits, in the exponent and across powers of two; about a quarter
// land on the clock itself, so instants are shared, including instants
// the queue has not popped yet, and a few one ulp after it.

class MonotoneEventQueueModelTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MonotoneEventQueueModelTest, MatchesMultimapReference) {
  Rng rng(GetParam());
  EventQueue queue;
  std::multimap<std::pair<SimTime, EventId>, bool> model;  // all alive
  SimTime now = 0;
  int ops = 0;
  int cancels = 0;

  const auto schedule_at = [&](SimTime t) {
    model.emplace(std::make_pair(t, queue.schedule(t, [] {})), true);
  };
  // A quarter at the clock, a few one ulp after it, the rest log-uniform.
  const auto later = [&] {
    const double p = rng.uniform(0, 1);
    if (p < 0.25) return now;
    if (p < 0.28) return std::nextafter(now, kTimeInfinity);
    return now + std::exp(rng.uniform(std::log(1e-6), std::log(600.0)));
  };
  const auto expect_next_time = [&] {
    EXPECT_EQ(queue.next_time(),
              model.empty() ? kTimeInfinity : model.begin()->first.first);
  };
  for (int i = 0; i < 128; ++i) schedule_at(later());

  while (now < 1e4) {
    // Scheduling outweighs popping below 128 pending, and the reverse
    // above, so the pending set hovers near 128.
    const double p = rng.uniform(0, 1);
    if (p < (model.size() < 128 ? 0.5 : 0.4) || model.empty()) {
      schedule_at(later());
    } else if (p < 0.9) {
      const auto event = queue.pop();
      ASSERT_FALSE(model.empty());
      EXPECT_EQ(event.time, model.begin()->first.first);
      EXPECT_EQ(event.id, model.begin()->first.second);
      model.erase(model.begin());
      now = event.time;
    } else if (p < 0.97) {
      // Cancel the earliest event, a near one or a far timer, then peek
      // and schedule at the clock, whose key may be the queue's base.
      auto victim = model.begin();
      switch (rng.index(3)) {
        case 1:
          victim = model.lower_bound({now + rng.uniform(0, 1), kNoEvent});
          break;
        case 2:
          victim = model.lower_bound({now + rng.uniform(60, 600), kNoEvent});
          break;
        default:
          break;
      }
      if (victim != model.end()) {
        EXPECT_TRUE(queue.cancel(victim->first.second));
        EXPECT_FALSE(queue.cancel(victim->first.second));
        model.erase(victim);
        ++cancels;
      }
      expect_next_time();
      schedule_at(now);
    } else if (!model.empty() && model.begin()->first.first > now) {
      // run_until to an idle instant: the clock passes the last pop
      // without reaching the next event, which is refused.
      expect_next_time();
      const SimTime next = model.begin()->first.first;
      now = std::min(rng.uniform(now, next), std::nextafter(next, 0.0));
      EXPECT_FALSE(queue.pop_until(now).has_value());
    }
    ASSERT_EQ(queue.size(), model.size());
    if (++ops % 256 == 0) {
      const auto faults = queue.self_check();
      ASSERT_TRUE(faults.empty()) << faults.front();
    }
  }
  EXPECT_GT(cancels, 100);
  while (!queue.empty()) {
    const auto event = queue.pop();
    ASSERT_FALSE(model.empty());
    EXPECT_EQ(event.id, model.begin()->first.second);
    model.erase(model.begin());
  }
  EXPECT_TRUE(model.empty());
  EXPECT_TRUE(queue.self_check().empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MonotoneEventQueueModelTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

// ---- PsResource invariants under random load -----------------------------

class PsPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PsPropertyTest, AllJobsCompleteAndThroughputIsConserved) {
  Simulation sim(GetParam());
  const double capacity = sim.rng().uniform(1.0, 16.0);
  PsResource cpu(sim, capacity);

  constexpr int kJobs = 60;
  double total_work = 0;
  int completed = 0;
  double last_completion = 0;
  double first_arrival = 1e300;

  for (int i = 0; i < kJobs; ++i) {
    const double arrival = sim.rng().uniform(0.0, 20.0);
    const double work = sim.rng().uniform(0.01, 5.0);
    const double cap = sim.rng().chance(0.5)
                           ? sim.rng().uniform(0.2, 2.0)
                           : PsResource::kNoCap;
    const double weight = sim.rng().uniform(0.5, 4.0);
    total_work += work;
    first_arrival = std::min(first_arrival, arrival);
    sim.call_at(arrival, [&, work, cap, weight] {
      cpu.submit(work,
                 [&] {
                   ++completed;
                   last_completion = sim.now();
                 },
                 cap, weight);
    });
  }
  sim.run();
  EXPECT_EQ(completed, kJobs);
  EXPECT_EQ(cpu.active_jobs(), 0u);
  // Throughput bound: the resource can never deliver more than
  // capacity × elapsed, so the last completion obeys the work bound.
  EXPECT_GE(last_completion - first_arrival,
            total_work / capacity - 1e-6);
}

TEST_P(PsPropertyTest, UtilizationNeverExceedsCapacityOrCaps) {
  Simulation sim(GetParam());
  const double capacity = 8.0;
  PsResource cpu(sim, capacity);
  std::vector<PsResource::JobId> ids;
  for (int i = 0; i < 24; ++i) {
    const double cap = sim.rng().uniform(0.25, 1.5);
    ids.push_back(cpu.submit(sim.rng().uniform(1.0, 10.0), [] {}, cap));
  }
  for (double t = 0.1; t < 10.0; t += 0.7) {
    sim.run_until(t);
    EXPECT_LE(cpu.utilization(), capacity + 1e-9);
    for (const auto id : ids) {
      const double rate = cpu.current_rate(id);
      if (rate >= 0) {
        EXPECT_LE(rate, 1.5 + 1e-9);
      }
    }
  }
  sim.run();
}

INSTANTIATE_TEST_SUITE_P(Seeds, PsPropertyTest,
                         ::testing::Values(7, 21, 99, 4242));

// ---- Equal jobs finish together (symmetry) --------------------------------

TEST(PsSymmetry, IdenticalJobsIdenticalFinish) {
  for (int n : {2, 5, 17}) {
    Simulation sim;
    PsResource cpu(sim, 3.0);
    std::vector<double> finishes;
    for (int i = 0; i < n; ++i) {
      cpu.submit(2.0, [&] { finishes.push_back(sim.now()); }, 1.0);
    }
    sim.run();
    ASSERT_EQ(finishes.size(), static_cast<std::size_t>(n));
    for (double f : finishes) EXPECT_DOUBLE_EQ(f, finishes.front());
  }
}

}  // namespace
}  // namespace sf::sim
