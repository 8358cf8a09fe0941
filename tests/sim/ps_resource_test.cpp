#include "sim/ps_resource.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "sim/simulation.hpp"

namespace sf::sim {
namespace {

TEST(PsResource, SingleJobRunsAtCap) {
  Simulation sim;
  PsResource cpu(sim, 8.0);
  double done_at = -1;
  cpu.submit(2.0, [&] { done_at = sim.now(); }, /*rate_cap=*/1.0);
  sim.run();
  // 2 core-seconds at 1 core → 2 s even though 8 cores are free.
  EXPECT_NEAR(done_at, 2.0, 1e-9);
}

TEST(PsResource, UncappedJobUsesFullCapacity) {
  Simulation sim;
  PsResource cpu(sim, 4.0);
  double done_at = -1;
  cpu.submit(8.0, [&] { done_at = sim.now(); });
  sim.run();
  EXPECT_NEAR(done_at, 2.0, 1e-9);
}

TEST(PsResource, TwoJobsFairShare) {
  Simulation sim;
  PsResource nic(sim, 100.0);  // e.g. 100 B/s
  std::vector<double> done;
  nic.submit(100.0, [&] { done.push_back(sim.now()); });
  nic.submit(100.0, [&] { done.push_back(sim.now()); });
  sim.run();
  // Each gets 50 B/s → both complete at t=2.
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0], 2.0, 1e-9);
  EXPECT_NEAR(done[1], 2.0, 1e-9);
}

TEST(PsResource, ContentionSlowsCompletion) {
  // Two single-threaded tasks on one core: each takes twice as long.
  Simulation sim;
  PsResource cpu(sim, 1.0);
  std::vector<double> done;
  cpu.submit(1.0, [&] { done.push_back(sim.now()); }, 1.0);
  cpu.submit(1.0, [&] { done.push_back(sim.now()); }, 1.0);
  sim.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0], 2.0, 1e-9);
}

TEST(PsResource, NoContentionBelowCoreCount) {
  // Two single-threaded tasks on 8 cores: no slowdown.
  Simulation sim;
  PsResource cpu(sim, 8.0);
  std::vector<double> done;
  cpu.submit(3.0, [&] { done.push_back(sim.now()); }, 1.0);
  cpu.submit(3.0, [&] { done.push_back(sim.now()); }, 1.0);
  sim.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0], 3.0, 1e-9);
  EXPECT_NEAR(done[1], 3.0, 1e-9);
}

TEST(PsResource, WeightsSkewShares) {
  Simulation sim;
  PsResource cpu(sim, 3.0);
  std::vector<std::pair<int, double>> done;
  cpu.submit(2.0, [&] { done.emplace_back(1, sim.now()); },
             PsResource::kNoCap, /*weight=*/2.0);
  cpu.submit(1.0, [&] { done.emplace_back(2, sim.now()); },
             PsResource::kNoCap, /*weight=*/1.0);
  // Rates: 2 and 1 → both finish at t=1.
  sim.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0].second, 1.0, 1e-9);
  EXPECT_NEAR(done[1].second, 1.0, 1e-9);
}

TEST(PsResource, CapRedistributesToOthers) {
  Simulation sim;
  PsResource cpu(sim, 4.0);
  double slow_done = -1;
  double fast_done = -1;
  // Job A capped at 1 core; job B uncapped gets the remaining 3.
  cpu.submit(2.0, [&] { slow_done = sim.now(); }, 1.0);
  cpu.submit(6.0, [&] { fast_done = sim.now(); });
  sim.run();
  EXPECT_NEAR(slow_done, 2.0, 1e-9);
  EXPECT_NEAR(fast_done, 2.0, 1e-9);
}

TEST(PsResource, LateArrivalRebalances) {
  Simulation sim;
  PsResource cpu(sim, 1.0);
  std::vector<double> done;
  cpu.submit(1.0, [&] { done.push_back(sim.now()); }, 1.0);
  sim.call_at(0.5, [&] {
    cpu.submit(0.5, [&] { done.push_back(sim.now()); }, 1.0);
  });
  sim.run();
  // First job: 0.5 work done by t=0.5, then shares; finishes at 1.5.
  // Second: 0.5 work at 0.5 rate → also 1.5.
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0], 1.5, 1e-9);
  EXPECT_NEAR(done[1], 1.5, 1e-9);
}

TEST(PsResource, DepartureSpeedsUpRemaining) {
  Simulation sim;
  PsResource cpu(sim, 1.0);
  std::vector<double> done;
  cpu.submit(0.5, [&] { done.push_back(sim.now()); }, 1.0);
  cpu.submit(1.0, [&] { done.push_back(sim.now()); }, 1.0);
  sim.run();
  // Shared until t=1 (first finishes, 0.5 each done), then second runs
  // alone: 0.5 remaining at rate 1 → t=1.5.
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0], 1.0, 1e-9);
  EXPECT_NEAR(done[1], 1.5, 1e-9);
}

TEST(PsResource, CancelRemovesJob) {
  Simulation sim;
  PsResource cpu(sim, 1.0);
  bool cancelled_ran = false;
  double done_at = -1;
  const auto id = cpu.submit(10.0, [&] { cancelled_ran = true; }, 1.0);
  cpu.submit(1.0, [&] { done_at = sim.now(); }, 1.0);
  sim.call_at(0.5, [&] { EXPECT_TRUE(cpu.cancel(id)); });
  sim.run();
  EXPECT_FALSE(cancelled_ran);
  // Shared 0.5 s (0.25 done), then full rate: 0.75 more → t=1.25.
  EXPECT_NEAR(done_at, 1.25, 1e-9);
}

TEST(PsResource, CancelUnknownReturnsFalse) {
  Simulation sim;
  PsResource cpu(sim, 1.0);
  EXPECT_FALSE(cpu.cancel(999));
}

TEST(PsResource, SetRateCapMidFlight) {
  Simulation sim;
  PsResource cpu(sim, 4.0);
  double done_at = -1;
  const auto id = cpu.submit(4.0, [&] { done_at = sim.now(); }, 4.0);
  sim.call_at(0.5, [&] { EXPECT_TRUE(cpu.set_rate_cap(id, 1.0)); });
  sim.run();
  // 2 core-s done by 0.5, then 2 more at rate 1 → t=2.5.
  EXPECT_NEAR(done_at, 2.5, 1e-9);
}

TEST(PsResource, ZeroCapPausesJob) {
  Simulation sim;
  PsResource cpu(sim, 1.0);
  double done_at = -1;
  const auto id = cpu.submit(1.0, [&] { done_at = sim.now(); }, 0.0);
  sim.call_at(5.0, [&] { cpu.set_rate_cap(id, 1.0); });
  sim.run();
  EXPECT_NEAR(done_at, 6.0, 1e-9);
}

TEST(PsResource, ZeroWorkCompletesImmediately) {
  Simulation sim;
  PsResource cpu(sim, 1.0);
  double done_at = -1;
  cpu.submit(0.0, [&] { done_at = sim.now(); }, 1.0);
  sim.run();
  EXPECT_NEAR(done_at, 0.0, 1e-12);
}

TEST(PsResource, CompletionCallbackMaySubmit) {
  Simulation sim;
  PsResource cpu(sim, 1.0);
  std::vector<double> done;
  cpu.submit(1.0, [&] {
    done.push_back(sim.now());
    cpu.submit(1.0, [&] { done.push_back(sim.now()); }, 1.0);
  }, 1.0);
  sim.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0], 1.0, 1e-9);
  EXPECT_NEAR(done[1], 2.0, 1e-9);
}

TEST(PsResource, RemainingAndRateQueries) {
  Simulation sim;
  PsResource cpu(sim, 2.0);
  const auto id = cpu.submit(4.0, [] {}, 2.0);
  sim.run_until(1.0);
  EXPECT_NEAR(cpu.remaining(id), 2.0, 1e-9);
  EXPECT_NEAR(cpu.current_rate(id), 2.0, 1e-9);
  EXPECT_NEAR(cpu.utilization(), 2.0, 1e-9);
  EXPECT_EQ(cpu.active_jobs(), 1u);
}

TEST(PsResource, CapacityChangeMidFlight) {
  Simulation sim;
  PsResource cpu(sim, 2.0);
  double done_at = -1;
  cpu.submit(4.0, [&] { done_at = sim.now(); });
  sim.call_at(1.0, [&] { cpu.set_capacity(1.0); });
  sim.run();
  // 2 done in first second, 2 remaining at rate 1 → t=3.
  EXPECT_NEAR(done_at, 3.0, 1e-9);
}

TEST(PsResource, InvalidArgumentsThrow) {
  Simulation sim;
  EXPECT_THROW(PsResource(sim, -1.0), std::invalid_argument);
  PsResource cpu(sim, 1.0);
  EXPECT_THROW(cpu.submit(1.0, [] {}, -1.0), std::invalid_argument);
  EXPECT_THROW(cpu.submit(1.0, [] {}, 1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(cpu.set_capacity(-2.0), std::invalid_argument);
}

TEST(PsResource, InterleavedCancelRecapAndResizeAccounting) {
  // Walks one scenario through every mutation path — cancel, set_rate_cap,
  // set_capacity — checking remaining-work accounting after each step.
  Simulation sim;
  PsResource cpu(sim, 6.0);
  double a_done = -1;
  double b_done = -1;
  bool c_ran = false;
  const auto a = cpu.submit(12.0, [&] { a_done = sim.now(); });
  const auto b = cpu.submit(12.0, [&] { b_done = sim.now(); }, 1.0);
  const auto c = cpu.submit(12.0, [&] { c_ran = true; });
  // t in [0,1): B capped at 1, A and C split the remaining 5 → 2.5 each.
  sim.call_at(1.0, [&] {
    EXPECT_NEAR(cpu.remaining(a), 9.5, 1e-9);
    EXPECT_NEAR(cpu.remaining(b), 11.0, 1e-9);
    EXPECT_NEAR(cpu.remaining(c), 9.5, 1e-9);
    EXPECT_NEAR(cpu.utilization(), 6.0, 1e-9);
    EXPECT_TRUE(cpu.cancel(c));
    EXPECT_FALSE(cpu.cancel(c));
    EXPECT_EQ(cpu.active_jobs(), 2u);
  });
  // t in [1,2): A uncapped → 5, B → 1.
  sim.call_at(2.0, [&] {
    EXPECT_NEAR(cpu.remaining(a), 4.5, 1e-9);
    EXPECT_NEAR(cpu.remaining(b), 10.0, 1e-9);
    EXPECT_NEAR(cpu.current_rate(a), 5.0, 1e-9);
    EXPECT_TRUE(cpu.set_rate_cap(a, 2.0));
  });
  // t in [2,3): A capped at 2, B at 1.
  sim.call_at(3.0, [&] {
    EXPECT_NEAR(cpu.remaining(a), 2.5, 1e-9);
    EXPECT_NEAR(cpu.remaining(b), 9.0, 1e-9);
    EXPECT_NEAR(cpu.utilization(), 3.0, 1e-9);
    cpu.set_capacity(2.0);
  });
  // t >= 3: capacity 2 split evenly → A=1, B=1. A's 2.5 left → t=5.5;
  // B then runs alone but stays capped at 1: 6.5 left → t=12.
  sim.run();
  EXPECT_FALSE(c_ran);
  EXPECT_NEAR(a_done, 5.5, 1e-9);
  EXPECT_NEAR(b_done, 12.0, 1e-9);
  EXPECT_EQ(cpu.active_jobs(), 0u);
  EXPECT_NEAR(cpu.utilization(), 0.0, 1e-12);
  EXPECT_EQ(cpu.remaining(a), -1.0);
  EXPECT_EQ(cpu.remaining(c), -1.0);
}

TEST(PsResource, CancelAfterCompletionReturnsFalse) {
  Simulation sim;
  PsResource cpu(sim, 1.0);
  const auto id = cpu.submit(1.0, [] {}, 1.0);
  sim.run();
  EXPECT_FALSE(cpu.cancel(id));
  EXPECT_FALSE(cpu.set_rate_cap(id, 2.0));
}

// Property: with N identical capped jobs on C cores, makespan is
// work * ceil-free scaling max(1, N/C). Swept with TEST_P.
//
// gtest names each case after the raw bytes of its parameter, so the
// struct must have no padding: an `int jobs` left four indeterminate
// bytes in the name and the case names changed from build to build.
struct PsSweep {
  std::int64_t jobs;
  double cores;
};
static_assert(sizeof(PsSweep) == sizeof(std::int64_t) + sizeof(double));

class PsFairnessSweep : public ::testing::TestWithParam<PsSweep> {};

TEST_P(PsFairnessSweep, MakespanMatchesTheory) {
  const auto [jobs, cores] = GetParam();
  Simulation sim;
  PsResource cpu(sim, cores);
  constexpr double kWork = 2.0;
  int finished = 0;
  double last = 0;
  for (int i = 0; i < jobs; ++i) {
    cpu.submit(kWork, [&] {
      ++finished;
      last = sim.now();
    }, 1.0);
  }
  sim.run();
  EXPECT_EQ(finished, jobs);
  const double expected =
      kWork * std::max(1.0, static_cast<double>(jobs) / cores);
  EXPECT_NEAR(last, expected, 1e-6);
}

TEST(PsResource, StaleIdIsRefusedAfterItsSlotIsReused) {
  Simulation sim;
  PsResource cpu(sim, 1.0);
  const PsResource::JobId stale = cpu.submit(10.0, [] {});
  ASSERT_TRUE(cpu.cancel(stale));
  bool done = false;
  const PsResource::JobId fresh = cpu.submit(4.0, [&] { done = true; });
  EXPECT_DOUBLE_EQ(cpu.remaining(stale), -1.0);
  EXPECT_FALSE(cpu.cancel(stale));
  EXPECT_DOUBLE_EQ(cpu.remaining(fresh), 4.0);
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_DOUBLE_EQ(sim.now(), 4.0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PsFairnessSweep,
    ::testing::Values(PsSweep{1, 1}, PsSweep{2, 1}, PsSweep{5, 1},
                      PsSweep{8, 8}, PsSweep{16, 8}, PsSweep{32, 8},
                      PsSweep{3, 4}, PsSweep{100, 8}));

}  // namespace
}  // namespace sf::sim
