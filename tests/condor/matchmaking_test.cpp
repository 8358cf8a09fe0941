// Priority scheduling and ClassAd-style requirements matching.

#include <gtest/gtest.h>

#include <vector>

#include "condor/pool.hpp"
#include "sim/simulation.hpp"

namespace sf::condor {
namespace {

class MatchmakingTest : public ::testing::Test {
 protected:
  sim::Simulation sim;
  std::unique_ptr<cluster::Cluster> cl = cluster::make_paper_testbed(sim);
  CondorPool pool{*cl, cl->node(0),
                  {&cl->node(1), &cl->node(2), &cl->node(3)}};

  JobSpec job(const std::string& name, double work = 0.5) {
    JobSpec spec;
    spec.name = name;
    spec.executable = [work](ExecContext& ctx,
                             std::function<void(bool)> done) {
      ctx.node->run_process(work, [done = std::move(done)] { done(true); },
                            1.0);
    };
    spec.submit_volume = &pool.submit_staging();
    return spec;
  }
};

TEST_F(MatchmakingTest, HigherPriorityStartsFirst) {
  std::vector<std::string> start_order;
  auto track = [&](JobSpec spec) {
    spec.on_done = [&start_order, name = spec.name](const JobRecord& rec) {
      (void)rec;
      start_order.push_back(name);
    };
    return spec;
  };
  // Saturate the dispatch pipeline: submit low first, then high.
  JobSpec low = track(job("low"));
  low.priority = 0;
  JobSpec high = track(job("high"));
  high.priority = 10;
  JobSpec mid = track(job("mid"));
  mid.priority = 5;
  pool.submit(std::move(low));
  pool.submit(std::move(high));
  pool.submit(std::move(mid));
  sim.run();
  ASSERT_EQ(start_order.size(), 3u);
  // Same work per job → completion order mirrors start order.
  EXPECT_EQ(start_order[0], "high");
  EXPECT_EQ(start_order[1], "mid");
  EXPECT_EQ(start_order[2], "low");
}

TEST_F(MatchmakingTest, EqualPriorityStaysFifo) {
  std::vector<std::string> order;
  for (int i = 0; i < 4; ++i) {
    std::string id = "j";
    id += std::to_string(i);
    JobSpec spec = job(id);
    spec.on_done = [&order, name = spec.name](const JobRecord&) {
      order.push_back(name);
    };
    pool.submit(std::move(spec));
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<std::string>{"j0", "j1", "j2", "j3"}));
}

TEST_F(MatchmakingTest, RequirementsPinJobToMachine) {
  std::string ran_on;
  JobSpec spec = job("pinned");
  spec.requirements = [](const Startd& sd) {
    return sd.node().name() == "node2";
  };
  spec.on_done = [&](const JobRecord& rec) { ran_on = rec.worker; };
  pool.submit(std::move(spec));
  sim.run();
  EXPECT_EQ(ran_on, "node2");
}

TEST_F(MatchmakingTest, RequirementsByResources) {
  // Require ≥ 16 GB free — every paper-testbed node qualifies; the
  // predicate is evaluated against the actual startd.
  std::string ran_on;
  JobSpec spec = job("memory-hungry");
  spec.requirements = [](const Startd& sd) {
    return sd.free_memory() >= 16.0 * (1ull << 30);
  };
  spec.on_done = [&](const JobRecord& rec) { ran_on = rec.worker; };
  pool.submit(std::move(spec));
  sim.run();
  EXPECT_FALSE(ran_on.empty());
}

TEST_F(MatchmakingTest, UnsatisfiableRequirementsNeverRun) {
  bool ran = false;
  JobSpec spec = job("impossible");
  spec.requirements = [](const Startd&) { return false; };
  spec.on_done = [&](const JobRecord&) { ran = true; };
  const JobId id = pool.submit(std::move(spec));
  sim.run_until(120.0);
  EXPECT_FALSE(ran);
  EXPECT_EQ(pool.job(id)->state, JobState::kIdle);
  // A satisfiable job is not blocked behind it.
  bool other_ran = false;
  JobSpec ok = job("fine");
  ok.on_done = [&](const JobRecord&) { other_ran = true; };
  pool.submit(std::move(ok));
  sim.run_until(240.0);
  EXPECT_TRUE(other_ran);
}

TEST_F(MatchmakingTest, ExistingClaimNotReusedAcrossRequirements) {
  // First job pins to node1 and leaves a warm claim there; the second
  // requires node3, so it must negotiate a fresh claim instead of riding
  // the node1 claim.
  std::string first_on;
  std::string second_on;
  JobSpec first = job("first");
  first.requirements = [](const Startd& sd) {
    return sd.node().name() == "node1";
  };
  first.on_done = [&](const JobRecord& rec) { first_on = rec.worker; };
  pool.submit(std::move(first));
  sim.run();
  JobSpec second = job("second");
  second.requirements = [](const Startd& sd) {
    return sd.node().name() == "node3";
  };
  second.on_done = [&](const JobRecord& rec) { second_on = rec.worker; };
  pool.submit(std::move(second));
  sim.run();
  EXPECT_EQ(first_on, "node1");
  EXPECT_EQ(second_on, "node3");
}

}  // namespace
}  // namespace sf::condor
