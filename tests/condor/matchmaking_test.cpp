// Priority scheduling and ClassAd-style requirements matching.

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "condor/pool.hpp"
#include "fault/splitmix.hpp"
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

// ---- Pinned multi-shape scenarios ------------------------------------------

/// One seeded pool: 2-6 workers of 4 or 8 cores and 8 or 16 GB, 20-119
/// jobs drawn from four (cpus, memory) shapes at priorities 0-2, one in
/// three with a requirements function. Half the pools time idle claims
/// out after 2-30 s, a third throttle running jobs, and half crash and
/// recover a worker and open and heal a submit<->worker partition. Returns
/// an order-sensitive digest of each job's state, worker, start and end
/// time, plus the pool's negotiation cycle count.
std::uint64_t run_pinned_scenario(std::uint64_t seed,
                                  std::uint64_t* completed) {
  fault::SplitMix64 rng(fault::SplitMix64::mix(seed, 0xC0DD));
  sim::Simulation sim;
  cluster::Cluster cl(sim);
  cluster::Node& submit = cl.add_node({.name = "submit"});
  const std::size_t workers = 2 + rng.next_below(5);
  std::vector<cluster::Node*> nodes;
  for (std::size_t w = 0; w < workers; ++w) {
    cluster::NodeSpec spec;
    spec.name = "w";
    spec.name += std::to_string(w);
    spec.cores = rng.next_below(2) == 0 ? 4 : 8;
    spec.memory_bytes = rng.next_below(2) == 0 ? 8e9 : 16e9;
    nodes.push_back(&cl.add_node(spec));
  }
  CondorConfig cfg;
  if (rng.next_below(2) == 0) {
    cfg.claim_idle_timeout_s = 2.0 + rng.next_double() * 28.0;
  }
  if (rng.next_below(3) == 0) {
    cfg.max_running_jobs = static_cast<int>(1 + rng.next_below(6));
  }
  CondorPool pool(cl, submit, nodes, cfg);
  pool.submit_staging().put_instant({"in.dat", 4e6});

  constexpr std::array<std::pair<double, double>, 4> kShapes{
      {{1, 1e9}, {1, 3e9}, {2, 2e9}, {4, 6e9}}};
  const std::size_t jobs = 20 + rng.next_below(100);
  std::vector<JobId> ids;
  for (std::size_t j = 0; j < jobs; ++j) {
    JobSpec spec;
    spec.name = "j";
    spec.name += std::to_string(j);
    const auto& [cpus, memory] = kShapes[rng.next_below(kShapes.size())];
    spec.request_cpus = cpus;
    spec.request_memory = memory;
    spec.priority = static_cast<int>(rng.next_below(3));
    if (rng.next_below(3) == 0) {
      if (rng.next_below(2) == 0) {
        spec.requirements = [avoid = nodes[rng.next_below(workers)]](
                                const Startd& sd) {
          return &sd.node() != avoid;
        };
      } else {
        spec.requirements = [](const Startd& sd) {
          return sd.free_cpus() >= 2;
        };
      }
    }
    if (rng.next_below(2) == 0) spec.inputs.push_back({"in.dat", 4e6});
    const double work = 0.5 + rng.next_double() * 20.0;
    spec.executable = [work](ExecContext& ctx,
                             std::function<void(bool)> done) {
      ctx.node->run_process(work, [done = std::move(done)] { done(true); },
                            1.0);
    };
    spec.submit_volume = &pool.submit_staging();
    const double at = rng.next_below(4) == 0 ? 0.0 : rng.next_double() * 150;
    sim.call_at(at, [&pool, &ids, spec = std::move(spec)]() mutable {
      ids.push_back(pool.submit(std::move(spec)));
    });
  }
  if (rng.next_below(2) == 0) {
    cluster::Node* victim = nodes[rng.next_below(workers)];
    const double crash_at = 5.0 + rng.next_double() * 120.0;
    const double downtime = 10.0 + rng.next_double() * 50.0;
    sim.call_at(crash_at, [victim] { victim->fail(); });
    sim.call_at(crash_at + downtime, [victim] { victim->recover(); });
    const net::NodeId cut = nodes[rng.next_below(workers)]->net_id();
    const double cut_at = 5.0 + rng.next_double() * 120.0;
    const double heal_after = 5.0 + rng.next_double() * 40.0;
    net::FlowNetwork& network = cl.network();
    const net::NodeId head = submit.net_id();
    sim.call_at(cut_at, [&network, head, cut] {
      network.set_partition(head, cut, true);
    });
    sim.call_at(cut_at + heal_after, [&network, head, cut] {
      network.set_partition(head, cut, false);
    });
  }
  sim.run_until(20000.0);

  std::uint64_t h = jobs;
  auto fold = [&h](std::uint64_t v) { h = fault::SplitMix64::mix(h, v); };
  for (const JobId id : ids) {
    const JobRecord* rec = pool.job(id);
    fold(static_cast<std::uint64_t>(rec->state));
    std::uint64_t worker = workers;  // never ran
    for (std::size_t w = 0; w < workers; ++w) {
      if (rec->worker == nodes[w]->name()) worker = w;
    }
    fold(worker);
    fold(std::bit_cast<std::uint64_t>(rec->start_time));
    fold(std::bit_cast<std::uint64_t>(rec->end_time));
  }
  fold(pool.negotiation_cycles());
  *completed += pool.completed_jobs();
  return h;
}

// Claim choice is part of the determinism contract: which worker a job
// lands on, and when, feeds every figure and chaos digest. These
// scenarios mix shapes, requirements, throttles, claim timeouts, crashes
// and partitions, so a change to the greedy order or to the claim a job
// takes shows in the pinned digest.
TEST(CondorMatch, PinnedScenariosAreUnchanged) {
  std::uint64_t h = 0;
  std::uint64_t completed = 0;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    h = fault::SplitMix64::mix(h, run_pinned_scenario(seed, &completed));
  }
  EXPECT_EQ(completed, 3961u);
  EXPECT_EQ(h, 0x8a4b0571addb49b3ull);
}

}  // namespace
}  // namespace sf::condor
