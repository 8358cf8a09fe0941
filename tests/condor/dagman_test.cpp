#include "condor/dagman.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "sim/simulation.hpp"

namespace sf::condor {
namespace {

class DagManTest : public ::testing::Test {
 protected:
  sim::Simulation sim;
  std::unique_ptr<cluster::Cluster> cl = cluster::make_paper_testbed(sim);
  CondorPool pool{*cl, cl->node(0),
                  {&cl->node(1), &cl->node(2), &cl->node(3)}};

  DagNode node(const std::string& name, std::vector<std::string> parents,
               double work = 0.5, bool succeed = true) {
    DagNode n;
    n.name = name;
    n.parents = std::move(parents);
    n.job.executable = [this, name, work, succeed](
                           ExecContext& ctx, std::function<void(bool)> done) {
      order.push_back(name);
      ctx.node->run_process(work,
                            [done = std::move(done), succeed] {
                              done(succeed);
                            },
                            1.0);
    };
    n.job.submit_volume = &pool.submit_staging();
    return n;
  }

  std::vector<std::string> order;
};

TEST_F(DagManTest, EmptyDagSucceedsImmediately) {
  DagMan dag(pool);
  bool ok = false;
  dag.run([&](bool success) { ok = success; });
  sim.run();
  EXPECT_TRUE(ok);
}

TEST_F(DagManTest, LinearChainRespectsOrder) {
  DagMan dag(pool);
  dag.add_node(node("a", {}));
  dag.add_node(node("b", {"a"}));
  dag.add_node(node("c", {"b"}));
  bool ok = false;
  dag.run([&](bool success) { ok = success; });
  sim.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(dag.completed_nodes(), 3u);
  EXPECT_GT(dag.makespan(), 0.0);
}

TEST_F(DagManTest, ScanIntervalDelaysChildren) {
  DagMan dag(pool, DagConfig{.scan_interval_s = 5.0});
  dag.add_node(node("a", {}, 0.1));
  dag.add_node(node("b", {"a"}, 0.1));
  bool done = false;
  dag.run([&](bool) { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  const JobRecord* a = dag.node_record("a");
  const JobRecord* b = dag.node_record("b");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  // b was submitted at a scan boundary (multiple of 5 s after start).
  const double submit_offset = b->submit_time - dag.start_time();
  EXPECT_NEAR(std::fmod(submit_offset, 5.0), 0.0, 1e-6);
  EXPECT_GT(b->submit_time, a->end_time);
}

TEST_F(DagManTest, DiamondJoinWaitsForBothParents) {
  DagMan dag(pool);
  dag.add_node(node("src", {}));
  dag.add_node(node("left", {"src"}, 0.2));
  dag.add_node(node("right", {"src"}, 3.0));
  dag.add_node(node("sink", {"left", "right"}));
  bool ok = false;
  dag.run([&](bool success) { ok = success; });
  sim.run();
  EXPECT_TRUE(ok);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order.front(), "src");
  EXPECT_EQ(order.back(), "sink");
  const JobRecord* right = dag.node_record("right");
  const JobRecord* sink = dag.node_record("sink");
  EXPECT_GE(sink->submit_time, right->end_time);
}

TEST_F(DagManTest, WideFanoutAllRun) {
  DagMan dag(pool);
  dag.add_node(node("root", {}));
  for (int i = 0; i < 20; ++i) {
    std::string name = "w";
    name += std::to_string(i);
    dag.add_node(node(name, {"root"}));
  }
  bool ok = false;
  dag.run([&](bool success) { ok = success; });
  sim.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(dag.completed_nodes(), 21u);
  // Released children are submitted in name order, not in add order: w10
  // runs before w2.
  std::vector<std::string> by_name;
  for (int i = 0; i < 20; ++i) {
    std::string name = "w";
    name += std::to_string(i);
    by_name.push_back(std::move(name));
  }
  std::sort(by_name.begin(), by_name.end());
  by_name.insert(by_name.begin(), "root");
  EXPECT_EQ(order, by_name);
}

TEST_F(DagManTest, MaxJobsThrottleLimitsSubmissions) {
  DagMan dag(pool, DagConfig{.scan_interval_s = 5.0, .max_jobs = 3});
  for (int i = 0; i < 9; ++i) {
    std::string name = "w";
    name += std::to_string(i);
    dag.add_node(node(name, {}, 2.0));
  }
  bool ok = false;
  dag.run([&](bool success) { ok = success; });
  int peak = 0;
  while (sim.has_pending_events()) {
    sim.step();
    peak = std::max(peak, static_cast<int>(pool.idle_jobs() +
                                           pool.running_jobs()));
  }
  EXPECT_TRUE(ok);
  EXPECT_LE(peak, 3);
  EXPECT_EQ(dag.completed_nodes(), 9u);
}

TEST_F(DagManTest, RetrySucceedsOnSecondAttempt) {
  DagMan dag(pool);
  int attempts = 0;
  DagNode flaky;
  flaky.name = "flaky";
  flaky.retries = 2;
  flaky.job.submit_volume = &pool.submit_staging();
  flaky.job.executable = [&attempts](ExecContext& ctx,
                                     std::function<void(bool)> done) {
    ++attempts;
    ctx.node->run_process(0.1,
                          [done = std::move(done), ok = attempts >= 2] {
                            done(ok);
                          },
                          1.0);
  };
  dag.add_node(std::move(flaky));
  bool ok = false;
  dag.run([&](bool success) { ok = success; });
  sim.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(attempts, 2);
  EXPECT_EQ(dag.total_retries(), 1u);
}

TEST_F(DagManTest, WorkerCrashRetriesNodeToCompletion) {
  // The schedd aborts jobs whose startd dies; DAGMan's retry budget then
  // resubmits, landing the rerun on a surviving worker.
  DagMan dag(pool);
  DagNode n = node("long", {}, 30.0);
  n.retries = 2;
  dag.add_node(std::move(n));
  bool finished = false;
  bool ok = false;
  dag.run([&](bool success) {
    finished = true;
    ok = success;
  });
  // First attempt starts ~12 s in (negotiation + dispatch + setup); crash
  // every worker mid-run so the attempt dies wherever it landed, then
  // reboot the pool and let the retry finish.
  sim.call_at(20.0, [this] {
    for (std::size_t i = 1; i <= 3; ++i) cl->node(i).fail();
  });
  sim.call_at(30.0, [this] {
    for (std::size_t i = 1; i <= 3; ++i) cl->node(i).recover();
  });
  while (!finished && sim.has_pending_events()) sim.step();
  EXPECT_TRUE(finished);
  EXPECT_TRUE(ok);
  EXPECT_EQ(pool.jobs_aborted(), 1u);
  EXPECT_EQ(dag.total_retries(), 1u);
  EXPECT_EQ(order, (std::vector<std::string>{"long", "long"}));
}

TEST_F(DagManTest, RepeatedWorkerCrashesExhaustRetriesAndFailDag) {
  DagMan dag(pool);
  DagNode n = node("doomed", {}, 30.0);
  n.retries = 1;
  dag.add_node(std::move(n));
  dag.add_node(node("never", {"doomed"}));
  bool finished = false;
  bool ok = true;
  dag.run([&](bool success) {
    finished = true;
    ok = success;
  });
  // Crash the whole pool under attempt 1 (t=20), reboot (t=30), then
  // crash it again under the retry (t=50, which starts ~31-41 and runs
  // 30 s): the budget of one retry is exhausted and the DAG fails.
  const auto crash_all = [this] {
    for (std::size_t i = 1; i <= 3; ++i) cl->node(i).fail();
  };
  const auto recover_all = [this] {
    for (std::size_t i = 1; i <= 3; ++i) cl->node(i).recover();
  };
  sim.call_at(20.0, crash_all);
  sim.call_at(30.0, recover_all);
  sim.call_at(50.0, crash_all);
  while (!finished && sim.has_pending_events()) sim.step();
  EXPECT_TRUE(finished);
  EXPECT_FALSE(ok);
  EXPECT_EQ(pool.jobs_aborted(), 2u);  // original + retried attempt
  EXPECT_EQ(dag.total_retries(), 1u);
  EXPECT_EQ(order, (std::vector<std::string>{"doomed", "doomed"}));
}

TEST_F(DagManTest, ExhaustedRetriesFailDag) {
  DagMan dag(pool);
  dag.add_node(node("bad", {}, 0.1, /*succeed=*/false));
  dag.add_node(node("never", {"bad"}));
  bool finished = false;
  bool ok = true;
  dag.run([&](bool success) {
    finished = true;
    ok = success;
  });
  sim.run();
  EXPECT_TRUE(finished);
  EXPECT_FALSE(ok);
  EXPECT_EQ(order, (std::vector<std::string>{"bad"}));
}

TEST_F(DagManTest, UnknownParentThrows) {
  DagMan dag(pool);
  dag.add_node(node("child", {"ghost"}));
  EXPECT_THROW(dag.run([](bool) {}), std::invalid_argument);
}

TEST_F(DagManTest, CycleDetected) {
  DagMan dag(pool);
  dag.add_node(node("a", {"b"}));
  dag.add_node(node("b", {"a"}));
  EXPECT_THROW(dag.run([](bool) {}), std::invalid_argument);
}

TEST_F(DagManTest, DuplicateNodeThrows) {
  DagMan dag(pool);
  dag.add_node(node("a", {}));
  EXPECT_THROW(dag.add_node(node("a", {})), std::invalid_argument);
}

}  // namespace
}  // namespace sf::condor
