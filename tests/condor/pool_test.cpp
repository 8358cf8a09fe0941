#include "condor/pool.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/simulation.hpp"

namespace sf::condor {
namespace {

/// Paper testbed: node0 = submit, nodes 1-3 = workers (24 cores total).
class CondorPoolTest : public ::testing::Test {
 protected:
  sim::Simulation sim;
  std::unique_ptr<cluster::Cluster> cl = cluster::make_paper_testbed(sim);
  CondorConfig config_;
  std::unique_ptr<CondorPool> pool;

  void SetUp() override { reset({}); }

  void reset(CondorConfig cfg) {
    config_ = cfg;
    pool = std::make_unique<CondorPool>(
        *cl, cl->node(0),
        std::vector<cluster::Node*>{&cl->node(1), &cl->node(2),
                                    &cl->node(3)},
        config_);
  }

  /// A job burning `work` core-seconds (single-threaded) on the worker.
  JobSpec compute_job(const std::string& name, double work) {
    JobSpec spec;
    spec.name = name;
    spec.executable = [work](ExecContext& ctx,
                             std::function<void(bool)> done) {
      ctx.node->run_process(work, [done = std::move(done)] { done(true); },
                            1.0);
    };
    spec.submit_volume = &pool->submit_staging();
    return spec;
  }

  /// compute_job("t<i>", work). Appends rather than writing
  /// "t" + std::to_string(i), which GCC 12 flags with a false -Wrestrict
  /// at -O3.
  JobSpec compute_job(int i, double work) {
    std::string name = "t";
    name += std::to_string(i);
    return compute_job(name, work);
  }
};

TEST_F(CondorPoolTest, WorkerCrashAbortsRunningJobWithNoZombies) {
  JobState final_state = JobState::kIdle;
  JobSpec spec = compute_job("t0", 100.0);
  spec.on_done = [&](const JobRecord& rec) { final_state = rec.state; };
  const JobId id = pool->submit(std::move(spec));
  sim.run_until(20.0);  // running by ~12.07
  ASSERT_EQ(pool->running_jobs(), 1u);
  const JobRecord* rec = pool->job(id);
  ASSERT_NE(rec, nullptr);
  const std::string victim = rec->worker;
  ASSERT_FALSE(victim.empty());

  for (std::size_t i = 1; i < cl->size(); ++i) {
    if (cl->node(i).name() == victim) cl->node(i).fail();
  }
  // Startd death is detected synchronously: the job is aborted (failed,
  // on_done fired so a DAGMan above could retry) and its claim dropped.
  EXPECT_EQ(final_state, JobState::kFailed);
  EXPECT_EQ(pool->jobs_aborted(), 1u);
  EXPECT_EQ(pool->running_jobs(), 0u);
  EXPECT_EQ(pool->active_claims(), 0u);

  // Drain: no zombie continuation from the dead attempt may "complete"
  // the job after its worker evaporated.
  sim.run();
  EXPECT_EQ(pool->completed_jobs(), 0u);
  EXPECT_EQ(pool->failed_jobs(), 1u);
}

TEST_F(CondorPoolTest, SingleJobLifecycle) {
  double done_at = -1;
  JobState final_state = JobState::kIdle;
  JobSpec spec = compute_job("t0", 1.0);
  spec.on_done = [&](const JobRecord& rec) {
    final_state = rec.state;
    done_at = sim.now();
  };
  const JobId id = pool->submit(std::move(spec));
  sim.run();
  EXPECT_EQ(final_state, JobState::kCompleted);
  // negotiation (10) + dispatch (0.27) + setup (0.8) + work (1.0).
  EXPECT_NEAR(done_at, 12.07, 1e-6);
  const JobRecord* rec = pool->job(id);
  ASSERT_NE(rec, nullptr);
  EXPECT_FALSE(rec->worker.empty());
  EXPECT_NEAR(rec->end_time - rec->start_time, 1.0, 1e-9);
  EXPECT_EQ(pool->completed_jobs(), 1u);
}

TEST_F(CondorPoolTest, ClaimReuseSkipsNegotiation) {
  // Two sequential jobs: the second rides the first's claim.
  std::vector<double> done;
  JobSpec first = compute_job("t0", 1.0);
  first.on_done = [&](const JobRecord&) {
    done.push_back(sim.now());
    JobSpec second = compute_job("t1", 1.0);
    second.on_done = [&](const JobRecord&) { done.push_back(sim.now()); };
    pool->submit(std::move(second));
  };
  pool->submit(std::move(first));
  sim.run();
  ASSERT_EQ(done.size(), 2u);
  // Second hop: dispatch + setup + work only — no 10 s negotiation wait.
  EXPECT_NEAR(done[1] - done[0], 0.27 + 0.8 + 1.0, 1e-6);
  EXPECT_EQ(pool->negotiation_cycles(), 1u);
}

TEST_F(CondorPoolTest, DispatchSerializesParallelJobs) {
  // 8 zero-ish work jobs: starts are spaced by dispatch_interval.
  std::vector<double> starts;
  for (int i = 0; i < 8; ++i) {
    JobSpec spec = compute_job(i, 0.001);
    spec.on_done = [&, i](const JobRecord& rec) {
      starts.push_back(rec.start_time);
    };
    pool->submit(std::move(spec));
  }
  sim.run();
  ASSERT_EQ(starts.size(), 8u);
  std::sort(starts.begin(), starts.end());
  for (std::size_t i = 1; i < starts.size(); ++i) {
    EXPECT_NEAR(starts[i] - starts[i - 1], config_.dispatch_interval_s,
                1e-6);
  }
}

TEST_F(CondorPoolTest, JobsSpreadAcrossWorkers) {
  std::set<std::string> workers;
  int completed = 0;
  for (int i = 0; i < 6; ++i) {
    JobSpec spec = compute_job(i, 5.0);
    spec.on_done = [&](const JobRecord& rec) {
      workers.insert(rec.worker);
      ++completed;
    };
    pool->submit(std::move(spec));
  }
  sim.run();
  EXPECT_EQ(completed, 6);
  EXPECT_EQ(workers.size(), 3u);  // round-robin fill
}

TEST_F(CondorPoolTest, StageInAndOutMoveFiles) {
  pool->submit_staging().put_instant({"in.dat", 490000});
  JobSpec spec;
  spec.name = "t0";
  spec.inputs = {{"in.dat", 490000}};
  spec.outputs = {"out.dat"};
  spec.submit_volume = &pool->submit_staging();
  spec.executable = [](ExecContext& ctx, std::function<void(bool)> done) {
    // The task must see its staged input, then produce the output.
    EXPECT_TRUE(ctx.scratch->contains("in.dat"));
    ctx.scratch->write({"out.dat", 490000},
                       [done = std::move(done)] { done(true); });
  };
  bool ok = false;
  spec.on_done = [&](const JobRecord& rec) {
    ok = rec.state == JobState::kCompleted;
  };
  pool->submit(std::move(spec));
  sim.run();
  EXPECT_TRUE(ok);
  EXPECT_TRUE(pool->submit_staging().contains("out.dat"));
}

TEST_F(CondorPoolTest, MissingInputFailsJob) {
  JobSpec spec = compute_job("t0", 1.0);
  spec.inputs = {{"ghost.dat", 1}};
  JobState state = JobState::kIdle;
  spec.on_done = [&](const JobRecord& rec) { state = rec.state; };
  pool->submit(std::move(spec));
  sim.run();
  EXPECT_EQ(state, JobState::kFailed);
  EXPECT_EQ(pool->failed_jobs(), 1u);
}

TEST_F(CondorPoolTest, MissingOutputFailsJob) {
  JobSpec spec = compute_job("t0", 0.1);
  spec.outputs = {"never-written.dat"};
  JobState state = JobState::kIdle;
  spec.on_done = [&](const JobRecord& rec) { state = rec.state; };
  pool->submit(std::move(spec));
  sim.run();
  EXPECT_EQ(state, JobState::kFailed);
}

TEST_F(CondorPoolTest, MaxRunningThrottle) {
  CondorConfig cfg;
  cfg.max_running_jobs = 2;
  reset(cfg);
  int peak = 0;
  int completed = 0;
  for (int i = 0; i < 6; ++i) {
    JobSpec spec = compute_job(i, 2.0);
    spec.on_done = [&](const JobRecord&) { ++completed; };
    pool->submit(std::move(spec));
  }
  while (sim.has_pending_events()) {
    sim.step();
    peak = std::max(peak, static_cast<int>(pool->running_jobs()));
  }
  EXPECT_EQ(completed, 6);
  EXPECT_LE(peak, 2);
}

TEST_F(CondorPoolTest, RemoveIdleJobOnly) {
  JobSpec spec = compute_job("t0", 1.0);
  bool callback_ran = false;
  spec.on_done = [&](const JobRecord&) { callback_ran = true; };
  const JobId id = pool->submit(std::move(spec));
  EXPECT_TRUE(pool->remove(id));
  EXPECT_FALSE(pool->remove(id));
  // Ids outside the job table: none was ever submitted.
  EXPECT_EQ(pool->job(kNoJob), nullptr);
  EXPECT_EQ(pool->job(id + 1), nullptr);
  EXPECT_FALSE(pool->remove(id + 1));
  sim.run();
  EXPECT_FALSE(callback_ran);
  EXPECT_EQ(pool->job(id)->state, JobState::kRemoved);
}

TEST_F(CondorPoolTest, ClaimsReleasedAfterIdleTimeout) {
  CondorConfig cfg;
  cfg.claim_idle_timeout_s = 5.0;
  reset(cfg);
  JobSpec spec = compute_job("t0", 0.5);
  pool->submit(std::move(spec));
  sim.run();
  EXPECT_EQ(pool->active_claims(), 0u);
  EXPECT_DOUBLE_EQ(pool->startd("node1").free_cpus(), 8.0);
}

TEST_F(CondorPoolTest, PoolSaturationQueuesOverflow) {
  // 25 long jobs on 24 cores: one waits for a slot.
  int completed = 0;
  for (int i = 0; i < 25; ++i) {
    JobSpec spec = compute_job(i, 10.0);
    spec.on_done = [&](const JobRecord&) { ++completed; };
    pool->submit(std::move(spec));
  }
  // By t=20 the dispatch pipeline (24 × 0.27 s after the t=10 cycle) has
  // drained; exactly one job still waits for a slot.
  sim.run_until(20.0);
  EXPECT_EQ(pool->idle_jobs(), 1u);
  sim.run();
  EXPECT_EQ(completed, 25);
}

TEST_F(CondorPoolTest, WorkerListedTwiceSharesOneStartdAndFillsTwice) {
  pool = std::make_unique<CondorPool>(
      *cl, cl->node(0),
      std::vector<cluster::Node*>{&cl->node(1), &cl->node(1), &cl->node(2)});
  ASSERT_EQ(pool->workers().size(), 3u);
  EXPECT_EQ(pool->workers()[0], pool->workers()[1]);
  EXPECT_EQ(pool->worker_count(), 2u);
  // One negotiation cycle carves all four claims in fill order:
  // node1, node1, node2, node1.
  std::vector<JobId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(pool->submit(compute_job(i, 1.0)));
  }
  sim.run();
  EXPECT_EQ(pool->completed_jobs(), 4u);
  std::vector<std::string> placed;
  for (const JobId id : ids) placed.push_back(pool->job(id)->worker);
  EXPECT_EQ(placed, (std::vector<std::string>{cl->node(1).name(),
                                              cl->node(1).name(),
                                              cl->node(2).name(),
                                              cl->node(1).name()}));
}

TEST_F(CondorPoolTest, JobStateNames) {
  EXPECT_STREQ(to_string(JobState::kIdle), "Idle");
  EXPECT_STREQ(to_string(JobState::kRunning), "Running");
  EXPECT_STREQ(to_string(JobState::kCompleted), "Completed");
  EXPECT_STREQ(to_string(JobState::kFailed), "Failed");
  EXPECT_STREQ(to_string(JobState::kRemoved), "Removed");
}

}  // namespace
}  // namespace sf::condor
