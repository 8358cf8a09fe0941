#include "pegasus/planner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string_view>

#include "container/image.hpp"
#include "fault/splitmix.hpp"
#include "pegasus/statistics.hpp"
#include "sim/simulation.hpp"

namespace sf::pegasus {
namespace {

class PlannerTest : public ::testing::Test {
 protected:
  sim::Simulation sim;
  std::unique_ptr<cluster::Cluster> cl = cluster::make_paper_testbed(sim);
  condor::CondorPool pool{*cl, cl->node(0),
                          {&cl->node(1), &cl->node(2), &cl->node(3)}};
  container::Registry hub{cl->node(0)};
  DockerEnv docker{*cl, pool};
  TransformationCatalog tc;
  storage::ReplicaCatalog rc;

  void SetUp() override {
    Transformation matmul;
    matmul.name = "matmul";
    matmul.work_coreseconds = 0.4;
    matmul.startup_s = 0.2;
    matmul.container_image = "matmul:latest";
    tc.add(matmul);
    hub.push(container::make_task_image("matmul"));
  }

  /// Chain of n matmul tasks (Figure 3), initial inputs on the submit node.
  AbstractWorkflow chain(int n, const std::string& name = "wf") {
    AbstractWorkflow wf(name);
    wf.declare_file(name + ".m0", 490000);
    rc.register_replica(name + ".m0", pool.submit_staging());
    pool.submit_staging().put_instant({name + ".m0", 490000});
    for (int i = 0; i < n; ++i) {
      const std::string b = name + ".b" + std::to_string(i);
      const std::string out = name + ".m" + std::to_string(i + 1);
      wf.declare_file(b, 490000);
      wf.declare_file(out, 490000);
      rc.register_replica(b, pool.submit_staging());
      pool.submit_staging().put_instant({b, 490000});
      AbstractJob job;
      job.id = name + ".t" + std::to_string(i);
      job.transformation = "matmul";
      job.uses = {{name + ".m" + std::to_string(i), LinkType::kInput},
                  {b, LinkType::kInput},
                  {out, LinkType::kOutput}};
      wf.add_job(std::move(job));
    }
    return wf;
  }

  bool run_plan(const Plan& plan, condor::DagMan& dag) {
    plan.load_into(dag);
    bool ok = false;
    bool finished = false;
    dag.run([&](bool success) {
      ok = success;
      finished = true;
    });
    sim.run();
    EXPECT_TRUE(finished);
    return ok;
  }
};

TEST_F(PlannerTest, NativePlanShape) {
  const auto wf = chain(3);
  Planner planner(wf, tc, rc, pool, PlannerOptions{});
  const Plan plan = planner.plan();
  EXPECT_EQ(plan.stage_in_jobs, 1u);
  EXPECT_EQ(plan.compute_jobs, 3u);
  EXPECT_EQ(plan.stage_out_jobs, 1u);
  EXPECT_EQ(plan.nodes.size(), 5u);
}

TEST_F(PlannerTest, NativePlanRunsToCompletion) {
  const auto wf = chain(3);
  Planner planner(wf, tc, rc, pool, PlannerOptions{});
  condor::DagMan dag(pool);
  EXPECT_TRUE(run_plan(planner.plan(), dag));
  // Final output registered back into the replica catalog.
  EXPECT_TRUE(rc.has("wf.m3"));
  EXPECT_TRUE(pool.submit_staging().contains("wf.m3"));
}

TEST_F(PlannerTest, ContainerModeRunsAndPaysImageTransfer) {
  const auto wf = chain(2);
  PlannerOptions native_opts;
  Planner native_planner(wf, tc, rc, pool, native_opts);
  condor::DagMan native_dag(pool);
  EXPECT_TRUE(run_plan(native_planner.plan(), native_dag));
  const double native_time = native_dag.makespan();

  // Fresh state for the containerized run.
  sim::Simulation sim2;
  auto cl2 = cluster::make_paper_testbed(sim2);
  condor::CondorPool pool2{*cl2, cl2->node(0),
                           {&cl2->node(1), &cl2->node(2), &cl2->node(3)}};
  container::Registry hub2{cl2->node(0)};
  hub2.push(container::make_task_image("matmul"));
  DockerEnv docker2{*cl2, pool2};
  storage::ReplicaCatalog rc2;

  AbstractWorkflow wf2("wf2");
  wf2.declare_file("wf2.m0", 490000);
  pool2.submit_staging().put_instant({"wf2.m0", 490000});
  rc2.register_replica("wf2.m0", pool2.submit_staging());
  for (int i = 0; i < 2; ++i) {
    const std::string b = "wf2.b" + std::to_string(i);
    const std::string out = "wf2.m" + std::to_string(i + 1);
    wf2.declare_file(b, 490000);
    wf2.declare_file(out, 490000);
    pool2.submit_staging().put_instant({b, 490000});
    rc2.register_replica(b, pool2.submit_staging());
    AbstractJob job;
    job.id = "wf2.t" + std::to_string(i);
    job.transformation = "matmul";
    job.uses = {{"wf2.m" + std::to_string(i), LinkType::kInput},
                {b, LinkType::kInput},
                {out, LinkType::kOutput}};
    wf2.add_job(std::move(job));
  }
  PlannerOptions copts;
  copts.default_mode = JobMode::kContainer;
  copts.registry = &hub2;
  copts.docker = &docker2;
  Planner cplanner(wf2, tc, rc2, pool2, copts);
  condor::DagMan cdag(pool2);
  const Plan cplan = cplanner.plan();
  cplan.load_into(cdag);
  bool ok = false;
  cdag.run([&](bool success) { ok = success; });
  sim2.run();
  EXPECT_TRUE(ok);
  // DAGMan's 5 s scan quantizes makespans, so compare per-task execution
  // time: the containerized task pays docker load + container lifecycle
  // on top of the same compute.
  EXPECT_LE(cdag.makespan(), native_time + 10.0);  // same order of magnitude
  const condor::JobRecord* native_rec = native_dag.node_record("wf.t0");
  const condor::JobRecord* container_rec = cdag.node_record("wf2.t0");
  ASSERT_NE(native_rec, nullptr);
  ASSERT_NE(container_rec, nullptr);
  const double native_exec = native_rec->end_time - native_rec->start_time;
  const double container_exec =
      container_rec->end_time - container_rec->start_time;
  // docker load (~0.48 s) + lifecycle (~0.31 s) over the same compute.
  EXPECT_GT(container_exec, native_exec + 0.7);
}

TEST_F(PlannerTest, ModeOverridesPerJob) {
  const auto wf = chain(2);
  PlannerOptions opts;
  opts.default_mode = JobMode::kNative;
  opts.mode_overrides["wf.t1"] = JobMode::kContainer;
  opts.registry = &hub;
  opts.docker = &docker;
  Planner planner(wf, tc, rc, pool, opts);
  condor::DagMan dag(pool);
  EXPECT_TRUE(run_plan(planner.plan(), dag));
}

TEST_F(PlannerTest, ContainerModeWithoutDockerThrows) {
  const auto wf = chain(1);
  PlannerOptions opts;
  opts.default_mode = JobMode::kContainer;
  Planner planner(wf, tc, rc, pool, opts);
  EXPECT_THROW(planner.plan(), std::invalid_argument);
}

TEST_F(PlannerTest, ServerlessModeWithoutFactoryThrows) {
  const auto wf = chain(1);
  PlannerOptions opts;
  opts.default_mode = JobMode::kServerless;
  Planner planner(wf, tc, rc, pool, opts);
  EXPECT_THROW(planner.plan(), std::invalid_argument);
}

TEST_F(PlannerTest, ServerlessFactoryIsInvokedPerTask) {
  const auto wf = chain(3);
  int factory_calls = 0;
  PlannerOptions opts;
  opts.default_mode = JobMode::kServerless;
  opts.serverless_factory =
      [&factory_calls](const AbstractJob&, const Transformation&,
                       std::vector<storage::FileRef> ins,
                       std::vector<storage::FileRef>) -> condor::JobExecutable {
    ++factory_calls;
    EXPECT_EQ(ins.size(), 2u);
    // Trivial stand-in: instantly succeed and write nothing — the DAG
    // fails at stage-out, which is fine for this shape test.
    return [](condor::ExecContext&, std::function<void(bool)> done) {
      done(true);
    };
  };
  Planner planner(wf, tc, rc, pool, opts);
  const Plan plan = planner.plan();
  EXPECT_EQ(factory_calls, 3);
  EXPECT_EQ(plan.compute_jobs, 3u);
}

TEST_F(PlannerTest, ClusteringMergesChains) {
  const auto wf = chain(6);
  PlannerOptions opts;
  opts.cluster_size = 3;
  Planner planner(wf, tc, rc, pool, opts);
  const Plan plan = planner.plan();
  // 6 chain tasks → 2 clustered jobs.
  EXPECT_EQ(plan.compute_jobs, 2u);
  EXPECT_EQ(plan.clustered_tasks, 6u);
  condor::DagMan dag(pool);
  EXPECT_TRUE(run_plan(plan, dag));
  EXPECT_TRUE(pool.submit_staging().contains("wf.m6"));
}

TEST_F(PlannerTest, ClusteringReducesMakespan) {
  // Same chain, clustered vs not: fewer condor jobs → fewer scheduling
  // round-trips → faster (the paper's §II-C claim about task clustering).
  const auto wf = chain(6, "plain");
  Planner p1(wf, tc, rc, pool, PlannerOptions{});
  condor::DagMan d1(pool);
  EXPECT_TRUE(run_plan(p1.plan(), d1));

  const auto wf2 = chain(6, "clustered");
  PlannerOptions opts;
  opts.cluster_size = 6;
  Planner p2(wf2, tc, rc, pool, opts);
  condor::DagMan d2(pool);
  EXPECT_TRUE(run_plan(p2.plan(), d2));
  // 6 scheduling hops collapse into one: 50 s → 25 s on the testbed.
  EXPECT_LE(d2.makespan(), d1.makespan() / 2);
}

TEST_F(PlannerTest, MissingReplicaFailsStageIn) {
  AbstractWorkflow wf("broken");
  wf.declare_file("nowhere.dat", 100);
  wf.declare_file("out.dat", 100);
  AbstractJob job;
  job.id = "t";
  job.transformation = "matmul";
  job.uses = {{"nowhere.dat", LinkType::kInput},
              {"out.dat", LinkType::kOutput}};
  wf.add_job(std::move(job));
  Planner planner(wf, tc, rc, pool, PlannerOptions{});
  condor::DagMan dag(pool);
  EXPECT_FALSE(run_plan(planner.plan(), dag));
}

TEST_F(PlannerTest, StageInFetchesFromRemoteReplica) {
  // The initial input lives on node2; stage-in must move it to staging.
  storage::Volume remote(cl->node(2), "archive");
  AbstractWorkflow wf("remote");
  wf.declare_file("remote.m0", 490000);
  wf.declare_file("remote.out", 490000);
  remote.put_instant({"remote.m0", 490000});
  rc.register_replica("remote.m0", remote);
  AbstractJob job;
  job.id = "remote.t0";
  job.transformation = "matmul";
  job.uses = {{"remote.m0", LinkType::kInput},
              {"remote.out", LinkType::kOutput}};
  wf.add_job(std::move(job));
  Planner planner(wf, tc, rc, pool, PlannerOptions{});
  condor::DagMan dag(pool);
  EXPECT_TRUE(run_plan(planner.plan(), dag));
  EXPECT_TRUE(pool.submit_staging().contains("remote.m0"));
}

TEST_F(PlannerTest, StatisticsSummarizeRecords) {
  const auto wf = chain(3);
  Planner planner(wf, tc, rc, pool, PlannerOptions{});
  const Plan plan = planner.plan();
  condor::DagMan dag(pool);
  EXPECT_TRUE(run_plan(plan, dag));
  std::vector<std::string> names;
  for (const auto& n : plan.nodes) names.push_back(n.name);
  const auto rows = collect_gantt(dag, names);
  EXPECT_EQ(rows.size(), 5u);
  EXPECT_GT(dag.makespan(), 0);
  double queue_wait = 0;
  double exec_time = 0;
  for (const GanttRow& row : rows) {
    queue_wait += row.queue_wait();
    exec_time += row.exec_time();
  }
  EXPECT_GT(queue_wait, 0);
  EXPECT_GT(exec_time, 0);
}

TEST_F(PlannerTest, JobModeNames) {
  EXPECT_STREQ(to_string(JobMode::kNative), "native");
  EXPECT_STREQ(to_string(JobMode::kContainer), "container");
  EXPECT_STREQ(to_string(JobMode::kServerless), "serverless");
}

// ---- Pinned plans -----------------------------------------------------------

/// Planning-only fixture: three transformations of different memory sizes
/// and a stand-in serverless factory, so plans vary in request_memory and
/// in where a mode switch breaks a chain. Nothing here runs a plan.
class PlannerEquivalence : public ::testing::Test {
 protected:
  sim::Simulation sim;
  std::unique_ptr<cluster::Cluster> cl = cluster::make_paper_testbed(sim);
  condor::CondorPool pool{*cl, cl->node(0),
                          {&cl->node(1), &cl->node(2), &cl->node(3)}};
  TransformationCatalog tc;
  storage::ReplicaCatalog rc;

  void SetUp() override {
    const double memory[] = {256e6, 1e9, 2e9};
    for (int i = 0; i < 3; ++i) {
      Transformation t;
      t.name = "tf";
      t.name += std::to_string(i);
      t.memory_bytes = memory[i];
      tc.add(t);
    }
  }

  PlannerOptions options(int cluster_size,
                         std::map<std::string, JobMode> overrides = {}) {
    PlannerOptions opts;
    opts.cluster_size = cluster_size;
    opts.mode_overrides = std::move(overrides);
    opts.serverless_factory = [](const AbstractJob&, const Transformation&,
                                 std::vector<storage::FileRef>,
                                 std::vector<storage::FileRef>) {
      return [](condor::ExecContext&, std::function<void(bool)> done) {
        done(true);
      };
    };
    return opts;
  }

  /// 3-62 jobs. Each reads one to three files: usually the latest output
  /// (chains), otherwise a random earlier output (multi-reader files) or
  /// an initial input; each writes one or two. One job in five runs
  /// serverless. With `read_backs`, one job in three (never the last)
  /// also reads back its first output, and the next job reads it too: a
  /// self-reading job is its own parent, and without a second reader it
  /// would close a chain cycle, which the planner rejects.
  AbstractWorkflow random_workflow(std::uint64_t seed,
                                   std::map<std::string, JobMode>& modes,
                                   bool read_backs = false) {
    fault::SplitMix64 rng(fault::SplitMix64::mix(seed, 0x9E6A));
    std::string name = "wf";
    name += std::to_string(seed);
    AbstractWorkflow wf(name);
    auto bytes = [&rng] {
      return 1e3 * static_cast<double>(1 + rng.next_below(1000));
    };
    std::vector<std::string> initial;
    const std::size_t n_initial = 1 + rng.next_below(4);
    for (std::size_t i = 0; i < n_initial; ++i) {
      initial.push_back(name + ".in" + std::to_string(i));
      wf.declare_file(initial.back(), bytes());
    }
    std::vector<std::string> produced;
    std::string read_back;  // the previous job's read-back output
    const std::size_t n_jobs = 3 + rng.next_below(60);
    for (std::size_t j = 0; j < n_jobs; ++j) {
      AbstractJob job;
      job.id = name + ".t" + std::to_string(j);
      job.transformation = "tf" + std::to_string(rng.next_below(3));
      const std::size_t n_in = 1 + rng.next_below(3);
      for (std::size_t k = 0; k < n_in; ++k) {
        const std::uint64_t pick = rng.next_below(10);
        std::string lfn;
        if (pick < 5 && !produced.empty()) {
          lfn = produced.back();
        } else if (pick < 8 && !produced.empty()) {
          lfn = produced[rng.next_below(produced.size())];
        } else {
          lfn = initial[rng.next_below(initial.size())];
        }
        const bool seen = std::any_of(
            job.uses.begin(), job.uses.end(),
            [&lfn](const Use& use) { return use.lfn == lfn; });
        if (!seen) job.uses.push_back({lfn, LinkType::kInput});
      }
      if (!read_back.empty()) {
        const bool seen = std::any_of(
            job.uses.begin(), job.uses.end(),
            [&read_back](const Use& use) { return use.lfn == read_back; });
        if (!seen) job.uses.push_back({read_back, LinkType::kInput});
        read_back.clear();
      }
      const std::size_t n_out = 1 + rng.next_below(2);
      for (std::size_t k = 0; k < n_out; ++k) {
        std::string lfn = job.id + ".o" + std::to_string(k);
        wf.declare_file(lfn, bytes());
        job.uses.push_back({lfn, LinkType::kOutput});
        produced.push_back(std::move(lfn));
      }
      if (read_backs && j + 1 < n_jobs && rng.next_below(3) == 0) {
        read_back = job.id + ".o0";
        job.uses.push_back({read_back, LinkType::kInput});
      }
      if (rng.next_below(5) == 0) modes[job.id] = JobMode::kServerless;
      wf.add_job(std::move(job));
    }
    return wf;
  }
};

/// Order-sensitive digest of every node's name, parents, sized inputs,
/// outputs and request_memory, plus the plan's job counts.
std::uint64_t plan_digest(const Plan& plan) {
  std::uint64_t h = plan.nodes.size();
  auto fold = [&h](std::uint64_t v) { h = fault::SplitMix64::mix(h, v); };
  auto fold_str = [&fold](std::string_view s) {
    std::uint64_t fnv = 0xcbf29ce484222325ull;
    for (const char c : s) {
      fnv = (fnv ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
    }
    fold(fnv);
  };
  for (const condor::DagNode& node : plan.nodes) {
    fold_str(node.name);
    fold(node.parents.size());
    for (const auto& p : node.parents) fold_str(p);
    fold(node.job.inputs.size());
    for (const auto& in : node.job.inputs) {
      fold_str(in.lfn);
      fold(std::bit_cast<std::uint64_t>(in.bytes));
    }
    fold(node.job.outputs.size());
    for (const auto& out : node.job.outputs) fold_str(out);
    fold(std::bit_cast<std::uint64_t>(node.job.request_memory));
  }
  fold(plan.stage_in_jobs);
  fold(plan.compute_jobs);
  fold(plan.stage_out_jobs);
  fold(plan.clustered_tasks);
  return h;
}

// Plans feed every DAG result: which files a job stages and which jobs it
// waits on set its timing. 32 random workflows, each planned at cluster
// sizes 1-4, pin that output byte for byte.
TEST_F(PlannerEquivalence, PinnedPlansAreUnchanged) {
  std::uint64_t h = 0;
  std::size_t nodes = 0;
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    std::map<std::string, JobMode> modes;
    const AbstractWorkflow wf = random_workflow(seed, modes);
    for (int k = 1; k <= 4; ++k) {
      Planner planner(wf, tc, rc, pool, options(k, modes));
      const Plan plan = planner.plan();
      nodes += plan.nodes.size();
      h = fault::SplitMix64::mix(h, plan_digest(plan));
    }
  }
  EXPECT_EQ(nodes, 3554u);
  EXPECT_EQ(h, 0x7f364b3ae7d23a66ull);
}

// The same pin over workflows with read-backs: a job that reads back its
// own output, which a later job may also read, gives a clustered output
// read both inside and outside its cluster. Such a file must still be
// staged out.
TEST_F(PlannerEquivalence, PinnedPlansWithReadBacksAreUnchanged) {
  std::uint64_t h = 0;
  std::size_t nodes = 0;
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    std::map<std::string, JobMode> modes;
    const AbstractWorkflow wf = random_workflow(seed, modes, true);
    for (int k = 1; k <= 4; ++k) {
      Planner planner(wf, tc, rc, pool, options(k, modes));
      const Plan plan = planner.plan();
      nodes += plan.nodes.size();
      h = fault::SplitMix64::mix(h, plan_digest(plan));
    }
  }
  EXPECT_EQ(nodes, 3902u);
  EXPECT_EQ(h, 0x11f1b14ea74da67bull);
}

/// The planned node called `name`.
const condor::DagNode& node_named(const Plan& plan, const std::string& name) {
  const auto it = std::find_if(
      plan.nodes.begin(), plan.nodes.end(),
      [&name](const condor::DagNode& n) { return n.name == name; });
  EXPECT_NE(it, plan.nodes.end()) << name;
  return *it;
}

// a -> b clusters at size 2. a's "mid" is read only by b, inside the
// cluster, so it never leaves the worker; b's "out" is read by c outside
// the cluster, and a's "log" by nobody, so both are staged out, and "log"
// is a final output that the stage-out job waits for.
TEST_F(PlannerEquivalence, ClusterStagesOutExactlyItsExternalOutputs) {
  AbstractWorkflow wf("cl");
  for (const char* lfn : {"in", "mid", "log", "out", "final"}) {
    wf.declare_file(lfn, 100);
  }
  wf.add_job({"a", "tf0", {{"in", LinkType::kInput},
                           {"mid", LinkType::kOutput},
                           {"log", LinkType::kOutput}}});
  wf.add_job({"b", "tf0", {{"mid", LinkType::kInput},
                           {"out", LinkType::kOutput}}});
  wf.add_job({"c", "tf0", {{"out", LinkType::kInput},
                           {"final", LinkType::kOutput}}});
  Planner planner(wf, tc, rc, pool, options(2));
  const Plan plan = planner.plan();
  const condor::DagNode& ab = node_named(plan, "cluster_a_b");
  EXPECT_EQ(ab.job.outputs, (std::vector<std::string>{"log", "out"}));
  ASSERT_EQ(ab.job.inputs.size(), 1u);
  EXPECT_EQ(ab.job.inputs[0].lfn, "in");
  const condor::DagNode& c = node_named(plan, "c");
  EXPECT_EQ(c.parents, (std::vector<std::string>{"cluster_a_b"}));
  const condor::DagNode& out = node_named(plan, "stage_out_cl");
  EXPECT_EQ(out.parents, (std::vector<std::string>{"c", "cluster_a_b"}));
}

// A vertical cluster is a chain, so only a job that reads back its own
// output has a reader of that file inside its group and another outside.
// The file still leaves the job: one outside reader is enough.
TEST_F(PlannerEquivalence, OutputReadInsideAndOutsideIsStagedOut) {
  AbstractWorkflow wf("io");
  for (const char* lfn : {"in", "scratch", "shared", "res"}) {
    wf.declare_file(lfn, 100);
  }
  wf.add_job({"s", "tf0", {{"in", LinkType::kInput},
                           {"scratch", LinkType::kOutput},
                           {"scratch", LinkType::kInput},
                           {"shared", LinkType::kOutput},
                           {"shared", LinkType::kInput}}});
  wf.add_job({"r", "tf0", {{"shared", LinkType::kInput},
                           {"res", LinkType::kOutput}}});
  for (int k = 1; k <= 2; ++k) {
    Planner planner(wf, tc, rc, pool, options(k));
    const Plan plan = planner.plan();
    const condor::DagNode& s = node_named(plan, "s");
    EXPECT_EQ(s.job.outputs, (std::vector<std::string>{"shared"})) << k;
    EXPECT_EQ(s.parents, (std::vector<std::string>{"stage_in_io"})) << k;
    EXPECT_EQ(node_named(plan, "stage_out_io").parents,
              (std::vector<std::string>{"r"}))
        << k;
  }
}

}  // namespace
}  // namespace sf::pegasus
