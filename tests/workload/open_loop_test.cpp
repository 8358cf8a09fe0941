#include "workload/open_loop.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <vector>

#include "container/image.hpp"
#include "sim/simulation.hpp"

namespace sf::workload {
namespace {

/// Minimal serving stack: 4-node cluster, node0 = gateway/registry, one
/// warm "fn" service whose handler burns the request body's core-seconds
/// and echoes the payload.
struct ServingHarness {
  sim::Simulation sim;
  std::unique_ptr<cluster::Cluster> cl = cluster::make_paper_testbed(sim);
  container::Registry hub{cl->node(0)};
  k8s::KubeCluster kube{*cl, hub, {&cl->node(1), &cl->node(2), &cl->node(3)}};
  knative::KnativeServing serving{kube, cl->node(0)};

  explicit ServingHarness(int warm_pods = 2, int concurrency = 0) {
    hub.push(container::make_task_image("fn"));
    knative::KnServiceSpec s = compute_service("fn");
    s.annotations.min_scale = warm_pods;
    s.annotations.container_concurrency = concurrency;
    serving.create_service(std::move(s));
    sim.run_until(30.0);  // warm pods ready, autoscaler settled
  }

  [[nodiscard]] net::NodeId client() { return cl->node(0).net_id(); }
};

OpenLoopConfig small_config(std::uint64_t seed = 7) {
  OpenLoopConfig cfg;
  cfg.users = 4;
  cfg.rate_hz = 2.0;
  cfg.horizon_s = 20.0;
  cfg.services = {"fn"};
  cfg.work_s = 0.01;
  cfg.payload_bytes = 1000;
  cfg.seed = seed;
  cfg.record_requests = true;
  return cfg;
}

TEST(OpenLoopEngine, PoissonArrivalsAreSeedDeterministic) {
  std::vector<double> times[2];
  std::uint64_t fp[2] = {0, 0};
  for (int run = 0; run < 2; ++run) {
    ServingHarness h;
    OpenLoopEngine engine(h.serving, h.client(), small_config());
    engine.start();
    h.sim.run_until(h.sim.now() + 120.0);
    ASSERT_TRUE(engine.quiesced());
    for (const auto& a : engine.issued_log()) times[run].push_back(a.time);
    fp[run] = engine.fingerprint();
  }
  ASSERT_FALSE(times[0].empty());
  EXPECT_EQ(times[0], times[1]);
  EXPECT_EQ(fp[0], fp[1]);
}

TEST(OpenLoopEngine, ArrivalsIndependentOfServiceTime) {
  // The open-loop property: making the service 50x slower must not move a
  // single arrival — users fire on their own clocks, not on completions.
  std::vector<double> times[2];
  const double work[2] = {0.01, 0.5};
  for (int run = 0; run < 2; ++run) {
    ServingHarness h;
    OpenLoopConfig cfg = small_config();
    cfg.work_s = work[run];
    OpenLoopEngine engine(h.serving, h.client(), cfg);
    engine.start();
    h.sim.run_until(h.sim.now() + 300.0);
    EXPECT_TRUE(engine.quiesced());
    for (const auto& a : engine.issued_log()) times[run].push_back(a.time);
  }
  ASSERT_FALSE(times[0].empty());
  EXPECT_EQ(times[0], times[1]);
}

TEST(OpenLoopEngine, AllRequestsCompleteAgainstWarmService) {
  ServingHarness h;
  OpenLoopEngine engine(h.serving, h.client(), small_config());
  engine.start();
  h.sim.run_until(h.sim.now() + 120.0);
  const auto& s = engine.stats();
  EXPECT_TRUE(engine.quiesced());
  EXPECT_GT(s.issued, 0u);
  EXPECT_EQ(s.completed, s.issued);
  EXPECT_EQ(s.ok, s.issued);
  EXPECT_EQ(s.errors, 0u);
  EXPECT_GT(s.latency_max_s, 0.0);
  EXPECT_GE(s.latency_sum_s, s.latency_max_s);
  const auto latencies = engine.sorted_latencies();
  EXPECT_EQ(latencies.size(), s.completed);
  EXPECT_TRUE(std::is_sorted(latencies.begin(), latencies.end()));
}

TEST(OpenLoopEngine, PoissonRateMatchesConfiguredMean) {
  ServingHarness h;
  OpenLoopConfig cfg = small_config(11);
  cfg.users = 8;
  cfg.rate_hz = 4.0;
  cfg.horizon_s = 50.0;
  OpenLoopEngine engine(h.serving, h.client(), cfg);
  engine.start();
  h.sim.run_until(h.sim.now() + 400.0);
  // Expected arrivals: users * rate * horizon = 1600; Poisson sd ~40.
  const double expected = cfg.users * cfg.rate_hz * cfg.horizon_s;
  EXPECT_NEAR(static_cast<double>(engine.stats().issued), expected,
              5 * std::sqrt(expected));
}

TEST(OpenLoopEngine, MaxRequestsCapsTotalLoad) {
  ServingHarness h;
  OpenLoopConfig cfg = small_config();
  cfg.max_requests = 5;
  OpenLoopEngine engine(h.serving, h.client(), cfg);
  engine.start();
  h.sim.run_until(h.sim.now() + 120.0);
  EXPECT_EQ(engine.stats().issued, 5u);
  EXPECT_EQ(engine.stats().completed, 5u);
}

TEST(OpenLoopEngine, TraceReplayFiresAtListedTimes) {
  ServingHarness h;
  OpenLoopConfig cfg;
  cfg.record_requests = true;
  cfg.trace = {{0.5, 0, "fn"}, {1.25, 1, "fn"}, {1.25, 0, "fn"},
               {3.0, 2, "fn"}};
  OpenLoopEngine engine(h.serving, h.client(), cfg);
  const double t0 = h.sim.now();
  engine.start();
  h.sim.run_until(t0 + 60.0);
  ASSERT_TRUE(engine.quiesced());
  const auto& log = engine.issued_log();
  ASSERT_EQ(log.size(), 4u);
  EXPECT_DOUBLE_EQ(log[0].time, t0 + 0.5);
  EXPECT_DOUBLE_EQ(log[1].time, t0 + 1.25);
  EXPECT_DOUBLE_EQ(log[2].time, t0 + 1.25);
  EXPECT_DOUBLE_EQ(log[3].time, t0 + 3.0);
  EXPECT_EQ(log[1].user, 1);
  EXPECT_EQ(log[2].user, 0);
  EXPECT_EQ(log[3].service, "fn");
}

TEST(OpenLoopEngine, RejectsDegenerateConfigs) {
  ServingHarness h;
  OpenLoopConfig cfg;  // no services, no trace
  EXPECT_THROW(OpenLoopEngine(h.serving, h.client(), cfg),
               std::invalid_argument);
  cfg.services = {"fn"};
  cfg.rate_hz = 0;
  EXPECT_THROW(OpenLoopEngine(h.serving, h.client(), cfg),
               std::invalid_argument);
  cfg.rate_hz = 1.0;
  cfg.users = 0;
  EXPECT_THROW(OpenLoopEngine(h.serving, h.client(), cfg),
               std::invalid_argument);
}

TEST(OpenLoopTrace, ParsesWellFormedInput) {
  std::istringstream in(
      "# arrival trace\n"
      "\n"
      "0.0 0 fn\n"
      "0.5 1 fn\n"
      "  2.5 0 other\n");
  const auto trace = load_arrival_trace(in);
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_DOUBLE_EQ(trace[0].time, 0.0);
  EXPECT_EQ(trace[1].user, 1);
  EXPECT_EQ(trace[2].service, "other");
}

TEST(OpenLoopTrace, RejectsMalformedInput) {
  std::istringstream bad_fields("0.0 zero fn\n");
  EXPECT_THROW(load_arrival_trace(bad_fields), std::invalid_argument);
  std::istringstream negative("-1.0 0 fn\n");
  EXPECT_THROW(load_arrival_trace(negative), std::invalid_argument);
  std::istringstream unsorted("2.0 0 fn\n1.0 0 fn\n");
  EXPECT_THROW(load_arrival_trace(unsorted), std::invalid_argument);
}

}  // namespace
}  // namespace sf::workload
