#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "container/image.hpp"
#include "k8s/api_server.hpp"
#include "k8s/controllers.hpp"
#include "k8s/kube_cluster.hpp"
#include "sim/simulation.hpp"

namespace sf::k8s {
namespace {

/// Complexity regression tests: probe counters (not timing) pin the
/// per-tick cost of the control-plane hot paths to what changed, not to
/// cluster or store size.
class ComplexityTest : public ::testing::Test {
 protected:
  sim::Simulation sim;
  ApiServer api{sim};

  void register_nodes(int n) {
    for (int i = 0; i < n; ++i) {
      NodeObject node;
      node.name = "node" + std::to_string(i);
      node.allocatable_cpu = 64;
      node.allocatable_memory = 256e9;
      api.register_node(node);
    }
  }

  void bind_running_pod(const std::string& pod, const std::string& node) {
    Pod p;
    p.name = pod;
    p.container.image = "matmul:latest";
    api.create_pod(std::move(p));
    api.mutate_pod(pod, [&node](Pod& mp) {
      mp.node_name = node;
      mp.phase = PodPhase::kRunning;
      mp.ready = true;
    });
  }
};

TEST_F(ComplexityTest, SweepExaminesEachRegisteredNodeOncePerSweep) {
  register_nodes(512);
  NodeLifecycleConfig cfg;
  cfg.lease_duration_s = 1e9;  // nothing ever expires
  cfg.sweep_interval_s = 1.0;
  NodeLifecycleController ctl{api, cfg};
  sim.run_until(49.5);  // sweeps at t = 0, 1, ..., 49
  EXPECT_EQ(ctl.sweep_probes(), 50u * 512u);
  EXPECT_EQ(ctl.not_ready_transitions(), 0u);
  EXPECT_EQ(ctl.evictions(), 0u);
}

TEST_F(ComplexityTest, EvictionExaminesOnlyTheAffectedNodesPods) {
  constexpr int kNodes = 4;
  constexpr int kPodsPerNode = 8;
  register_nodes(kNodes);
  for (int n = 0; n < kNodes; ++n) {
    for (int p = 0; p < kPodsPerNode; ++p) {
      bind_running_pod("p" + std::to_string(n) + "-" + std::to_string(p),
                       "node" + std::to_string(n));
    }
  }
  NodeLifecycleConfig cfg;
  cfg.lease_duration_s = 4.0;
  cfg.sweep_interval_s = 1.0;
  NodeLifecycleController ctl{api, cfg};
  // Heartbeats for every node but node3, whose lease goes stale and
  // expires at the t=5 sweep.
  for (int t = 1; t <= 10; ++t) {
    sim.call_in(static_cast<double>(t), [this] {
      for (int n = 0; n < kNodes - 1; ++n) {
        api.renew_node_lease("node" + std::to_string(n));
      }
    });
  }
  sim.run_until(10.0);
  EXPECT_EQ(ctl.not_ready_transitions(), 1u);
  EXPECT_EQ(ctl.evictions(), static_cast<std::uint64_t>(kPodsPerNode));
  // The complexity claim: eviction examined node3's pods only — 8 pods
  // handed to the controller, not the 32 in the store.
  EXPECT_EQ(ctl.eviction_probes(), static_cast<std::uint64_t>(kPodsPerNode));
}

TEST_F(ComplexityTest, ReconcileTouchesOnlyTheOwningDeploymentsPods) {
  DeploymentController ctl{api};
  auto make_deployment = [](const std::string& name, int replicas) {
    Deployment d;
    d.name = name;
    d.selector = {{"app", name}};
    d.pod_labels = {{"app", name}};
    d.pod_template.name = name;
    d.pod_template.image = name + ":latest";
    d.replicas = replicas;
    return d;
  };
  api.apply_deployment(make_deployment("big", 32));
  api.apply_deployment(make_deployment("small", 4));
  sim.run_until(30.0);
  ASSERT_EQ(api.list_pods().size(), 36u);

  const std::uint64_t before = ctl.reconcile_probes();
  api.apply_deployment(make_deployment("small", 6));
  sim.run_until(60.0);
  // One reconcile of "small" via the owner index: its 4 live pods
  // examined, none of big's 32.
  EXPECT_EQ(ctl.reconcile_probes() - before, 4u);
  EXPECT_EQ(api.list_pods().size(), 38u);
}

/// The lifecycle sweep's observable contract: which nodes flip, at which
/// sweep, and in what order a node watch sees them. Default config: 4 s
/// leases, sweeps at every whole second from t = 0.
class NodeLifecycleTest : public ::testing::Test {
 protected:
  sim::Simulation sim;
  ApiServer api{sim};
  std::vector<std::string> seen;  ///< node watch events, "name:ready" etc.

  NodeLifecycleTest() {
    api.watch_nodes([this](EventType, const NodeObject& node) {
      seen.push_back(node.name + (node.ready ? ":ready" : ":not-ready"));
    });
  }

  void register_node(const std::string& name) {
    NodeObject node;
    node.name = name;
    node.allocatable_cpu = 64;
    node.allocatable_memory = 256e9;
    api.register_node(node);
  }

  [[nodiscard]] bool ready(const std::string& name) const {
    bool r = false;
    api.for_each_node([&](std::uint32_t, const NodeObject& node,
                          const ApiServer::NodeUsage&) {
      if (node.name == name) r = node.ready;
    });
    return r;
  }
};

TEST_F(NodeLifecycleTest, TransitionsFollowNameOrderNotRegistrationOrder) {
  register_node("node9");
  register_node("node10");
  register_node("node1");
  NodeLifecycleController ctl{api};
  sim.run_until(5.5);  // the t=5 sweep finds every lease 5 s old
  EXPECT_EQ(seen, (std::vector<std::string>{"node1:not-ready",
                                            "node10:not-ready",
                                            "node9:not-ready"}));
  seen.clear();
  sim.call_at(6.25, [this] {
    for (const char* n : {"node9", "node10", "node1"}) api.renew_node_lease(n);
  });
  sim.run_until(7.5);  // the t=7 sweep finds every lease fresh again
  EXPECT_EQ(seen, (std::vector<std::string>{"node1:ready", "node10:ready",
                                            "node9:ready"}));
  EXPECT_EQ(ctl.not_ready_transitions(), 3u);
}

TEST_F(NodeLifecycleTest, LeaseAgedExactlyTheDurationIsNotExpired) {
  register_node("n");
  NodeLifecycleController ctl{api};
  sim.run_until(4.5);  // t=4 sweep: now - lease == duration
  EXPECT_EQ(ctl.not_ready_transitions(), 0u);
  EXPECT_TRUE(ready("n"));
  sim.run_until(5.5);  // t=5 sweep: now - lease > duration
  EXPECT_EQ(ctl.not_ready_transitions(), 1u);
  EXPECT_FALSE(ready("n"));
}

TEST_F(NodeLifecycleTest, ExpiringNodeIsNotAlsoRecoveredInTheSameSweep) {
  register_node("a");
  register_node("b");
  for (int t = 1; t <= 10; ++t) {
    sim.call_at(t, [this] { api.renew_node_lease("a"); });
  }
  sim.call_at(4.5, [this] { api.set_node_ready("a", false); });
  NodeLifecycleController ctl{api};
  sim.run_until(5.5);
  // The t=5 sweep expires b and recovers a: expiries apply first, and b
  // flips exactly once.
  EXPECT_EQ(seen, (std::vector<std::string>{"a:not-ready", "b:not-ready",
                                            "a:ready"}));
  EXPECT_FALSE(ready("b"));
  sim.run_until(9.5);  // b stays stale: no further flips either way
  EXPECT_EQ(seen.size(), 3u);
  EXPECT_EQ(ctl.not_ready_transitions(), 1u);
}

TEST_F(NodeLifecycleTest, NodeSetNotReadyWithAFreshLeaseRecoversAtNextSweep) {
  register_node("n");
  for (int t = 1; t <= 10; ++t) {
    sim.call_at(t, [this] { api.renew_node_lease("n"); });
  }
  NodeLifecycleController ctl{api};
  sim.call_at(2.5, [this] { api.set_node_ready("n", false); });
  sim.run_until(2.75);
  EXPECT_FALSE(ready("n"));
  sim.run_until(3.5);
  EXPECT_TRUE(ready("n"));
  EXPECT_EQ(seen, (std::vector<std::string>{"n:not-ready", "n:ready"}));
  EXPECT_EQ(ctl.not_ready_transitions(), 0u);
}

TEST_F(NodeLifecycleTest, ReRegisteringANodeRefreshesItsLease) {
  register_node("n");
  NodeLifecycleController ctl{api};
  sim.run_until(3.5);
  EXPECT_DOUBLE_EQ(api.node_lease("n"), 0.0);
  register_node("n");
  EXPECT_DOUBLE_EQ(api.node_lease("n"), 3.5);
  sim.run_until(7.5);  // t=7 sweep: 3.5 s old
  EXPECT_EQ(ctl.not_ready_transitions(), 0u);
  sim.run_until(8.5);  // t=8 sweep: 4.5 s old
  EXPECT_EQ(ctl.not_ready_transitions(), 1u);
  EXPECT_FALSE(ready("n"));
  // Re-registering a NotReady node makes it Ready with a fresh lease; it
  // expires again only once that lease is stale.
  register_node("n");
  EXPECT_TRUE(ready("n"));
  EXPECT_DOUBLE_EQ(api.node_lease("n"), 8.5);
  sim.run_until(12.5);
  EXPECT_EQ(ctl.not_ready_transitions(), 1u);
  sim.run_until(13.5);
  EXPECT_EQ(ctl.not_ready_transitions(), 2u);
}

TEST_F(NodeLifecycleTest, LostNodesEvictOnlyTheirOwnPodsInNameOrder) {
  for (const char* n : {"a", "b", "c"}) register_node(n);
  std::vector<std::string> pod_events;
  api.watch_pods([&pod_events](EventType type, const Pod& pod) {
    pod_events.push_back(
        pod.name + ":" +
        (type == EventType::kDeleted ? "deleted" : to_string(pod.phase)));
  });
  auto run_on = [this](const std::string& pod, const std::string& node) {
    Pod p;
    p.name = pod;
    p.node_name = node;
    api.create_pod(std::move(p));
    api.mutate_pod(pod, [](Pod& mp) {
      mp.phase = PodPhase::kRunning;
      mp.ready = true;
    });
  };
  // Pod slots in creation order: p3 p7 x p1 p5 c1 y, so slot order is not
  // name order on either lost node.
  run_on("p3", "a");
  run_on("p7", "b");
  run_on("x", "a");
  run_on("p1", "a");
  run_on("p5", "b");
  run_on("c1", "c");
  run_on("y", "b");
  api.finalize_pod_deletion("x");
  run_on("c2", "c");  // reuses x's freed slot, on the live node
  api.finalize_pod_deletion("y");  // y's slot stays free
  api.delete_pod("p5");  // Terminating; no kubelet will confirm it
  for (int t = 1; t <= 10; ++t) {
    sim.call_at(t, [this] { api.renew_node_lease("c"); });
  }
  NodeLifecycleController ctl{api};
  sim.run_until(4.5);
  pod_events.clear();
  sim.run_until(5.5);  // the t=5 sweep finds a and b 5 s old

  EXPECT_EQ(seen, (std::vector<std::string>{"a:not-ready", "b:not-ready"}));
  EXPECT_EQ(pod_events,
            (std::vector<std::string>{"p1:Failed", "p3:Failed",
                                      "p5:deleted", "p7:Failed"}));
  EXPECT_EQ(api.get_pod("p5"), nullptr);
  EXPECT_EQ(ctl.evictions(), 4u);
  // The four victims and nothing else: neither c's pods nor the free slot
  // y left behind on b.
  EXPECT_EQ(ctl.eviction_probes(), 4u);
  for (const char* live : {"c1", "c2"}) {
    const Pod* pod = api.get_pod(live);
    ASSERT_NE(pod, nullptr);
    EXPECT_EQ(pod->node_name, "c");
    EXPECT_EQ(pod->phase, PodPhase::kRunning);
    EXPECT_TRUE(pod->ready);
  }
}

/// The shared heartbeat wheel must drop dead kubelets instead of polling
/// them forever, and pick them back up on reboot — lease behaviour over a
/// crash must match the old per-kubelet timers.
TEST(HeartbeatWheelTest, DeadNodeLeavesTheWheelAndReturnsOnReboot) {
  sim::Simulation sim;
  auto cl = cluster::make_paper_testbed(sim);
  container::Registry hub{cl->node(0)};
  KubeCluster kube{*cl, hub, {&cl->node(1), &cl->node(2), &cl->node(3)}};
  NodeLifecycleConfig cfg;
  cfg.lease_duration_s = 1e9;  // keep the sweep out of the picture
  kube.enable_node_lifecycle(cfg, 1.0);
  const std::string victim = cl->node(1).name();

  sim.run_until(10.0);
  EXPECT_NEAR(kube.api().node_lease(victim), 10.0, 1e-9);

  cl->node(1).fail();
  sim.run_until(20.0);
  // Stale from the instant of the crash: the wheel stopped ticking it.
  EXPECT_NEAR(kube.api().node_lease(victim), 10.0, 1e-9);

  cl->node(1).recover();
  sim.run_until(25.0);
  EXPECT_NEAR(kube.api().node_lease(victim), 25.0, 1e-9);
}

TEST(HeartbeatWheelTest, UnreachableWorkerGoesStaleAndRemovalIsIdempotent) {
  sim::Simulation sim;
  auto cl = cluster::make_paper_testbed(sim);
  container::Registry hub{cl->node(0)};
  KubeCluster kube{*cl, hub, {&cl->node(1), &cl->node(2), &cl->node(3)}};
  const std::string a = cl->node(1).name();
  const std::string cut = cl->node(2).name();
  const std::string c = cl->node(3).name();
  auto lease = [&kube](const std::string& n) {
    return kube.api().node_lease(n);
  };
  kube.worker(cut).kubelet->set_connectivity_probe([] { return false; });
  HeartbeatWheel wheel{kube.api()};
  const std::uint32_t ma = wheel.add(*kube.worker(a).kubelet);
  wheel.add(*kube.worker(cut).kubelet);
  wheel.add(*kube.worker(c).kubelet);
  wheel.start(1.0);

  sim.run_until(5.5);
  EXPECT_DOUBLE_EQ(lease(a), 5.0);
  EXPECT_DOUBLE_EQ(lease(cut), 0.0);  // registration stamp, never renewed
  EXPECT_DOUBLE_EQ(lease(c), 5.0);

  wheel.remove(ma);
  wheel.remove(ma);
  sim.run_until(8.5);
  EXPECT_DOUBLE_EQ(lease(a), 5.0);
  EXPECT_DOUBLE_EQ(lease(c), 8.0);

  wheel.restore(ma);
  for (int t = 9; t <= 14; ++t) {
    sim.run_until(t + 0.5);
    EXPECT_DOUBLE_EQ(lease(a), t);
    EXPECT_DOUBLE_EQ(lease(c), t);
    EXPECT_DOUBLE_EQ(lease(cut), 0.0);
  }
}

}  // namespace
}  // namespace sf::k8s
