// Structured-failure tests: rack topology, correlated-incident expansion
// (PDU trips, deploy storms), rack cut-set partitions, gray failures
// (CPU stragglers, flaky NICs) — plan purity for all of them, burst-
// expansion determinism, apply/heal mechanics, and the split-brain
// recovery invariant (a healed rack cut loses no condor jobs and
// produces no duplicate DAG completions).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "cluster/rack_map.hpp"
#include "condor/dagman.hpp"
#include "core/testbed.hpp"
#include "fault/injector.hpp"

namespace sf::fault {
namespace {

// ---- RackMap ---------------------------------------------------------

TEST(RackMapTest, BlocksSplitContiguouslyAndNearEqually) {
  const auto racks = cluster::RackMap::blocks(4, 2);
  EXPECT_EQ(racks.node_count(), 4u);
  EXPECT_EQ(racks.rack_count(), 2u);
  EXPECT_EQ(racks.nodes_in(0), (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(racks.nodes_in(1), (std::vector<std::uint32_t>{2, 3}));
  // Uneven split: early racks get the extra node.
  const auto uneven = cluster::RackMap::blocks(5, 2);
  EXPECT_EQ(uneven.nodes_in(0), (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(uneven.nodes_in(1), (std::vector<std::uint32_t>{3, 4}));
  for (std::uint32_t n = 0; n < 5; ++n) {
    EXPECT_EQ(uneven.rack_of(n), n < 3 ? 0u : 1u);
  }
}

TEST(RackMapTest, EqualityAndValidation) {
  EXPECT_EQ(cluster::RackMap::blocks(4, 2), cluster::RackMap::blocks(4, 2));
  EXPECT_NE(cluster::RackMap::blocks(4, 2), cluster::RackMap::blocks(4, 4));
  EXPECT_EQ(cluster::RackMap({0, 0, 1, 1}), cluster::RackMap::blocks(4, 2));
  EXPECT_THROW(cluster::RackMap({0, 2}), std::invalid_argument);  // gap
  EXPECT_THROW(cluster::RackMap::blocks(2, 3), std::invalid_argument);
  EXPECT_THROW(cluster::RackMap::blocks(2, 0), std::invalid_argument);
}

// ---- Plan purity for the new channels --------------------------------

FaultConfig structured_channels() {
  FaultConfig cfg;
  cfg.horizon_s = 900;
  cfg.rack_fail_mean_s = 120;
  cfg.rack_partition_mean_s = 100;
  cfg.deploy_storm_mean_s = 110;
  cfg.cpu_slow_mean_s = 70;
  cfg.flaky_nic_mean_s = 60;
  return cfg;
}

TEST(StructuredPlan, PureFunctionOfSeedConfigAndTopology) {
  const FaultConfig cfg = structured_channels();
  const auto racks = cluster::RackMap::blocks(6, 2);
  const auto a = make_fault_plan(7, cfg, racks);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, make_fault_plan(7, cfg, racks));
  EXPECT_NE(a, make_fault_plan(8, cfg, racks));
  // The topology is a plan input in its own right: same node count,
  // different rack layout ⇒ different plan.
  EXPECT_NE(a, make_fault_plan(7, cfg, cluster::RackMap::blocks(6, 3)));
  // And the node-count overload derives the same layout from cfg.racks.
  FaultConfig derived = cfg;
  derived.racks = 2;
  EXPECT_EQ(a, make_fault_plan(7, derived, 6));
}

TEST(StructuredPlan, GrayChannelsGateLikeTheirFamilies) {
  FaultConfig cfg;
  cfg.horizon_s = 900;
  cfg.cpu_slow_mean_s = 50;
  cfg.cpu_slow_factor = 0.2;
  cfg.flaky_nic_mean_s = 40;
  bool flaky_hit_head = false;
  for (const auto& ev : make_fault_plan(11, cfg, 4)) {
    if (ev.kind == FaultKind::kCpuSlow) {
      // CPU stragglers spare the head like crashes do: a slow schedd
      // exercises nothing but patience.
      EXPECT_GE(ev.node, 1u);
      EXPECT_DOUBLE_EQ(ev.factor, 0.2);
    } else {
      EXPECT_EQ(ev.kind, FaultKind::kFlakyNic);
      flaky_hit_head |= ev.node == 0;
    }
  }
  EXPECT_TRUE(flaky_hit_head);  // connectivity faults target all nodes

  // A single-rack topology has no cut-set: the channel emits nothing.
  FaultConfig cut_only;
  cut_only.horizon_s = 900;
  cut_only.rack_partition_mean_s = 30;
  cut_only.racks = 1;
  EXPECT_TRUE(make_fault_plan(11, cut_only, 4).empty());
}

// ---- Burst-expansion determinism -------------------------------------

TEST(StructuredPlan, RackFailExpandsToExactlyTheRacksCrashableNodes) {
  FaultConfig cfg;
  cfg.horizon_s = 1200;
  cfg.rack_fail_mean_s = 150;
  cfg.rack_fail_stagger_s = 0.5;
  cfg.rack_fail_downtime_s = 30;
  const auto racks = cluster::RackMap::blocks(6, 2);  // {0,1,2} | {3,4,5}
  const auto plan = make_fault_plan(21, cfg, racks);
  ASSERT_FALSE(plan.empty());

  std::map<std::uint32_t, std::vector<FaultEvent>> incidents;
  for (const auto& ev : plan) {
    EXPECT_EQ(ev.kind, FaultKind::kNodeCrash);
    EXPECT_NE(ev.incident, 0u);  // every burst member is tagged
    incidents[ev.incident].push_back(ev);
  }
  EXPECT_GT(incidents.size(), 1u);
  for (const auto& [id, members] : incidents) {
    // All members hit one rack, and cover exactly its crashable nodes
    // (the head is spared even when its rack's PDU trips).
    const std::uint32_t rack = racks.rack_of(members.front().node);
    std::vector<std::uint32_t> hit;
    for (const auto& ev : members) {
      EXPECT_EQ(racks.rack_of(ev.node), rack);
      EXPECT_DOUBLE_EQ(ev.duration_s, cfg.rack_fail_downtime_s);
      hit.push_back(ev.node);
    }
    std::sort(hit.begin(), hit.end());
    std::vector<std::uint32_t> expected;
    for (const std::uint32_t n : racks.nodes_in(rack)) {
      if (n >= 1) expected.push_back(n);  // spare_head_node
    }
    EXPECT_EQ(hit, expected) << "incident " << id;
    // The burst lands within one stagger window.
    double lo = members.front().at, hi = members.front().at;
    for (const auto& ev : members) {
      lo = std::min(lo, ev.at);
      hi = std::max(hi, ev.at);
    }
    EXPECT_LE(hi - lo, cfg.rack_fail_stagger_s);
  }
}

TEST(StructuredPlan, DeployStormPairsOutageWithKillBurst) {
  FaultConfig cfg;
  cfg.horizon_s = 1200;
  cfg.deploy_storm_mean_s = 140;
  cfg.deploy_storm_outage_s = 8;
  cfg.deploy_storm_kills = 3;
  cfg.deploy_storm_spread_s = 4;
  const auto plan = make_fault_plan(33, cfg, 4);
  ASSERT_FALSE(plan.empty());

  std::map<std::uint32_t, std::vector<FaultEvent>> incidents;
  for (const auto& ev : plan) {
    EXPECT_NE(ev.incident, 0u);
    incidents[ev.incident].push_back(ev);
  }
  for (const auto& [id, members] : incidents) {
    std::size_t outages = 0;
    double outage_at = 0;
    for (const auto& ev : members) {
      if (ev.kind == FaultKind::kRegistryOutage) {
        ++outages;
        outage_at = ev.at;
      }
    }
    EXPECT_EQ(outages, 1u) << "incident " << id;
    EXPECT_EQ(members.size(), 1u + cfg.deploy_storm_kills);
    for (const auto& ev : members) {
      if (ev.kind == FaultKind::kPodKill) {
        // Kills land inside the outage's spread window: replacements
        // pull against a dead registry.
        EXPECT_GE(ev.at, outage_at);
        EXPECT_LE(ev.at, outage_at + cfg.deploy_storm_spread_s);
      }
    }
  }
}

// ---- Apply / heal mechanics ------------------------------------------

TEST(StructuredInjector, CpuSlowPinsThenRestoresTheNode) {
  FaultConfig probe;
  probe.horizon_s = 1000;
  probe.cpu_slow_mean_s = 50;
  probe.cpu_slow_duration_s = 20;
  probe.cpu_slow_factor = 0.25;
  const auto full = make_fault_plan(9, probe, 4);
  ASSERT_GE(full.size(), 2u);
  FaultConfig cfg = probe;
  cfg.horizon_s = full[0].at + (full[1].at - full[0].at) / 2;

  core::PaperTestbed tb(42);
  FaultInjector injector(tb, cfg, 9);
  ASSERT_EQ(injector.plan().size(), 1u);
  const FaultEvent ev = injector.plan()[0];
  injector.arm();
  // Gray failures deliberately do NOT enable the lifecycle loop: the
  // node keeps heartbeating — that is what makes the failure gray.
  EXPECT_FALSE(tb.kube().node_lifecycle_enabled());

  cluster::Node& node = tb.cluster().node(ev.node);
  const double full_capacity = node.spec().cores;
  tb.sim().run_until(ev.at + 0.5 * ev.duration_s);
  EXPECT_DOUBLE_EQ(node.cpu_slowdown(), 0.25);
  EXPECT_DOUBLE_EQ(node.cpu().capacity(), full_capacity * 0.25);
  tb.sim().run_until(ev.at + ev.duration_s + 0.1);
  EXPECT_DOUBLE_EQ(node.cpu_slowdown(), 1.0);
  EXPECT_DOUBLE_EQ(node.cpu().capacity(), full_capacity);
  EXPECT_EQ(injector.applied(FaultKind::kCpuSlow), 1u);
}

TEST(StructuredInjector, FlakyNicWindowsArmAndDisarmTheNic) {
  FaultConfig probe;
  probe.horizon_s = 1000;
  probe.flaky_nic_mean_s = 50;
  probe.flaky_nic_duration_s = 20;
  probe.flaky_nic_every = 3;
  probe.flaky_nic_stall_s = 1.0;
  const auto full = make_fault_plan(13, probe, 4);
  ASSERT_GE(full.size(), 2u);
  FaultConfig cfg = probe;
  cfg.horizon_s = full[0].at + (full[1].at - full[0].at) / 2;

  core::PaperTestbed tb(42);
  FaultInjector injector(tb, cfg, 13);
  ASSERT_EQ(injector.plan().size(), 1u);
  const FaultEvent ev = injector.plan()[0];
  injector.arm();

  net::FlowNetwork& net = tb.cluster().network();
  const net::NodeId nic = tb.cluster().node(ev.node).net_id();
  tb.sim().run_until(ev.at + 0.5 * ev.duration_s);
  EXPECT_EQ(net.node_flaky_every(nic), 3u);
  tb.sim().run_until(ev.at + ev.duration_s + 0.1);
  EXPECT_EQ(net.node_flaky_every(nic), 0u);
  EXPECT_EQ(injector.applied(FaultKind::kFlakyNic), 1u);
}

TEST(StructuredInjector, RackPartitionCutsTheFullCutSetThenHeals) {
  FaultConfig probe;
  probe.horizon_s = 1000;
  probe.rack_partition_mean_s = 60;
  probe.rack_partition_duration_s = 15;
  probe.racks = 2;
  const auto full = make_fault_plan(17, probe, 4);
  ASSERT_GE(full.size(), 2u);
  FaultConfig cfg = probe;
  cfg.horizon_s = full[0].at + (full[1].at - full[0].at) / 2;

  core::PaperTestbed tb(42);
  FaultInjector injector(tb, cfg, 17);
  ASSERT_EQ(injector.plan().size(), 1u);
  const FaultEvent ev = injector.plan()[0];
  ASSERT_EQ(ev.kind, FaultKind::kRackPartition);
  injector.arm();
  // A rack cut makes nodes look dead to the control plane, so the
  // detection loop comes on (unlike a single pairwise block).
  EXPECT_TRUE(tb.kube().node_lifecycle_enabled());

  const auto& racks = injector.rack_map();
  net::FlowNetwork& net = tb.cluster().network();
  tb.sim().run_until(ev.at + 0.5 * ev.duration_s);
  for (std::uint32_t in : racks.nodes_in(ev.node)) {
    for (std::uint32_t out = 0; out < racks.node_count(); ++out) {
      const bool cross = racks.rack_of(out) != ev.node;
      EXPECT_EQ(net.partitioned(tb.cluster().node(in).net_id(),
                                tb.cluster().node(out).net_id()),
                cross)
          << in << " ~ " << out;
    }
  }
  tb.sim().run_until(ev.at + ev.duration_s + 0.1);
  for (std::uint32_t in : racks.nodes_in(ev.node)) {
    for (std::uint32_t out = 0; out < racks.node_count(); ++out) {
      EXPECT_FALSE(net.partitioned(tb.cluster().node(in).net_id(),
                                   tb.cluster().node(out).net_id()));
    }
  }
  EXPECT_EQ(injector.applied(FaultKind::kRackPartition), 1u);
}

// ---- Split-brain recovery invariant ----------------------------------
//
// A DAG executed through the condor pool while rack cuts repeatedly
// split the cluster: partitioned startds are unmatchable (negotiator
// reachability gating), stalled stage-in/-out flows resume on heal, and
// kubelet leases on the far side of the cut go stale and recover. Every
// node must complete exactly once — zero lost jobs, zero duplicates.

TEST(SplitBrainRecovery, RackCutHealsWithNoLostOrDuplicatedWork) {
  core::PaperTestbed tb(42);
  FaultConfig cfg;
  cfg.horizon_s = 900;
  cfg.racks = 2;
  cfg.rack_partition_mean_s = 45;
  cfg.rack_partition_duration_s = 12;
  FaultInjector injector(tb, cfg, 0x5B17ull);
  injector.arm();
  EXPECT_TRUE(tb.kube().node_lifecycle_enabled());

  condor::DagMan dag(tb.condor());
  int executions = 0;
  // Three chains of four nodes each, with enough work per node that the
  // DAG overlaps several cut/heal cycles.
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < 4; ++i) {
      condor::DagNode n;
      n.name = "c" + std::to_string(c) + "_n" + std::to_string(i);
      if (i > 0) {
        n.parents = {"c" + std::to_string(c) + "_n" + std::to_string(i - 1)};
      }
      n.job.executable = [&tb, &executions](
                             condor::ExecContext& ctx,
                             std::function<void(bool)> done) {
        ++executions;
        ctx.node->run_process(8.0,
                              [done = std::move(done)] { done(true); }, 1.0);
      };
      n.job.submit_volume = &tb.condor().submit_staging();
      dag.add_node(n);
    }
  }

  bool finished = false;
  bool ok = false;
  dag.run([&](bool success) {
    finished = true;
    ok = success;
  });
  // The lifecycle loop keeps events pending forever; drive to the DAG's
  // completion, not queue exhaustion.
  while (!finished && tb.sim().has_pending_events() &&
         tb.sim().now() < 2000.0) {
    tb.sim().step();
  }

  ASSERT_TRUE(finished) << "DAG stuck at t=" << tb.sim().now();
  EXPECT_TRUE(ok);
  // The run actually crossed rack cuts.
  EXPECT_GT(injector.applied(FaultKind::kRackPartition), 0u);
  // Exactly-once completion: every DAG node done, none done twice.
  EXPECT_EQ(dag.completed_nodes(), dag.node_count());
  EXPECT_EQ(static_cast<std::size_t>(executions),
            dag.node_count() + dag.total_retries());
  // Zero lost condor jobs: the queue drained completely.
  EXPECT_EQ(tb.condor().idle_jobs(), 0u);
  EXPECT_EQ(tb.condor().running_jobs(), 0u);
  EXPECT_EQ(tb.condor().completed_jobs(), dag.node_count());
}

}  // namespace
}  // namespace sf::fault
