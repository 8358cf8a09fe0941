// sf::fault tests: plan purity and channel gating, injector apply/heal
// mechanics, and the two acceptance properties from the fault-injection
// issue — chaos sweeps that are bit-identical at any SweepRunner thread
// count, and end-to-end recovery (crashes + registry outages) that
// completes every DAG task with zero lost Condor jobs.

#include "fault/injector.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/testbed.hpp"
#include "sim/sweep_runner.hpp"

namespace sf::fault {
namespace {

FaultConfig all_channels() {
  FaultConfig cfg;
  cfg.horizon_s = 600;
  cfg.node_crash_mean_s = 60;
  cfg.pull_outage_mean_s = 45;
  cfg.pod_kill_mean_s = 40;
  cfg.degrade_mean_s = 30;
  cfg.partition_mean_s = 50;
  cfg.oneway_partition_mean_s = 55;
  return cfg;
}

TEST(FaultPlan, PureFunctionOfItsInputs) {
  const FaultConfig cfg = all_channels();
  const auto a = make_fault_plan(7, cfg, 4);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, make_fault_plan(7, cfg, 4));
  EXPECT_NE(a, make_fault_plan(8, cfg, 4));
  EXPECT_NE(a, make_fault_plan(7, cfg, 6));
}

TEST(FaultPlan, DisabledChannelsEmitNothing) {
  EXPECT_TRUE(make_fault_plan(7, FaultConfig{}, 4).empty());  // all off
  FaultConfig cfg;
  cfg.horizon_s = 600;
  cfg.pod_kill_mean_s = 20;
  const auto plan = make_fault_plan(7, cfg, 4);
  EXPECT_FALSE(plan.empty());
  for (const auto& ev : plan) EXPECT_EQ(ev.kind, FaultKind::kPodKill);
}

TEST(FaultPlan, EventsSortedAndWithinHorizon) {
  double prev = 0;
  for (const auto& ev : make_fault_plan(3, all_channels(), 4)) {
    EXPECT_GE(ev.at, prev);
    EXPECT_LT(ev.at, 600.0);
    prev = ev.at;
  }
}

TEST(FaultPlan, SparingTheHeadNodeGatesCrashesOnly) {
  FaultConfig cfg = all_channels();
  bool connectivity_hit_head = false;
  for (const auto& ev : make_fault_plan(11, cfg, 4)) {
    if (ev.kind == FaultKind::kNodeCrash) {
      EXPECT_GE(ev.node, 1u);
    }
    if ((ev.kind == FaultKind::kLinkDegrade ||
         ev.kind == FaultKind::kPartition) &&
        ev.node == 0) {
      connectivity_hit_head = true;
    }
    if (ev.kind == FaultKind::kPartition) {
      EXPECT_NE(ev.node, ev.peer);
    }
  }
  // Degradation / partitions are transient, so they target all nodes.
  EXPECT_TRUE(connectivity_hit_head);

  cfg.spare_head_node = false;
  bool crash_hit_head = false;
  for (const auto& ev : make_fault_plan(11, cfg, 4)) {
    crash_hit_head |= ev.kind == FaultKind::kNodeCrash && ev.node == 0;
  }
  EXPECT_TRUE(crash_hit_head);
}

TEST(FaultInjectorTest, CrashesFireAndRebootsRestoreEveryNode) {
  core::PaperTestbed tb(42);
  FaultConfig cfg;
  cfg.horizon_s = 100;
  cfg.node_crash_mean_s = 20;
  cfg.node_downtime_s = 10;
  FaultInjector injector(tb, cfg, 99);
  ASSERT_FALSE(injector.plan().empty());
  injector.arm();
  injector.arm();  // idempotent
  // Arming the crash channel turns on the detection loop.
  EXPECT_TRUE(tb.kube().node_lifecycle_enabled());

  tb.sim().run_until(cfg.horizon_s + cfg.node_downtime_s + 1.0);
  EXPECT_GT(injector.applied(FaultKind::kNodeCrash), 0u);
  // Skipped crash-while-down events schedule no reboot, so these balance.
  EXPECT_EQ(injector.node_reboots(), injector.applied(FaultKind::kNodeCrash));
  for (std::size_t i = 0; i < tb.cluster().size(); ++i) {
    EXPECT_TRUE(tb.cluster().node(i).up()) << "node " << i;
  }
}

TEST(FaultInjectorTest, PartitionBlocksThePairThenHeals) {
  // Plan purity lets us probe the timeline first, then shrink the horizon
  // to isolate exactly the first partition event.
  FaultConfig probe;
  probe.horizon_s = 1000;
  probe.partition_mean_s = 40;
  const auto full = make_fault_plan(5, probe, 4);
  ASSERT_GE(full.size(), 2u);
  FaultConfig cfg = probe;
  cfg.horizon_s = full[0].at + (full[1].at - full[0].at) / 2;

  core::PaperTestbed tb(42);
  FaultInjector injector(tb, cfg, 5);
  ASSERT_EQ(injector.plan().size(), 1u);
  const FaultEvent ev = injector.plan()[0];
  injector.arm();
  // No crash channel ⇒ the eternal-event lifecycle loop stays off.
  EXPECT_FALSE(tb.kube().node_lifecycle_enabled());

  net::FlowNetwork& net = tb.cluster().network();
  const net::NodeId a = tb.cluster().node(ev.node).net_id();
  const net::NodeId b = tb.cluster().node(ev.peer).net_id();
  tb.sim().run_until(ev.at + 0.5 * ev.duration_s);
  EXPECT_TRUE(net.partitioned(a, b));
  EXPECT_TRUE(net.partitioned(b, a));
  tb.sim().run_until(ev.at + ev.duration_s + 0.1);
  EXPECT_FALSE(net.partitioned(a, b));
  EXPECT_EQ(injector.applied(FaultKind::kPartition), 1u);
}

TEST(FaultInjectorTest, OnewayPartitionCutsOneDirectionThenHeals) {
  FaultConfig probe;
  probe.horizon_s = 1000;
  probe.oneway_partition_mean_s = 40;
  const auto full = make_fault_plan(5, probe, 4);
  ASSERT_GE(full.size(), 2u);
  FaultConfig cfg = probe;
  cfg.horizon_s = full[0].at + (full[1].at - full[0].at) / 2;

  core::PaperTestbed tb(42);
  FaultInjector injector(tb, cfg, 5);
  ASSERT_EQ(injector.plan().size(), 1u);
  const FaultEvent ev = injector.plan()[0];
  EXPECT_EQ(ev.kind, FaultKind::kOnewayPartition);
  EXPECT_NE(ev.node, ev.peer);
  injector.arm();
  // A gray channel: no crash shape, so the lifecycle loop stays off —
  // nothing ever looks dead to the control plane.
  EXPECT_FALSE(tb.kube().node_lifecycle_enabled());

  net::FlowNetwork& net = tb.cluster().network();
  const net::NodeId src = tb.cluster().node(ev.node).net_id();
  const net::NodeId dst = tb.cluster().node(ev.peer).net_id();
  tb.sim().run_until(ev.at + 0.5 * ev.duration_s);
  EXPECT_TRUE(net.oneway_blocked(src, dst));
  EXPECT_FALSE(net.oneway_blocked(dst, src));  // requests arrive, replies die
  EXPECT_FALSE(net.partitioned(src, dst));     // heartbeats keep passing
  tb.sim().run_until(ev.at + ev.duration_s + 0.1);
  EXPECT_FALSE(net.oneway_blocked(src, dst));
  EXPECT_EQ(net.blocked_oneway_count(), 0u);
  EXPECT_EQ(injector.applied(FaultKind::kOnewayPartition), 1u);
  EXPECT_EQ(injector.residual_depth(), 0u);
}

// ---------------------------------------------------------------------
// Acceptance: chaos determinism. A sweep of full-stack chaos points must
// produce bit-identical results at 1 and 4 SweepRunner threads (and on
// re-run). Doubles are compared exactly — that IS the contract.

struct ChaosPoint {
  double makespan = 0;
  bool ok = false;
  std::uint64_t applied = 0;
  std::uint64_t skipped = 0;
  std::uint64_t condor_aborts = 0;
  std::uint64_t pods_replaced = 0;

  friend bool operator==(const ChaosPoint&, const ChaosPoint&) = default;
};

ChaosPoint run_chaos_point(double intensity) {
  core::TestbedOptions opts;
  opts.prestage_images = false;
  opts.dag_retries = 4;
  opts.provisioning.request_timeout_s = 45;
  core::PaperTestbed tb(42, opts);
  tb.register_matmul_function();

  FaultConfig cfg;
  cfg.horizon_s = 1200;
  cfg.racks = 2;
  if (intensity > 0) {
    cfg.node_crash_mean_s = 200 / intensity;
    cfg.pull_outage_mean_s = 150 / intensity;
    cfg.pod_kill_mean_s = 120 / intensity;
    cfg.degrade_mean_s = 100 / intensity;
    cfg.partition_mean_s = 160 / intensity;
    // Structured channels: correlated incidents + gray failures ride the
    // same determinism contract.
    cfg.rack_fail_mean_s = 400 / intensity;
    cfg.rack_partition_mean_s = 300 / intensity;
    cfg.deploy_storm_mean_s = 260 / intensity;
    cfg.cpu_slow_mean_s = 140 / intensity;
    cfg.cpu_slow_factor = 0.25;
    cfg.flaky_nic_mean_s = 110 / intensity;
    cfg.flaky_nic_every = 4;
    cfg.flaky_nic_stall_s = 1.0;
  }
  FaultInjector injector(tb, cfg, 0xC4A05EEDull);
  injector.arm();

  const auto result =
      tb.run_concurrent_mix(4, 6, metrics::MixPoint{0.5, 0.0, 0.5});
  ChaosPoint p;
  p.makespan = result.slowest;
  p.ok = result.all_succeeded;
  p.applied = injector.applied_total();
  p.skipped = injector.skipped();
  p.condor_aborts = tb.condor().jobs_aborted();
  p.pods_replaced = tb.kube().controller_pods_replaced();
  return p;
}

std::vector<ChaosPoint> chaos_sweep(int threads) {
  const std::vector<double> levels{0.0, 1.0, 3.0};
  sim::SweepRunner runner(threads);
  return runner.run(levels.size(), [&levels](std::size_t i) {
    return run_chaos_point(levels[i]);
  });
}

TEST(ChaosDeterminism, SweepIsBitIdenticalAcrossThreadCounts) {
  const auto serial = chaos_sweep(1);
  const auto parallel = chaos_sweep(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "sweep point " << i;
  }
  EXPECT_EQ(serial, chaos_sweep(1));  // and repeatable outright
  // The faulted points actually saw chaos and still recovered.
  EXPECT_GT(serial.back().applied, 0u);
  for (const auto& p : serial) EXPECT_TRUE(p.ok);
}

// ---------------------------------------------------------------------
// Acceptance: recovery invariant. A fig6-style concurrent workflow set
// under injected node crashes + image-pull failures completes every DAG
// task within the configured retry budget, with zero lost Condor jobs.

TEST(ChaosRecovery, CrashesAndPullFailuresLoseNoWork) {
  core::TestbedOptions opts;
  opts.prestage_images = false;  // cold pulls: the outage channel bites
  opts.dag_retries = 4;
  opts.provisioning.request_timeout_s = 45;
  core::PaperTestbed tb(42, opts);
  tb.register_matmul_function();

  FaultConfig cfg;
  cfg.horizon_s = 1800;
  cfg.node_crash_mean_s = 120;
  cfg.node_downtime_s = 25;
  cfg.pull_outage_mean_s = 90;
  cfg.pull_outage_duration_s = 6;
  FaultInjector injector(tb, cfg, 0xFEEDull);
  injector.arm();

  const auto result =
      tb.run_concurrent_mix(6, 8, metrics::MixPoint{0.5, 0.0, 0.5});

  // The run was actually under fire…
  EXPECT_GT(injector.applied(FaultKind::kNodeCrash), 0u);
  EXPECT_GT(injector.applied(FaultKind::kRegistryOutage), 0u);
  // …every workflow still finished within the retry budget…
  EXPECT_TRUE(result.all_succeeded);
  EXPECT_GT(result.slowest, 0.0);
  // …and the Condor queue drained completely: nothing idle, nothing
  // stuck running, every DAG task accounted for (aborted attempts were
  // resubmitted and completed as fresh jobs).
  EXPECT_EQ(tb.condor().idle_jobs(), 0u);
  EXPECT_EQ(tb.condor().running_jobs(), 0u);
  EXPECT_GE(tb.condor().completed_jobs(), 6u * 8u);
  EXPECT_EQ(tb.condor().failed_jobs(), tb.condor().jobs_aborted());
}

}  // namespace
}  // namespace sf::fault
