#include "net/flow_network.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/simulation.hpp"

namespace sf::net {
namespace {

class FlowNetworkTest : public ::testing::Test {
 protected:
  sim::Simulation sim;
  FlowNetwork net{sim};
  // 100 B/s NICs, 10 ms one-way latency → 20 ms per pair.
  NodeId a = net.add_node(100.0, 0.01);
  NodeId b = net.add_node(100.0, 0.01);
  NodeId c = net.add_node(100.0, 0.01);
};

TEST_F(FlowNetworkTest, SingleTransferPaysLatencyPlusBandwidth) {
  double done_at = -1;
  net.transfer(a, b, 100.0, [&] { done_at = sim.now(); });
  sim.run();
  // 0.02 s latency + 100 B at 100 B/s = 1.02 s.
  EXPECT_NEAR(done_at, 1.02, 1e-9);
}

TEST_F(FlowNetworkTest, ZeroBytesIsLatencyOnly) {
  double done_at = -1;
  net.transfer(a, b, 0.0, [&] { done_at = sim.now(); });
  sim.run();
  EXPECT_NEAR(done_at, 0.02, 1e-12);
}

TEST_F(FlowNetworkTest, HubEgressShared) {
  // Two flows out of `a` share a's egress: each gets 50 B/s.
  std::vector<double> done;
  net.transfer(a, b, 100.0, [&] { done.push_back(sim.now()); });
  net.transfer(a, c, 100.0, [&] { done.push_back(sim.now()); });
  sim.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0], 2.02, 1e-6);
  EXPECT_NEAR(done[1], 2.02, 1e-6);
}

TEST_F(FlowNetworkTest, IncastIngressShared) {
  std::vector<double> done;
  net.transfer(a, c, 100.0, [&] { done.push_back(sim.now()); });
  net.transfer(b, c, 100.0, [&] { done.push_back(sim.now()); });
  sim.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0], 2.02, 1e-6);
}

TEST_F(FlowNetworkTest, DisjointPairsDoNotInterfere) {
  NodeId d = net.add_node(100.0, 0.01);
  std::vector<double> done;
  net.transfer(a, b, 100.0, [&] { done.push_back(sim.now()); });
  net.transfer(c, d, 100.0, [&] { done.push_back(sim.now()); });
  sim.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0], 1.02, 1e-6);
  EXPECT_NEAR(done[1], 1.02, 1e-6);
}

TEST_F(FlowNetworkTest, BottleneckAsymmetry) {
  // Slow receiver constrains one flow; the other uses a's leftover egress.
  NodeId slow = net.add_node(25.0, 0.01);
  std::vector<std::pair<char, double>> done;
  net.transfer(a, slow, 50.0, [&] { done.emplace_back('s', sim.now()); });
  net.transfer(a, b, 150.0, [&] { done.emplace_back('f', sim.now()); });
  sim.run();
  ASSERT_EQ(done.size(), 2u);
  // slow flow: 25 B/s → 2 s; fast flow: 75 B/s → 2 s... both ≈ 2.02.
  EXPECT_NEAR(done[0].second, 2.02, 1e-6);
  EXPECT_NEAR(done[1].second, 2.02, 1e-6);
}

TEST_F(FlowNetworkTest, DepartureReallocatesBandwidth) {
  std::vector<double> done;
  net.transfer(a, b, 50.0, [&] { done.push_back(sim.now()); });
  net.transfer(a, c, 150.0, [&] { done.push_back(sim.now()); });
  sim.run();
  ASSERT_EQ(done.size(), 2u);
  // Shared 50/50 until t=1.02 (first done), then 100 B/s for the rest:
  // second sent 50 by then, 100 remaining → finishes 1 s later.
  EXPECT_NEAR(done[0], 1.02, 1e-6);
  EXPECT_NEAR(done[1], 2.02, 1e-6);
}

TEST_F(FlowNetworkTest, LoopbackBypassesNic) {
  net.set_loopback_bandwidth(1000.0);
  double loop_done = -1;
  double net_done = -1;
  net.transfer(a, a, 1000.0, [&] { loop_done = sim.now(); });
  net.transfer(a, b, 100.0, [&] { net_done = sim.now(); });
  sim.run();
  EXPECT_NEAR(loop_done, 1.0 + 1e-6, 1e-6);  // loopback latency ~1 µs
  EXPECT_NEAR(net_done, 1.02, 1e-6);         // NIC unaffected by loopback
}

TEST_F(FlowNetworkTest, FlakyNicStallsEveryNthBulkFlow) {
  net.set_node_flaky(a, 2, 0.5);
  EXPECT_EQ(net.node_flaky_every(a), 2u);
  double first = -1;
  double second = -1;
  net.transfer(a, b, 100.0, [&] { first = sim.now(); });
  sim.run();
  EXPECT_NEAR(first, 1.02, 1e-9);  // flow #1 through a: clean
  EXPECT_EQ(net.flaky_stalls(), 0u);
  const double t0 = sim.now();
  net.transfer(a, c, 100.0, [&] { second = sim.now(); });
  sim.run();
  // Flow #2 through a: stalled 0.5 s before entering the sharing pool.
  EXPECT_NEAR(second - t0, 1.52, 1e-9);
  EXPECT_EQ(net.flaky_stalls(), 1u);
}

TEST_F(FlowNetworkTest, FlakyNicIgnoresControlAndLoopbackTraffic) {
  net.set_node_flaky(a, 1, 5.0);  // every bulk flow would stall
  double ctrl = -1;
  bool loop = false;
  net.transfer(a, b, 0.0, [&] { ctrl = sim.now(); });
  net.transfer(a, a, 10.0, [&] { loop = true; });
  sim.run();
  EXPECT_NEAR(ctrl, 0.02, 1e-12);  // zero-byte: latency only, no stall
  EXPECT_TRUE(loop);
  EXPECT_EQ(net.flaky_stalls(), 0u);
}

TEST_F(FlowNetworkTest, FlakyNicHealResetsTheCounter) {
  net.set_node_flaky(b, 2, 1.0);
  net.transfer(a, b, 100.0, [] {});  // b's counter advances to 1
  sim.run();
  net.set_node_flaky(b, 0, 0.0);  // heal: disarm and reset
  EXPECT_EQ(net.node_flaky_every(b), 0u);
  const double t0 = sim.now();
  double done = -1;
  net.transfer(a, b, 100.0, [&] { done = sim.now(); });
  sim.run();
  EXPECT_NEAR(done - t0, 1.02, 1e-9);
  EXPECT_EQ(net.flaky_stalls(), 0u);
}

TEST_F(FlowNetworkTest, FlakyNicBadArgsThrow) {
  EXPECT_THROW(net.set_node_flaky(999, 2, 1.0), std::invalid_argument);
  EXPECT_THROW(net.set_node_flaky(a, 2, -1.0), std::invalid_argument);
}

TEST_F(FlowNetworkTest, OnewayPartitionBlocksOneDirectionOnly) {
  net.set_partition_oneway(a, b, true);
  EXPECT_EQ(net.blocked_oneway_count(), 1u);
  EXPECT_TRUE(net.oneway_blocked(a, b));
  EXPECT_FALSE(net.oneway_blocked(b, a));  // reverse keeps flowing
  EXPECT_FALSE(net.partitioned(a, b));     // symmetric probes stay green
  double fwd_done = -1;
  double rev_done = -1;
  net.transfer(a, b, 100.0, [&] { fwd_done = sim.now(); });
  net.transfer(b, a, 100.0, [&] { rev_done = sim.now(); });
  sim.run_until(5.0);
  EXPECT_NEAR(rev_done, 1.02, 1e-9);  // unaffected by the forward cut
  EXPECT_LT(fwd_done, 0);             // pinned at rate 0
  EXPECT_TRUE(net.self_check().empty());
  net.set_partition_oneway(a, b, false);
  sim.run();
  // Healed at t=5: the stalled 100 B resume at full rate (latency was
  // already paid before the flow activated).
  EXPECT_NEAR(fwd_done, 6.0, 1e-6);
  EXPECT_EQ(net.blocked_oneway_count(), 0u);
}

TEST_F(FlowNetworkTest, OnewayPartitionPassesControlMessages) {
  net.set_partition_oneway(a, b, true);
  double ctrl = -1;
  net.transfer(a, b, 0.0, [&] { ctrl = sim.now(); });
  sim.run();
  // Zero-byte control traffic squeezes through, like the symmetric knob:
  // the 504/502 status replies that *tell* the router about the failure
  // must not themselves be blackholed.
  EXPECT_NEAR(ctrl, 0.02, 1e-12);
}

TEST_F(FlowNetworkTest, SymmetricPartitionImpliesBothDirectionsBlocked) {
  net.set_partition(a, b, true);
  EXPECT_TRUE(net.oneway_blocked(a, b));
  EXPECT_TRUE(net.oneway_blocked(b, a));
  EXPECT_EQ(net.blocked_oneway_count(), 0u);  // directed table untouched
  net.set_partition(a, b, false);
  EXPECT_FALSE(net.oneway_blocked(a, b));
}

TEST_F(FlowNetworkTest, OverlappingCutsHealOnlyOnTheSecondClose) {
  net.set_partition(a, b, true);
  net.set_partition(b, a, true);  // a second cut of the same pair
  EXPECT_EQ(net.blocked_pair_count(), 1u);
  double done = -1;
  net.transfer(a, b, 100.0, [&] { done = sim.now(); });
  sim.run_until(2.0);
  net.set_partition(a, b, false);  // one cut is still open
  EXPECT_TRUE(net.partitioned(a, b));
  EXPECT_EQ(net.blocked_pair_count(), 1u);
  sim.run_until(4.0);
  EXPECT_LT(done, 0);  // still pinned at rate 0
  net.set_partition(a, b, false);
  EXPECT_FALSE(net.partitioned(a, b));
  EXPECT_EQ(net.blocked_pair_count(), 0u);
  sim.run();
  EXPECT_NEAR(done, 5.0, 1e-6);  // 100 B at full rate from the heal at 4 s
  EXPECT_TRUE(net.self_check().empty());
}

TEST_F(FlowNetworkTest, OverlappingOnewayCutsHealOnlyOnTheSecondClose) {
  net.set_partition_oneway(a, b, true);
  net.set_partition_oneway(a, b, true);
  net.set_partition_oneway(b, a, true);  // the reverse link counts apart
  EXPECT_EQ(net.blocked_oneway_count(), 2u);
  double done = -1;
  net.transfer(a, b, 100.0, [&] { done = sim.now(); });
  sim.run_until(2.0);
  net.set_partition_oneway(a, b, false);
  net.set_partition_oneway(b, a, false);
  EXPECT_TRUE(net.oneway_blocked(a, b));
  EXPECT_FALSE(net.oneway_blocked(b, a));
  EXPECT_EQ(net.blocked_oneway_count(), 1u);
  sim.run_until(4.0);
  EXPECT_LT(done, 0);
  net.set_partition_oneway(a, b, false);
  EXPECT_FALSE(net.oneway_blocked(a, b));
  EXPECT_EQ(net.blocked_oneway_count(), 0u);
  sim.run();
  EXPECT_NEAR(done, 5.0, 1e-6);
}

TEST_F(FlowNetworkTest, OnewayPartitionBadArgsThrow) {
  EXPECT_THROW(net.set_partition_oneway(a, a, true), std::invalid_argument);
  EXPECT_THROW(net.set_partition_oneway(a, 999, true),
               std::invalid_argument);
}

TEST_F(FlowNetworkTest, CancelStopsFlow) {
  bool fired = false;
  const FlowId id = net.transfer(a, b, 1000.0, [&] { fired = true; });
  sim.call_at(0.5, [&] { EXPECT_TRUE(net.cancel(id)); });
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(net.active_flows(), 0u);
}

TEST_F(FlowNetworkTest, RemainingBytesProgress) {
  const FlowId id = net.transfer(a, b, 100.0, [] {});
  sim.run_until(0.52);  // 0.5 s of transfer after latency
  EXPECT_NEAR(net.remaining_bytes(id), 50.0, 1e-6);
  EXPECT_NEAR(net.current_rate(id), 100.0, 1e-6);
  sim.run();
  EXPECT_DOUBLE_EQ(net.remaining_bytes(id), -1.0);
}

TEST_F(FlowNetworkTest, StaleIdIsRefusedAfterItsSlotIsReused) {
  const FlowId stale = net.transfer(a, b, 100.0, [] {});
  sim.run_until(0.1);  // past the latency phase: the flow is active
  ASSERT_TRUE(net.cancel(stale));
  bool done = false;
  const FlowId fresh = net.transfer(a, b, 100.0, [&] { done = true; });
  sim.run_until(0.2);
  EXPECT_DOUBLE_EQ(net.remaining_bytes(stale), -1.0);
  EXPECT_FALSE(net.cancel(stale));
  EXPECT_NEAR(net.remaining_bytes(fresh), 92.0, 1e-6);
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_NEAR(sim.now(), 1.12, 1e-9);
}

TEST_F(FlowNetworkTest, TotalBytesDeliveredAccumulates) {
  net.transfer(a, b, 100.0, [] {});
  net.transfer(b, c, 40.0, [] {});
  sim.run();
  EXPECT_NEAR(net.total_bytes_delivered(), 140.0, 1e-6);
}

TEST_F(FlowNetworkTest, UnknownNodeThrows) {
  EXPECT_THROW(net.transfer(a, 999, 1.0, [] {}), std::invalid_argument);
}

TEST_F(FlowNetworkTest, BadNicSpecThrows) {
  EXPECT_THROW(net.add_node(0.0, 0.01), std::invalid_argument);
  EXPECT_THROW(net.add_node(100.0, -1.0), std::invalid_argument);
}

// Property sweep: N equal flows through one egress finish together at
// latency + N * bytes / bandwidth.
class FlowFairnessSweep : public ::testing::TestWithParam<int> {};

TEST_P(FlowFairnessSweep, EqualFlowsFinishTogether) {
  const int n = GetParam();
  sim::Simulation sim;
  FlowNetwork net(sim);
  const NodeId src = net.add_node(100.0, 0.0);
  std::vector<double> done;
  for (int i = 0; i < n; ++i) {
    const NodeId dst = net.add_node(1e9, 0.0);
    net.transfer(src, dst, 100.0, [&] { done.push_back(sim.now()); });
  }
  sim.run();
  ASSERT_EQ(done.size(), static_cast<std::size_t>(n));
  for (double t : done) EXPECT_NEAR(t, n * 1.0, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Counts, FlowFairnessSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 16));

}  // namespace
}  // namespace sf::net
