#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulation.hpp"
#include "sim/slot_table.hpp"

namespace sf::net {

/// Identifier of a network endpoint (a cluster node or external host).
using NodeId = std::uint32_t;

/// Identifier of an in-flight transfer.
using FlowId = std::uint64_t;

/// Point-to-point data-transfer model with global max-min fairness.
///
/// Every node has an egress and an ingress capacity (its NIC, full duplex).
/// Concurrent flows share these via progressive filling: the bottleneck
/// constraint with the smallest fair share is saturated first, its flows
/// frozen at that rate, and the procedure repeats. This captures the two
/// patterns that matter in the paper: a hub (the submit node staging files
/// to many workers shares its egress) and incast (many payloads landing on
/// one worker share its ingress).
///
/// Loopback transfers (src == dst) bypass the NIC and use a separate
/// memory-bus bandwidth.
///
/// Flows live in a sim::SlotTable and a FlowId is its generation-checked
/// handle, giving O(1) lookup/cancel without a map; a zero-byte transfer
/// gets a detached id, which names no flow. The active set is iterated in
/// ascending-id
/// order (as the former `std::map` did), so fair-share rounds and
/// completion callbacks stay deterministic. The progressive-filling solver
/// works on flat per-node residual/live arrays (epoch-stamped, reused
/// between calls) instead of rebuilding ordered maps on every rebalance.
class FlowNetwork {
 public:
  explicit FlowNetwork(sim::Simulation& sim) : sim_(sim) {}

  FlowNetwork(const FlowNetwork&) = delete;
  FlowNetwork& operator=(const FlowNetwork&) = delete;

  /// Registers a node. `bandwidth_Bps` applies to egress and ingress
  /// independently; `latency_s` is the one-way propagation delay added to
  /// every transfer that starts or ends here (both endpoints' latencies
  /// add up).
  NodeId add_node(double bandwidth_Bps, double latency_s);

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }

  /// Starts a transfer of `bytes` from `src` to `dst`; `on_complete` fires
  /// when the last byte arrives. Zero-byte transfers pay latency only.
  FlowId transfer(NodeId src, NodeId dst, double bytes,
                  sim::Simulation::Callback on_complete);

  /// Cancels an in-flight transfer. Returns true iff it was active.
  bool cancel(FlowId id);

  [[nodiscard]] std::size_t active_flows() const { return order_.size(); }

  /// Bytes still to deliver for a flow; -1 when inactive/unknown.
  [[nodiscard]] double remaining_bytes(FlowId id);

  /// Current rate of a flow in bytes/s; -1 when inactive.
  [[nodiscard]] double current_rate(FlowId id);

  /// One-way latency between a pair of nodes.
  [[nodiscard]] double latency(NodeId src, NodeId dst) const;

  void set_loopback_bandwidth(double Bps) { loopback_Bps_ = Bps; }

  /// Total bytes ever delivered (for data-movement accounting).
  [[nodiscard]] double total_bytes_delivered() const {
    return bytes_delivered_;
  }

  /// Currently partitioned node pairs.
  [[nodiscard]] std::size_t blocked_pair_count() const {
    return blocked_pairs_.keys.size();
  }

  /// Conservation + capacity audit for the invariant registry: requested
  /// == delivered + cancelled + rounded + Σ in-flight remaining (within
  /// FP tolerance); no negative remainders or rates; per-node active
  /// rates within NIC capacity × degrade; partitioned flows pinned at 0.
  /// Advances flow progress to `now` first (like the other readers);
  /// never schedules events or changes any rate.
  [[nodiscard]] std::vector<std::string> self_check();

  // ---- Fault injection ----------------------------------------------
  //
  // Both knobs take effect immediately: in-flight work is advanced at the
  // old rates, then every flow is re-solved under the new constraints.
  // Zero-byte control messages (latency-only) are not affected — they
  // model small packets that squeeze through; bulk data does not.

  /// Degrades (factor < 1) or restores (factor == 1) a node's NIC: its
  /// egress and ingress capacity become `bandwidth * factor`.
  void set_node_bandwidth_factor(NodeId node, double factor);

  [[nodiscard]] double node_bandwidth_factor(NodeId node) const {
    return nodes_[node].degrade;
  }

  /// Opens (`blocked`) or closes one cut of the unordered pair {a, b}.
  /// While any cut of the pair is open, bulk flows between the two nodes
  /// are pinned at rate 0 — they neither progress nor consume NIC
  /// capacity — and they resume where they left off once the last cut
  /// closes, so overlapping cuts never heal each other early. Closing a
  /// cut that is not open does nothing.
  void set_partition(NodeId a, NodeId b, bool blocked);

  [[nodiscard]] bool partitioned(NodeId a, NodeId b) const;

  /// Opens or closes one cut of the *directed* link src → dst only,
  /// counted like set_partition and apart from it: bulk flows in that
  /// direction are pinned at 0 while the reverse direction keeps
  /// flowing — the asymmetric (one-way) partition shape real networks
  /// produce (unidirectional link failures, asymmetric routing). Control
  /// planes that probe with symmetric heartbeats stay green while the
  /// data plane loses replies, which is exactly the gray failure the
  /// router's outlier detection has to catch.
  void set_partition_oneway(NodeId src, NodeId dst, bool blocked);

  /// True when the directed link src → dst is cut (by either the one-way
  /// table or a symmetric partition of the pair).
  [[nodiscard]] bool oneway_blocked(NodeId src, NodeId dst) const;

  /// Currently blocked *directed* links (one-way table only).
  [[nodiscard]] std::size_t blocked_oneway_count() const {
    return blocked_oneway_.keys.size();
  }

  /// Gray failure: makes a node's NIC flaky — every `every_nth` bulk flow
  /// touching the node (as source or destination, counted per node in
  /// start order) is stalled for an extra `stall_s` before entering the
  /// sharing pool, modelling a link that intermittently drops frames and
  /// forces retransmission timeouts. `every_nth == 0` heals the NIC and
  /// resets its flow counter. Loopback and zero-byte control messages are
  /// unaffected, consistent with the other fault knobs.
  void set_node_flaky(NodeId node, std::uint32_t every_nth, double stall_s);

  [[nodiscard]] std::uint32_t node_flaky_every(NodeId node) const {
    return nodes_[node].flaky_every;
  }

  /// Total bulk flows ever stalled by a flaky NIC.
  [[nodiscard]] std::uint64_t flaky_stalls() const { return flaky_stalls_; }

 private:
  struct NodeNic {
    double bandwidth = 0;
    double latency = 0;
    double degrade = 1.0;  ///< fault-injected bandwidth multiplier
    std::uint32_t flaky_every = 0;  ///< stall every Nth flow; 0 = healthy
    double flaky_stall_s = 0;
    std::uint32_t flow_counter = 0;  ///< bulk flows seen while flaky
  };
  struct Flow {
    NodeId src = 0;
    NodeId dst = 0;
    double remaining = 0;
    double rate = 0;
    bool loopback = false;
    bool active = false;  ///< False while in the propagation-latency phase.
    sim::Simulation::Callback on_complete;
  };

  static std::uint64_t pair_key(NodeId a, NodeId b) {
    if (a > b) std::swap(a, b);
    return (std::uint64_t{a} << 32) | b;
  }

  void activate(FlowId id);
  void advance();
  void rebalance();
  void fire_completions();

  sim::Simulation& sim_;
  std::vector<NodeNic> nodes_;
  sim::SlotTable<Flow> flows_;
  /// Active flows in ascending-id order: deterministic iteration.
  std::vector<FlowId> order_;
  double loopback_Bps_ = 8e9;  // ~8 GB/s memory-bus copy
  sim::SimTime last_advance_ = 0;
  sim::EventId completion_event_ = sim::kNoEvent;
  double bytes_delivered_ = 0;
  // Byte-conservation ledger, read only by self_check().
  double bytes_requested_ = 0;
  double bytes_cancelled_ = 0;
  double bytes_rounded_ = 0;
  std::uint64_t flaky_stalls_ = 0;
  static std::uint64_t directed_key(NodeId src, NodeId dst) {
    return (std::uint64_t{src} << 32) | dst;
  }

  /// Blocked links as sorted keys, each with the number of its cuts that
  /// are open (always >= 1).
  struct Cuts {
    std::vector<std::uint64_t> keys;
    std::vector<std::uint32_t> open;
    [[nodiscard]] bool contains(std::uint64_t key) const;
  };
  /// Opens or closes one cut of `key`; the flows are re-rated only when
  /// the key's blocked state changes.
  void cut(Cuts& cuts, std::uint64_t key, bool open);
  Cuts blocked_pairs_;   ///< by pair_key()
  Cuts blocked_oneway_;  ///< by directed_key()

  // Progressive-filling scratch state, epoch-stamped per node so a
  // rebalance touches only the nodes its flows traverse (no O(all nodes)
  // reset and no per-call map allocation).
  std::vector<double> egress_residual_, ingress_residual_;
  std::vector<std::uint32_t> egress_live_, ingress_live_;
  std::vector<std::uint32_t> egress_epoch_, ingress_epoch_;
  std::vector<NodeId> egress_nodes_, ingress_nodes_;
  std::uint32_t epoch_ = 0;
};

}  // namespace sf::net
