#include "net/flow_network.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <string>
#include <stdexcept>
#include <utility>
#include <vector>

namespace sf::net {

namespace {
constexpr double kDoneSlack = 1e-6;  // bytes
// Flows within this time-to-finish are complete: a shorter delay may not
// be representable at a large clock value, and waiting for it would spin
// the event loop at a frozen timestamp.
constexpr double kTimeSlack = 1e-9;  // seconds

bool flow_done(double remaining, double rate) {
  return remaining <= kDoneSlack ||
         (rate > 0 && remaining <= rate * kTimeSlack);
}
}

NodeId FlowNetwork::add_node(double bandwidth_Bps, double latency_s) {
  if (bandwidth_Bps <= 0 || latency_s < 0) {
    throw std::invalid_argument("FlowNetwork::add_node: bad NIC spec");
  }
  nodes_.push_back(NodeNic{bandwidth_Bps, latency_s});
  return static_cast<NodeId>(nodes_.size() - 1);
}

void FlowNetwork::set_node_bandwidth_factor(NodeId node, double factor) {
  if (node >= nodes_.size() || factor <= 0 || factor > 1.0) {
    throw std::invalid_argument(
        "FlowNetwork::set_node_bandwidth_factor: bad node or factor");
  }
  if (nodes_[node].degrade == factor) return;
  advance();
  nodes_[node].degrade = factor;
  rebalance();
}

void FlowNetwork::set_partition(NodeId a, NodeId b, bool blocked) {
  if (a >= nodes_.size() || b >= nodes_.size() || a == b) {
    throw std::invalid_argument("FlowNetwork::set_partition: bad node pair");
  }
  cut(blocked_pairs_, pair_key(a, b), blocked);
}

void FlowNetwork::set_partition_oneway(NodeId src, NodeId dst, bool blocked) {
  if (src >= nodes_.size() || dst >= nodes_.size() || src == dst) {
    throw std::invalid_argument(
        "FlowNetwork::set_partition_oneway: bad node pair");
  }
  cut(blocked_oneway_, directed_key(src, dst), blocked);
}

void FlowNetwork::cut(Cuts& cuts, std::uint64_t key, bool open) {
  const auto it = std::lower_bound(cuts.keys.begin(), cuts.keys.end(), key);
  const auto count = cuts.open.begin() + (it - cuts.keys.begin());
  const bool blocked = it != cuts.keys.end() && *it == key;
  if (open && blocked) {
    ++*count;
    return;
  }
  if (!open && (!blocked || --*count > 0)) return;
  advance();
  if (open) {
    cuts.keys.insert(it, key);
    cuts.open.insert(count, 1);
  } else {
    cuts.keys.erase(it);
    cuts.open.erase(count);
  }
  rebalance();
}

bool FlowNetwork::Cuts::contains(std::uint64_t key) const {
  return !keys.empty() && std::binary_search(keys.begin(), keys.end(), key);
}

void FlowNetwork::set_node_flaky(NodeId node, std::uint32_t every_nth,
                                 double stall_s) {
  if (node >= nodes_.size() || stall_s < 0) {
    throw std::invalid_argument("FlowNetwork::set_node_flaky: bad args");
  }
  NodeNic& nic = nodes_[node];
  nic.flaky_every = every_nth;
  nic.flaky_stall_s = every_nth == 0 ? 0 : stall_s;
  nic.flow_counter = 0;
}

bool FlowNetwork::partitioned(NodeId a, NodeId b) const {
  return a != b && blocked_pairs_.contains(pair_key(a, b));
}

bool FlowNetwork::oneway_blocked(NodeId src, NodeId dst) const {
  return src != dst && (blocked_oneway_.contains(directed_key(src, dst)) ||
                        blocked_pairs_.contains(pair_key(src, dst)));
}

double FlowNetwork::latency(NodeId src, NodeId dst) const {
  assert(src < nodes_.size() && dst < nodes_.size());
  if (src == dst) return 1e-6;  // loopback
  return nodes_[src].latency + nodes_[dst].latency;
}

FlowId FlowNetwork::transfer(NodeId src, NodeId dst, double bytes,
                             sim::Simulation::Callback on_complete) {
  if (src >= nodes_.size() || dst >= nodes_.size()) {
    throw std::invalid_argument("FlowNetwork::transfer: unknown node");
  }
  const double lat = latency(src, dst);
  if (bytes <= 0) {
    // Control message: latency only, no bandwidth consumed. Detached ids
    // never resolve to a flow, so cancel() correctly reports them unknown.
    sim_.call_in(lat, std::move(on_complete));
    return flows_.detached();
  }
  bytes_requested_ += bytes;
  const FlowId id = flows_.insert(Flow{.src = src,
                                       .dst = dst,
                                       .remaining = bytes,
                                       .loopback = src == dst,
                                       .on_complete = std::move(on_complete)});
  // A flaky NIC at either endpoint stalls every Nth bulk flow before it
  // may enter the sharing pool: the stall is decided (and the per-node
  // counter advanced) here at start time, so it is a pure function of
  // flow-start order. Loopback flows never touch the NIC.
  double stall = 0;
  if (src != dst) {
    for (const NodeId endpoint : {src, dst}) {
      NodeNic& nic = nodes_[endpoint];
      if (nic.flaky_every == 0) continue;
      if (++nic.flow_counter % nic.flaky_every == 0) {
        stall += nic.flaky_stall_s;
        ++flaky_stalls_;
      }
    }
  }
  // The flow enters the fair-sharing pool after propagation delay; the
  // capture is two words, so the callback stays allocation-free.
  sim_.call_in(lat + stall, [this, id] { activate(id); });
  return id;
}

void FlowNetwork::activate(FlowId id) {
  advance();
  Flow& f = flows_[id];
  assert(!f.active);
  f.active = true;
  // Keep `order_` sorted by id: activations arrive in latency order, not
  // submission order.
  order_.insert(std::lower_bound(order_.begin(), order_.end(), id), id);
  rebalance();
}

bool FlowNetwork::cancel(FlowId id) {
  const Flow* f = flows_.find(id);
  // Flows still in their latency phase are not "active" yet and keep the
  // pre-flat-table semantics: cancel fails and the flow proceeds.
  if (f == nullptr || !f->active) return false;
  advance();
  bytes_cancelled_ += f->remaining;
  order_.erase(std::find(order_.begin(), order_.end(), id));
  flows_.take(id);
  rebalance();
  return true;
}

double FlowNetwork::remaining_bytes(FlowId id) {
  advance();
  const Flow* f = flows_.find(id);
  return (f == nullptr || !f->active) ? -1.0 : f->remaining;
}

double FlowNetwork::current_rate(FlowId id) {
  advance();
  const Flow* f = flows_.find(id);
  return (f == nullptr || !f->active) ? -1.0 : f->rate;
}

void FlowNetwork::advance() {
  const sim::SimTime now = sim_.now();
  const sim::SimTime dt = now - last_advance_;
  if (dt <= 0) {
    last_advance_ = now;
    return;
  }
  for (const FlowId id : order_) {
    Flow& f = flows_[id];
    const double sent = std::min(f.remaining, f.rate * dt);
    f.remaining -= sent;
    bytes_delivered_ += sent;
  }
  last_advance_ = now;
}

void FlowNetwork::rebalance() {
  if (completion_event_ != sim::kNoEvent) {
    sim_.cancel(completion_event_);
    completion_event_ = sim::kNoEvent;
  }
  if (order_.empty()) return;

  // Progressive filling over {egress(node), ingress(node)} constraints.
  // Loopback flows only contend for the memory bus, modelled as a fixed
  // per-flow rate (no sharing — the bus is far faster than any NIC).
  if (egress_residual_.size() < nodes_.size()) {
    egress_residual_.resize(nodes_.size());
    ingress_residual_.resize(nodes_.size());
    egress_live_.resize(nodes_.size());
    ingress_live_.resize(nodes_.size());
    egress_epoch_.resize(nodes_.size(), 0);
    ingress_epoch_.resize(nodes_.size(), 0);
  }
  ++epoch_;
  egress_nodes_.clear();
  ingress_nodes_.clear();
  std::size_t unfrozen = 0;
  for (const FlowId id : order_) {
    Flow& f = flows_[id];
    if (f.loopback) {
      f.rate = loopback_Bps_;
      continue;
    }
    if (oneway_blocked(f.src, f.dst)) {
      // Stalled across a (possibly one-way) partition: no progress, no
      // capacity consumed. The reverse direction is unaffected.
      f.rate = 0;
      continue;
    }
    f.rate = -1;  // unfrozen
    ++unfrozen;
    if (egress_epoch_[f.src] != epoch_) {
      egress_epoch_[f.src] = epoch_;
      egress_residual_[f.src] = nodes_[f.src].bandwidth * nodes_[f.src].degrade;
      egress_live_[f.src] = 0;
      egress_nodes_.push_back(f.src);
    }
    ++egress_live_[f.src];
    if (ingress_epoch_[f.dst] != epoch_) {
      ingress_epoch_[f.dst] = epoch_;
      ingress_residual_[f.dst] = nodes_[f.dst].bandwidth * nodes_[f.dst].degrade;
      ingress_live_[f.dst] = 0;
      ingress_nodes_.push_back(f.dst);
    }
    ++ingress_live_[f.dst];
  }
  // Constraints are examined egress-before-ingress, ascending node id —
  // the iteration order of the former ordered map, preserved for
  // deterministic tie-breaking.
  std::sort(egress_nodes_.begin(), egress_nodes_.end());
  std::sort(ingress_nodes_.begin(), ingress_nodes_.end());

  while (unfrozen > 0) {
    // Find the tightest constraint (smallest fair share per unfrozen flow).
    double best_share = std::numeric_limits<double>::infinity();
    int best_type = -1;  // 0=egress, 1=ingress
    NodeId best_node = 0;
    for (const NodeId n : egress_nodes_) {
      if (egress_live_[n] == 0) continue;
      const double share =
          egress_residual_[n] / static_cast<double>(egress_live_[n]);
      if (share < best_share) {
        best_share = share;
        best_type = 0;
        best_node = n;
      }
    }
    for (const NodeId n : ingress_nodes_) {
      if (ingress_live_[n] == 0) continue;
      const double share =
          ingress_residual_[n] / static_cast<double>(ingress_live_[n]);
      if (share < best_share) {
        best_share = share;
        best_type = 1;
        best_node = n;
      }
    }
    if (best_type < 0) break;
    // Freeze that constraint's flows at the fair share and charge every
    // constraint they traverse.
    for (const FlowId id : order_) {
      Flow& f = flows_[id];
      if (f.loopback || f.rate >= 0) continue;
      if (best_type == 0 ? f.src != best_node : f.dst != best_node) continue;
      f.rate = best_share;
      --unfrozen;
      --egress_live_[f.src];
      --ingress_live_[f.dst];
      egress_residual_[f.src] =
          std::max(0.0, egress_residual_[f.src] - best_share);
      ingress_residual_[f.dst] =
          std::max(0.0, ingress_residual_[f.dst] - best_share);
    }
  }

  sim::SimTime soonest = sim::kTimeInfinity;
  for (const FlowId id : order_) {
    const Flow& f = flows_[id];
    if (flow_done(f.remaining, f.rate)) {
      soonest = 0;
      break;
    }
    if (f.rate > 0) soonest = std::min(soonest, f.remaining / f.rate);
  }
  if (soonest < sim::kTimeInfinity) {
    completion_event_ = sim_.call_in(soonest, [this] { fire_completions(); });
  }
}

std::vector<std::string> FlowNetwork::self_check() {
  std::vector<std::string> out;
  advance();  // bring bytes_delivered_ and per-flow remainders to `now`

  double in_flight = 0;
  std::vector<double> egress(nodes_.size(), 0.0);
  std::vector<double> ingress(nodes_.size(), 0.0);
  flows_.for_each([&](FlowId id, const Flow& f) {
    in_flight += f.remaining;
    if (f.remaining < -1e-6) {
      out.push_back("flow " + std::to_string(id) +
                    " has negative remaining bytes");
    }
    if (f.rate < 0) {
      out.push_back("flow " + std::to_string(id) + " has negative rate");
    }
    if (!f.active || f.loopback) return;
    if (oneway_blocked(f.src, f.dst)) {
      if (f.rate != 0) {
        out.push_back("partitioned flow " + std::to_string(id) +
                      " still progresses at " + std::to_string(f.rate));
      }
      return;
    }
    egress[f.src] += f.rate;
    ingress[f.dst] += f.rate;
  });
  for (NodeId n = 0; n < nodes_.size(); ++n) {
    const double cap = nodes_[n].bandwidth * nodes_[n].degrade;
    const double slack = cap * 1e-6 + 1.0;
    if (egress[n] > cap + slack) {
      out.push_back("node " + std::to_string(n) + " egress " +
                    std::to_string(egress[n]) + " exceeds capacity " +
                    std::to_string(cap));
    }
    if (ingress[n] > cap + slack) {
      out.push_back("node " + std::to_string(n) + " ingress " +
                    std::to_string(ingress[n]) + " exceeds capacity " +
                    std::to_string(cap));
    }
  }
  // Byte conservation: everything ever requested is delivered, cancelled,
  // written off at completion, or still in flight.
  const double accounted =
      bytes_delivered_ + bytes_cancelled_ + bytes_rounded_ + in_flight;
  const double tol = 1e-6 * std::max(1.0, bytes_requested_);
  if (std::abs(bytes_requested_ - accounted) > tol) {
    out.push_back("byte conservation drifted: requested " +
                  std::to_string(bytes_requested_) + " vs accounted " +
                  std::to_string(accounted));
  }
  return out;
}

void FlowNetwork::fire_completions() {
  completion_event_ = sim::kNoEvent;
  advance();
  std::vector<sim::Simulation::Callback> done;
  std::size_t kept = 0;
  for (const FlowId id : order_) {
    const Flow& f = flows_[id];
    if (flow_done(f.remaining, f.rate)) {
      bytes_rounded_ += f.remaining;  // sub-slack residue, written off
      done.push_back(flows_.take(id).on_complete);
    } else {
      order_[kept++] = id;
    }
  }
  order_.resize(kept);
  rebalance();
  for (auto& cb : done) {
    if (cb) cb();
  }
}

}  // namespace sf::net
