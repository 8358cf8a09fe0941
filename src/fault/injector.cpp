#include "fault/injector.hpp"

#include <algorithm>
#include <numeric>
#include <tuple>
#include <utility>

namespace sf::fault {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNodeCrash:
      return "node_crash";
    case FaultKind::kRegistryOutage:
      return "registry_outage";
    case FaultKind::kPodKill:
      return "pod_kill";
    case FaultKind::kLinkDegrade:
      return "link_degrade";
    case FaultKind::kPartition:
      return "partition";
    case FaultKind::kCpuSlow:
      return "cpu_slow";
    case FaultKind::kFlakyNic:
      return "flaky_nic";
    case FaultKind::kRackPartition:
      return "rack_partition";
    case FaultKind::kOnewayPartition:
      return "oneway_partition";
    case FaultKind::kCatalogOutage:
      return "catalog_outage";
  }
  return "unknown";
}

double heal_window_s(const FaultConfig& cfg, std::uint32_t node_count) {
  double longest = 0;
  for (const Channel& ch : kChannels) {
    if (cfg.*ch.mean <= 0) continue;
    double window = ch.duration != nullptr ? cfg.*ch.duration : 0;
    if (ch.target == Target::kRackPdu) {
      window += cfg.rack_fail_stagger_s * static_cast<double>(node_count);
    } else if (ch.target == Target::kDeployStorm) {
      window += cfg.deploy_storm_spread_s;
    }
    longest = std::max(longest, window);
  }
  return longest;
}

std::vector<FaultEvent> make_fault_plan(std::uint64_t seed,
                                        const FaultConfig& cfg,
                                        const cluster::RackMap& racks) {
  std::vector<FaultEvent> plan;
  const std::uint32_t node_count = racks.node_count();
  // Crashable node indices: [first, node_count). Connectivity faults
  // (degrade / flaky / partition / rack cut) target all nodes — see
  // FaultConfig.
  const std::uint32_t first = cfg.spare_head_node ? 1 : 0;
  const std::uint32_t crashable =
      node_count > first ? node_count - first : 0;
  std::vector<std::uint32_t> pdu_racks;  // racks with ≥1 crashable node
  for (std::uint32_t r = 0; r < racks.rack_count(); ++r) {
    const auto& members = racks.nodes_in(r);
    if (std::any_of(members.begin(), members.end(),
                    [first](std::uint32_t n) { return n >= first; })) {
      pdu_racks.push_back(r);
    }
  }
  auto has_target = [&](Target target) {
    switch (target) {
      case Target::kCrashable:
        return crashable > 0;
      case Target::kAnyNode:
        return node_count > 0;
      case Target::kNodePair:
        return node_count > 1;
      case Target::kRack:
        return racks.rack_count() > 1;
      case Target::kRackPdu:
        return !pdu_racks.empty();
      default:
        return true;  // cluster-wide services and pod picks always exist
    }
  };

  // Each channel is a Poisson process on [0, horizon) over its own forked
  // stream, so channels never perturb each other's timelines. A channel
  // whose target cannot exist on this topology draws nothing.
  for (const Channel& ch : kChannels) {
    const double mean = cfg.*ch.mean;
    if (mean <= 0 || !has_target(ch.target)) continue;
    if (ch.kind == FaultKind::kFlakyNic && cfg.flaky_nic_every == 0) continue;
    SplitMix64 rng = SplitMix64::fork(seed, ch.stream);
    auto below = [&rng](std::uint64_t n) {
      return static_cast<std::uint32_t>(rng.next_below(n));
    };
    FaultEvent ev;
    ev.kind = ch.kind;
    ev.duration_s = ch.duration != nullptr ? cfg.*ch.duration : 0;
    ev.factor =
        ch.factor != nullptr ? std::clamp(cfg.*ch.factor, 1e-6, 1.0) : 1.0;
    ev.incident = ch.incident_base;
    for (double t = rng.exponential(mean); t < cfg.horizon_s;
         t += rng.exponential(mean)) {
      ev.at = t;
      if (ch.incident_base != 0) ++ev.incident;
      switch (ch.target) {
        case Target::kNone:
          break;
        case Target::kCrashable:
          ev.node = first + below(crashable);
          break;
        case Target::kAnyNode:
          ev.node = below(node_count);
          break;
        case Target::kRack:
          ev.node = below(racks.rack_count());
          break;
        case Target::kNodePair: {
          // Directed for one-way cuts: node → peer. The peer is drawn from
          // the remaining nodes, shifted past the victim so the pair is
          // always distinct.
          ev.node = below(node_count);
          const std::uint32_t other = below(node_count - 1);
          ev.peer = other >= ev.node ? other + 1 : other;
          break;
        }
        case Target::kPodPick:
          ev.pick = rng.next();
          break;
        case Target::kRackPdu:
          // Correlated incidents expand here, at plan time, into member
          // events sharing the incident id: a PDU trip crashes every
          // crashable node of one rack within a stagger window (power
          // supplies don't drop in perfect sync).
          for (const std::uint32_t n :
               racks.nodes_in(pdu_racks[below(pdu_racks.size())])) {
            if (n < first) continue;  // head survives its rack's PDU
            plan.push_back(ev);
            plan.back().at = t + rng.next_double() * cfg.rack_fail_stagger_s;
            plan.back().node = n;
          }
          continue;
        case Target::kDeployStorm:
          // A registry outage coinciding with a burst of pod kills: pulls
          // for the replacements hit the dead registry, so the backoff
          // path races the outage window.
          plan.push_back(ev);
          for (std::uint32_t k = 0; k < cfg.deploy_storm_kills; ++k) {
            FaultEvent kill;
            kill.at = t + rng.next_double() * cfg.deploy_storm_spread_s;
            kill.kind = FaultKind::kPodKill;
            kill.pick = rng.next();
            kill.incident = ev.incident;
            plan.push_back(kill);
          }
          continue;
      }
      plan.push_back(ev);
    }
  }

  // Deterministic total order: time, then every discriminating field.
  // Cross-channel ties are practically impossible (53-bit exponentials)
  // but must still order identically everywhere.
  std::sort(plan.begin(), plan.end(),
            [](const FaultEvent& a, const FaultEvent& b) {
              return std::tie(a.at, a.kind, a.node, a.peer, a.incident,
                              a.pick) <
                     std::tie(b.at, b.kind, b.node, b.peer, b.incident,
                              b.pick);
            });
  return plan;
}

std::vector<FaultEvent> make_fault_plan(std::uint64_t seed,
                                        const FaultConfig& cfg,
                                        std::uint32_t node_count) {
  if (node_count == 0) return {};
  const std::uint32_t racks =
      std::clamp<std::uint32_t>(cfg.racks, 1, node_count);
  return make_fault_plan(seed, cfg,
                         cluster::RackMap::blocks(node_count, racks));
}

namespace {

/// Calls `set(true)` now and `set(false)` `duration_s` later.
template <typename Set>
void window(sim::Simulation& sim, double duration_s, Set set) {
  set(true);
  sim.call_in(duration_s, [set] { set(false); });
}

/// Overlap-counted factor setter: `set(true)` when the first window on a
/// target opens and `set(false)` when the last one closes, so
/// back-to-back faults never un-fault each other early and nested
/// windows keep the FIRST window's factor.
template <typename Set>
auto counted(int& depth, Set set) {
  return [&depth, set](bool open) {
    if (open) {
      if (++depth == 1) set(true);
    } else if (--depth <= 0) {
      depth = 0;
      set(false);
    }
  };
}

}  // namespace

FaultInjector::FaultInjector(core::PaperTestbed& testbed, FaultConfig cfg,
                             std::uint64_t seed)
    : tb_(testbed),
      cfg_(cfg),
      racks_(cluster::RackMap::blocks(
          static_cast<std::uint32_t>(testbed.cluster().size()),
          std::clamp<std::uint32_t>(
              cfg.racks, 1,
              static_cast<std::uint32_t>(testbed.cluster().size())))),
      node_count_(static_cast<std::uint32_t>(testbed.cluster().size())),
      plan_(make_fault_plan(seed, cfg, racks_)),
      degrade_depth_(node_count_, 0),
      cpu_slow_depth_(node_count_, 0),
      flaky_depth_(node_count_, 0) {}

void FaultInjector::arm() {
  if (armed_) return;
  armed_ = true;
  sim::Simulation& sim = tb_.sim();
  if (cfg_.node_crash_mean_s > 0 || cfg_.rack_fail_mean_s > 0 ||
      cfg_.rack_partition_mean_s > 0) {
    // Crashes and rack cuts are only recoverable end-to-end with the
    // detection loop on (heartbeats → lease expiry → NotReady →
    // evictions → reschedule). Pairwise partitions deliberately don't
    // enable it: they model a single flaky link, not a node that looks
    // dead to the control plane.
    tb_.kube().enable_node_lifecycle(cfg_.lifecycle,
                                     cfg_.heartbeat_interval_s);
  }
  for (std::size_t i = 0; i < plan_.size(); ++i) {
    if (plan_[i].at < sim.now()) continue;  // armed late: past is past
    sim.call_at(plan_[i].at, [this, i] { apply(plan_[i]); });
  }
}

void FaultInjector::apply(const FaultEvent& ev) {
  tb_.sim().trace().record(tb_.sim().now(), "fault", to_string(ev.kind),
                           {{"node", std::to_string(ev.node)}});
  if (fire(ev)) {
    ++applied_[static_cast<std::size_t>(ev.kind)];
  } else {
    ++skipped_;
  }
}

bool FaultInjector::fire(const FaultEvent& ev) {
  sim::Simulation& sim = tb_.sim();
  net::FlowNetwork& net = tb_.cluster().network();
  switch (ev.kind) {
    case FaultKind::kNodeCrash:
      return crash_node(ev);
    case FaultKind::kRegistryOutage:
      tb_.registry().set_outage_until(sim.now() + ev.duration_s);
      return true;
    case FaultKind::kPodKill:
      return kill_pod(ev);
    case FaultKind::kLinkDegrade:
      window(sim, ev.duration_s,
             counted(degrade_depth_[ev.node],
                     [&net, id = tb_.cluster().node(ev.node).net_id(),
                      factor = ev.factor](bool on) {
                       net.set_node_bandwidth_factor(id, on ? factor : 1.0);
                     }));
      return true;
    // Cuts: the network counts the open cuts of each pair and direction,
    // so an overlapping window never heals a link early.
    case FaultKind::kPartition:
      window(sim, ev.duration_s,
             [&net, a = tb_.cluster().node(ev.node).net_id(),
              b = tb_.cluster().node(ev.peer).net_id()](bool on) {
               net.set_partition(a, b, on);
             });
      return true;
    case FaultKind::kCpuSlow:
      window(sim, ev.duration_s,
             counted(cpu_slow_depth_[ev.node],
                     [&node = tb_.cluster().node(ev.node),
                      factor = ev.factor](bool on) {
                       node.set_cpu_slowdown(on ? factor : 1.0);
                     }));
      return true;
    case FaultKind::kFlakyNic:
      window(sim, ev.duration_s,
             counted(flaky_depth_[ev.node],
                     [&net, id = tb_.cluster().node(ev.node).net_id(),
                      every = cfg_.flaky_nic_every,
                      stall = cfg_.flaky_nic_stall_s](bool on) {
                       net.set_node_flaky(id, on ? every : 0,
                                          on ? stall : 0);
                     }));
      return true;
    case FaultKind::kRackPartition:
      // Cut-set: every {inside, outside} pair of the chosen rack. One heal
      // timer closes the whole set.
      window(sim, ev.duration_s, [this, &net, rack = ev.node](bool on) {
        for (const std::uint32_t in : racks_.nodes_in(rack)) {
          for (std::uint32_t out = 0; out < node_count_; ++out) {
            if (racks_.rack_of(out) == rack) continue;
            net.set_partition(tb_.cluster().node(in).net_id(),
                              tb_.cluster().node(out).net_id(), on);
          }
        }
      });
      return true;
    case FaultKind::kOnewayPartition:
      // The reverse direction and a symmetric cut of the pair are cuts of
      // their own: FlowNetwork ORs them per direction.
      window(sim, ev.duration_s,
             [&net, src = tb_.cluster().node(ev.node).net_id(),
              dst = tb_.cluster().node(ev.peer).net_id()](bool on) {
               net.set_partition_oneway(src, dst, on);
             });
      return true;
    case FaultKind::kCatalogOutage:
      if (tb_.catalog_service() == nullptr) return false;  // no metadata tier
      tb_.catalog_service()->set_outage_until(sim.now() + ev.duration_s);
      return true;
  }
  return false;
}

bool FaultInjector::crash_node(const FaultEvent& ev) {
  cluster::Node& node = tb_.cluster().node(ev.node);
  if (!node.up()) return false;  // already down; its reboot is pending
  node.fail();
  tb_.sim().call_in(ev.duration_s, [this, &node] {
    if (!node.up()) {
      node.recover();
      ++node_reboots_;
    }
  });
  return true;
}

bool FaultInjector::kill_pod(const FaultEvent& ev) {
  // Candidates in NamedStore name order (deterministic); only pods a
  // kubelet actually manages can be killed.
  std::vector<std::string> candidates;
  tb_.kube().api().for_each_pod([&](const k8s::Pod& pod) {
    if (pod.node_name.empty()) return;
    if (pod.phase == k8s::PodPhase::kScheduled ||
        pod.phase == k8s::PodPhase::kRunning) {
      candidates.push_back(pod.name);
    }
  });
  if (candidates.empty()) return false;
  return tb_.kube().kill_pod(candidates[ev.pick % candidates.size()]);
}

std::uint64_t FaultInjector::applied_total() const {
  return std::accumulate(applied_.begin(), applied_.end(), std::uint64_t{0});
}

std::uint64_t FaultInjector::residual_depth() const {
  std::uint64_t total = 0;
  for (const auto* depths :
       {&degrade_depth_, &cpu_slow_depth_, &flaky_depth_}) {
    for (const int d : *depths) total += static_cast<std::uint64_t>(d);
  }
  return total;
}

}  // namespace sf::fault
