#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "cluster/rack_map.hpp"
#include "core/testbed.hpp"
#include "fault/splitmix.hpp"
#include "k8s/controllers.hpp"

namespace sf::fault {

/// What a planned fault does when it fires.
enum class FaultKind : std::uint8_t {
  kNodeCrash,       ///< Node::fail() now, Node::recover() after duration
  kRegistryOutage,  ///< registry refuses pulls for duration (backoff path)
  kPodKill,         ///< kubelet kills one running pod (pre-drawn pick)
  kLinkDegrade,     ///< node NIC at bandwidth*factor for duration
  kPartition,       ///< node pair blocked for duration
  kCpuSlow,         ///< gray: node CPU pinned at factor for duration
  kFlakyNic,        ///< gray: node NIC stalls every Nth flow for duration
  kRackPartition,   ///< rack cut off from the rest of the fabric
  kOnewayPartition, ///< gray: directed link src → dst cut, reverse flows
  kCatalogOutage,   ///< metadata tier refuses requests for duration
};

/// Number of FaultKind values: sizes the injector's per-kind counters.
inline constexpr std::size_t kFaultKinds =
    static_cast<std::size_t>(FaultKind::kCatalogOutage) + 1;

const char* to_string(FaultKind kind);

/// One planned fault. The full plan is a pure function of
/// (seed, FaultConfig, RackMap): every field — including `pick`, the
/// randomness consumed at fire time — is drawn during planning, so the
/// simulation's own RNG and event ordering never influence what gets
/// injected, only what the faults hit.
///
/// Correlated incidents (a rack PDU trip, a deploy storm) are expanded at
/// plan time into their per-node burst; the member events share a nonzero
/// `incident` id so tests and post-mortems can group them back together.
struct FaultEvent {
  double at = 0;             ///< absolute sim time
  FaultKind kind = FaultKind::kNodeCrash;
  std::uint32_t node = 0;    ///< victim node index (rack id: kRackPartition)
  std::uint32_t peer = 0;    ///< partition peer (unused otherwise)
  double duration_s = 0;     ///< outage / degradation / downtime window
  double factor = 1.0;       ///< bandwidth or CPU multiplier
  std::uint64_t pick = 0;    ///< fire-time victim selector (kPodKill)
  std::uint32_t incident = 0;  ///< correlated-burst id; 0 = independent

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

/// Fault-channel intensities. A channel with mean_s == 0 is off;
/// otherwise its events arrive as a Poisson process with the given mean
/// inter-arrival time, independent per channel (forked RNG streams).
///
/// Channels fall into three families:
///  * independent fail-stop: node_crash, pull_outage, pod_kill, degrade,
///    partition — one planned arrival, one applied event;
///  * correlated incidents: rack_fail (PDU trip → every crashable node in
///    one rack crashes within a stagger window), deploy_storm (registry
///    outage coinciding with a burst of pod kills), rack_partition (a
///    cut-set isolating one rack — split-brain, not a pairwise block);
///  * gray failures: cpu_slow (a node straggles at a capacity factor but
///    heartbeats keep passing), flaky_nic (every Nth flow through the
///    node stalls) — the machinery above sees timeouts racing stragglers
///    instead of clean errors.
struct FaultConfig {
  double horizon_s = 1800;  ///< plan window [0, horizon)

  double node_crash_mean_s = 0;  ///< worker VM crash inter-arrival
  double node_downtime_s = 25;   ///< crash → reboot delay

  double pull_outage_mean_s = 0;      ///< registry outage inter-arrival
  double pull_outage_duration_s = 6;  ///< pulls refused this long

  double pod_kill_mean_s = 0;  ///< single-pod kill inter-arrival

  double degrade_mean_s = 0;       ///< NIC brown-out inter-arrival
  double degrade_duration_s = 20;  ///< brown-out window
  double degrade_factor = 0.25;    ///< bandwidth multiplier while browned

  double partition_mean_s = 0;       ///< pairwise partition inter-arrival
  double partition_duration_s = 15;  ///< healed after this long

  // ---- Correlated incidents -----------------------------------------

  /// Rack count the default topology splits the cluster into (contiguous
  /// near-equal blocks, node 0 in rack 0). Ignored by the RackMap
  /// overload of make_fault_plan. 1 = whole cluster is one rack, which
  /// disables the rack-partition channel (there is nothing to cut).
  std::uint32_t racks = 1;

  double rack_fail_mean_s = 0;      ///< PDU-trip inter-arrival
  double rack_fail_downtime_s = 30; ///< whole-rack crash → reboot delay
  double rack_fail_stagger_s = 0.5; ///< per-node crash jitter in the burst

  double rack_partition_mean_s = 0;       ///< rack cut inter-arrival
  double rack_partition_duration_s = 20;  ///< cut healed after this long

  double deploy_storm_mean_s = 0;    ///< storm inter-arrival
  double deploy_storm_outage_s = 8;  ///< registry outage in the storm
  std::uint32_t deploy_storm_kills = 3;  ///< pod kills per storm
  double deploy_storm_spread_s = 4;  ///< kills land within this window

  // ---- Gray failures ------------------------------------------------

  double cpu_slow_mean_s = 0;      ///< straggler-node inter-arrival
  double cpu_slow_duration_s = 30; ///< pinned-slow window
  double cpu_slow_factor = 0.1;    ///< CPU capacity multiplier while slow

  double flaky_nic_mean_s = 0;       ///< flaky-NIC inter-arrival
  double flaky_nic_duration_s = 30;  ///< flaky window
  std::uint32_t flaky_nic_every = 5; ///< every Nth flow stalls
  double flaky_nic_stall_s = 2.0;    ///< stall added to the Nth flow

  /// Asymmetric partition: the directed link src → dst is cut while the
  /// reverse keeps flowing. The nastiest gray shape: lease renewals and
  /// requests still arrive, only the *replies* vanish — symmetric
  /// heartbeat probes stay green, so nothing is evicted and only
  /// data-plane deadlines (route_timeout_s + outlier ejection) notice.
  double oneway_partition_mean_s = 0;       ///< directed-cut inter-arrival
  double oneway_partition_duration_s = 15;  ///< healed after this long

  /// Metadata-tier outage: the catalog service refuses requests for the
  /// window (the client's cache / retry / breaker / stale-read stack is
  /// what turns this into delay instead of failure). Planned arrivals on
  /// a testbed with no catalog tier are skipped, not applied.
  double catalog_outage_mean_s = 0;       ///< outage inter-arrival
  double catalog_outage_duration_s = 12;  ///< requests refused this long

  /// Spare node 0 (control plane, registry, submit side) from crashes —
  /// losing the schedd/API state is unrecoverable by design. This also
  /// covers rack-fail bursts (the head node survives its rack's PDU) and
  /// the cpu_slow channel (a straggling schedd slows everything without
  /// exercising any recovery path). Connectivity faults (degradation,
  /// flaky NICs, partitions, rack cuts) still target ALL nodes: they are
  /// transient, flows resume where they stalled, and in this testbed the
  /// bulk traffic runs head ↔ worker.
  bool spare_head_node = true;

  /// Crash-detection control loop applied by FaultInjector::arm() when
  /// any crash- or split-brain-shaped channel is enabled (kubelet
  /// heartbeats + node-lifecycle controller).
  k8s::NodeLifecycleConfig lifecycle{};
  double heartbeat_interval_s = 1.0;
};

/// What one arrival of a channel hits.
enum class Target : std::uint8_t {
  kNone,         ///< a cluster-wide service (registry, catalog): no draw
  kCrashable,    ///< one node outside the spared head
  kAnyNode,      ///< any node
  kNodePair,     ///< `node`, then a distinct `peer`
  kRack,         ///< one rack (`node` = rack id); needs two or more racks
  kPodPick,      ///< a running pod, chosen at fire time by a drawn `pick`
  kRackPdu,      ///< every crashable node of one rack, staggered
  kDeployStorm,  ///< a registry outage plus a burst of pod kills
};

/// One fault channel: where its knobs live in FaultConfig, its plan
/// stream and what one arrival expands into. Adding a channel is a
/// mean/duration pair in FaultConfig plus one row of kChannels; a new
/// FaultKind also needs to_string() and one case in the injector's apply.
struct Channel {
  const char* name;   ///< FaultConfig field holding the mean
  const char* label;  ///< short tag for tables
  /// Plan stream tag. Part of the determinism contract: renumbering a
  /// row would change every plan that enables it.
  std::uint64_t stream;
  double FaultConfig::*mean;      ///< mean inter-arrival time; 0 = off
  double FaultConfig::*duration;  ///< event window; nullptr = instant
  double FaultConfig::*factor;    ///< capacity multiplier; nullptr = 1
  FaultKind kind;
  Target target;
  /// Correlated channels number their incidents from this base, one
  /// block per channel, so ids stay stable when other channels change;
  /// 0 = independent arrivals.
  std::uint32_t incident_base;
};

/// The twelve channels in stream-tag order: the one list the planner,
/// the settle pad, the fuzzer and its shrinker all walk.
inline constexpr std::array<Channel, 12> kChannels{{
    {"node_crash_mean_s", "crash", 0xA1, &FaultConfig::node_crash_mean_s,
     &FaultConfig::node_downtime_s, nullptr, FaultKind::kNodeCrash,
     Target::kCrashable, 0},
    {"pull_outage_mean_s", "pull", 0xA2, &FaultConfig::pull_outage_mean_s,
     &FaultConfig::pull_outage_duration_s, nullptr,
     FaultKind::kRegistryOutage, Target::kNone, 0},
    {"pod_kill_mean_s", "kill", 0xA3, &FaultConfig::pod_kill_mean_s,
     nullptr, nullptr, FaultKind::kPodKill, Target::kPodPick, 0},
    {"degrade_mean_s", "degr", 0xA4, &FaultConfig::degrade_mean_s,
     &FaultConfig::degrade_duration_s, &FaultConfig::degrade_factor,
     FaultKind::kLinkDegrade, Target::kAnyNode, 0},
    {"partition_mean_s", "part", 0xA5, &FaultConfig::partition_mean_s,
     &FaultConfig::partition_duration_s, nullptr, FaultKind::kPartition,
     Target::kNodePair, 0},
    {"rack_fail_mean_s", "rackf", 0xA6, &FaultConfig::rack_fail_mean_s,
     &FaultConfig::rack_fail_downtime_s, nullptr, FaultKind::kNodeCrash,
     Target::kRackPdu, 0x10000},
    {"rack_partition_mean_s", "rackp", 0xA7,
     &FaultConfig::rack_partition_mean_s,
     &FaultConfig::rack_partition_duration_s, nullptr,
     FaultKind::kRackPartition, Target::kRack, 0x30000},
    {"deploy_storm_mean_s", "storm", 0xA8, &FaultConfig::deploy_storm_mean_s,
     &FaultConfig::deploy_storm_outage_s, nullptr,
     FaultKind::kRegistryOutage, Target::kDeployStorm, 0x20000},
    {"cpu_slow_mean_s", "cpu", 0xA9, &FaultConfig::cpu_slow_mean_s,
     &FaultConfig::cpu_slow_duration_s, &FaultConfig::cpu_slow_factor,
     FaultKind::kCpuSlow, Target::kCrashable, 0},
    {"flaky_nic_mean_s", "flaky", 0xAA, &FaultConfig::flaky_nic_mean_s,
     &FaultConfig::flaky_nic_duration_s, nullptr, FaultKind::kFlakyNic,
     Target::kAnyNode, 0},
    {"oneway_partition_mean_s", "oneway", 0xAB,
     &FaultConfig::oneway_partition_mean_s,
     &FaultConfig::oneway_partition_duration_s, nullptr,
     FaultKind::kOnewayPartition, Target::kNodePair, 0},
    {"catalog_outage_mean_s", "cat", 0xAC,
     &FaultConfig::catalog_outage_mean_s,
     &FaultConfig::catalog_outage_duration_s, nullptr,
     FaultKind::kCatalogOutage, Target::kNone, 0},
}};

/// Longest time any enabled channel's window needs to heal after the plan
/// horizon, on a cluster of `node_count` nodes: the settle pad before
/// quiesce invariants may be asserted.
[[nodiscard]] double heal_window_s(const FaultConfig& cfg,
                                   std::uint32_t node_count);

/// Generates the deterministic fault timeline for a cluster laid out by
/// `racks` (node 0 = head). Events are sorted by time with a
/// deterministic tie-break; same (seed, cfg, RackMap) ⇒ identical
/// vector, on any platform, regardless of simulation state.
std::vector<FaultEvent> make_fault_plan(std::uint64_t seed,
                                        const FaultConfig& cfg,
                                        const cluster::RackMap& racks);

/// Convenience overload: derives the topology from cfg.racks contiguous
/// blocks over `node_count` nodes.
std::vector<FaultEvent> make_fault_plan(std::uint64_t seed,
                                        const FaultConfig& cfg,
                                        std::uint32_t node_count);

/// Schedules a fault plan against a running PaperTestbed and owns the
/// recovery bookkeeping that keeps repeated faults composable (nested
/// degradation windows, overlapping partitions, crash-while-down,
/// rack cuts stacked on pairwise blocks).
///
/// Usage: construct, arm() once before driving the simulation, read the
/// applied() counters after. The injector must outlive the simulation
/// run it is armed on.
class FaultInjector {
 public:
  FaultInjector(core::PaperTestbed& testbed, FaultConfig cfg,
                std::uint64_t seed);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Schedules every planned event (and enables the node-lifecycle loop
  /// when a crash-shaped channel is on). Idempotent.
  void arm();

  [[nodiscard]] const FaultConfig& config() const { return cfg_; }
  [[nodiscard]] const std::vector<FaultEvent>& plan() const { return plan_; }
  [[nodiscard]] const cluster::RackMap& rack_map() const { return racks_; }

  /// Planned events of `kind` that took effect. A planned event is
  /// *skipped*, not applied, when its target cannot take it — e.g.
  /// crashing an already-down node or killing a pod when none are running.
  [[nodiscard]] std::uint64_t applied(FaultKind kind) const {
    return applied_[static_cast<std::size_t>(kind)];
  }
  [[nodiscard]] std::uint64_t applied_total() const;
  [[nodiscard]] std::uint64_t skipped() const { return skipped_; }
  [[nodiscard]] std::uint64_t node_reboots() const { return node_reboots_; }

  /// Sum of all outstanding factor-window depth counters (degradations,
  /// CPU slowdowns, flaky NICs). Zero once every window has healed — the
  /// sf::check quiesce invariant: a heal path that forgets to undo its
  /// effect leaves a residue here. Open cuts are the network's to count
  /// (FlowNetwork::blocked_pair_count and blocked_oneway_count).
  [[nodiscard]] std::uint64_t residual_depth() const;

 private:
  void apply(const FaultEvent& ev);
  /// Applies one planned event; false when its target cannot take it.
  bool fire(const FaultEvent& ev);
  bool crash_node(const FaultEvent& ev);
  bool kill_pod(const FaultEvent& ev);

  core::PaperTestbed& tb_;
  FaultConfig cfg_;
  cluster::RackMap racks_;
  std::uint32_t node_count_ = 0;
  std::vector<FaultEvent> plan_;
  bool armed_ = false;

  /// Overlap depth per faulted node, indexed by node id: the FIRST
  /// overlapping window's factor applies, and the effect is undone only
  /// when the LAST window expires, so back-to-back faults never un-fault
  /// each other early.
  std::vector<int> degrade_depth_;
  std::vector<int> cpu_slow_depth_;
  std::vector<int> flaky_depth_;

  std::array<std::uint64_t, kFaultKinds> applied_{};
  std::uint64_t node_reboots_ = 0;
  std::uint64_t skipped_ = 0;
};

}  // namespace sf::fault
