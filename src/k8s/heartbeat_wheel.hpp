#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "k8s/api_server.hpp"

namespace sf::k8s {

class Kubelet;

/// Shared calendarized heartbeat driver: ONE self-rearming engine event
/// renews the leases of every live kubelet per interval, replacing the old
/// per-kubelet timers (10k pending events and 10k event pops per interval
/// at 10k nodes). Renewal order within a tick is unobservable — a renewal
/// only stamps a lease — so batching cohorts into one event is
/// bit-identical to the per-kubelet scheme; only the engine's event count
/// drops.
///
/// Per-node gating is preserved: each tick re-evaluates
/// Kubelet::heartbeat_alive() (node up + control plane reachable), so a
/// down or partitioned node's lease goes stale exactly as before.
/// Crashed nodes don't pay the probe: KubeCluster removes a member on node
/// crash and restores it on reboot, which only flips the member's `live`
/// flag, and the tick skips members whose flag is clear.
///
/// NOTE: once started, the wheel keeps one event pending forever — only
/// start it in scenarios driven to a workload-defined end (fault
/// injection, lifecycle-enabled serving runs).
class HeartbeatWheel {
 public:
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  explicit HeartbeatWheel(ApiServer& api) : api_(api) {}

  HeartbeatWheel(const HeartbeatWheel&) = delete;
  HeartbeatWheel& operator=(const HeartbeatWheel&) = delete;

  /// Joins a kubelet to the wheel and renews its lease immediately when it
  /// is alive (the old start_heartbeats contract at enable time). Returns
  /// the member id used by remove()/restore().
  std::uint32_t add(Kubelet& kubelet);

  /// Stops renewing a member's lease (node crashed). Idempotent.
  void remove(std::uint32_t member);

  /// Resumes renewing a member's lease (node rebooted), from the next
  /// wheel tick on. Idempotent.
  void restore(std::uint32_t member);

  /// Starts the shared tick. Idempotent; the first call pins the interval.
  void start(double interval_s);

  [[nodiscard]] bool started() const { return started_; }

 private:
  void tick();

  struct Member {
    /// The kubelet's &connectivity_probe(): the probe object's address is
    /// stable even when the probe is (re)assigned, and reading it skips
    /// the kubelet + node chases on the tick path. A set `live` flag
    /// already implies the node is up — the owner removes members on crash
    /// and restores them on reboot — so the probe is the only per-tick
    /// liveness input.
    const std::function<bool()>* probe = nullptr;
    std::uint32_t node_slot = 0;  ///< ApiServer node slot (renew hot path)
    bool live = false;
  };

  ApiServer& api_;
  double interval_ = 1.0;
  bool started_ = false;
  std::vector<Member> members_;  ///< in add order
};

}  // namespace sf::k8s
