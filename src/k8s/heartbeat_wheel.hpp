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
/// Permanently failed nodes don't even pay the per-tick check: KubeCluster
/// removes a member on node crash and restores it on reboot (intrusive
/// live list, O(1) both ways) — dead kubelets stop ticking instead of
/// being polled for the rest of the run.
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

  /// Detaches a member from the live list (node crashed). Idempotent.
  void remove(std::uint32_t member);

  /// Re-attaches a member (node rebooted); its lease renews at the next
  /// wheel tick, exactly when the old per-kubelet timer would have fired.
  /// Idempotent.
  void restore(std::uint32_t member);

  /// Starts the shared tick. Idempotent; the first call pins the interval.
  void start(double interval_s);

  [[nodiscard]] bool started() const { return started_; }

 private:
  void tick();

  struct Member {
    Kubelet* kubelet = nullptr;
    /// Cached &kubelet->connectivity_probe(): the probe object's address
    /// is stable even when the probe is (re)assigned, and reading it skips
    /// the kubelet + node chases on the tick path. Live-list membership
    /// already implies the node is up — the owner removes members on crash
    /// and restores them on reboot — so the probe is the only per-tick
    /// liveness input.
    const std::function<bool()>* probe = nullptr;
    std::uint32_t node_slot = 0;  ///< ApiServer node slot (renew hot path)
    std::uint32_t prev = kNone;
    std::uint32_t next = kNone;
    bool live = false;
  };

  ApiServer& api_;
  double interval_ = 1.0;
  bool started_ = false;
  std::vector<Member> members_;
  std::uint32_t head_ = kNone;
  std::uint32_t tail_ = kNone;
};

}  // namespace sf::k8s
