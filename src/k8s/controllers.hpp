#pragma once

#include <map>
#include <string>

#include "k8s/api_server.hpp"

namespace sf::k8s {

/// Reconciles Deployments to their desired replica count (the ReplicaSet
/// layer is folded in). Scale-down removes the newest pods first; failed
/// pods are replaced after a backoff.
///
/// Dirty-marking: a reconcile reads only its deployment's pods through the
/// API server's owner index — O(owned) per reconcile, like the endpoints
/// controller's per-selector rebuilds — instead of scanning the whole pod
/// store on every deployment or pod event.
class DeploymentController {
 public:
  explicit DeploymentController(ApiServer& api);

  DeploymentController(const DeploymentController&) = delete;
  DeploymentController& operator=(const DeploymentController&) = delete;

  [[nodiscard]] std::uint64_t pods_created() const { return pods_created_; }

  /// Pods recreated because a predecessor failed (restart-backoff path) —
  /// distinct from scale-up creations. pods_created() counts both.
  [[nodiscard]] std::uint64_t pods_replaced() const { return pods_replaced_; }

  /// Probe counter: pods examined across all reconciles (and deleted-
  /// deployment cleanups). The regression test pins this to the touched
  /// deployment's own pod count, proving reconciles no longer scan the
  /// whole store.
  [[nodiscard]] std::uint64_t reconcile_probes() const {
    return reconcile_probes_;
  }

 private:
  void reconcile(const std::string& deployment_name);
  void check_invariants() const;

  ApiServer& api_;
  std::map<std::string, int> next_index_;  // per-deployment pod name counter
  /// Deployments whose failure backoff is armed: reconciles are held until
  /// the backoff event fires, so replacements are actually paced (a
  /// kDeleted watch event used to sneak an immediate reconcile past the
  /// backoff).
  std::map<std::string, int> backoff_hold_;
  std::uint64_t pods_created_ = 0;
  std::uint64_t pods_replaced_ = 0;
  std::uint64_t reconcile_probes_ = 0;
  /// Sum of next_index_ values retired when their deployment was deleted;
  /// debug invariant: pods_created_ == indices_retired_ + Σ next_index_.
  std::uint64_t indices_retired_ = 0;
};

/// Node-lifecycle controller configuration. `lease_duration_s` is how long
/// the controller tolerates a silent kubelet before declaring the node
/// NotReady; `sweep_interval_s` paces the reconcile loop (and therefore
/// bounds detection latency at lease_duration + sweep_interval).
struct NodeLifecycleConfig {
  double lease_duration_s = 4.0;
  double sweep_interval_s = 1.0;
};

/// Watches node leases and drives the crash → recovery state machine:
/// lease expired → node NotReady → pods on it evicted (kFailed, so the
/// Deployment controller replaces them elsewhere; orphaned Terminating
/// pods are force-finalized) → heartbeats resume → node Ready again →
/// scheduler retries anything pending.
///
/// Each sweep reads every registered node's lease and Ready flag in place,
/// in name order: one pass over dense arrays, about the cost of the
/// heartbeat tick that runs beside it.
///
/// NOTE: the sweep keeps one event pending forever — enable only in
/// scenarios driven to a workload-defined end (see the heartbeat wheel).
class NodeLifecycleController {
 public:
  NodeLifecycleController(ApiServer& api, NodeLifecycleConfig cfg = {});

  NodeLifecycleController(const NodeLifecycleController&) = delete;
  NodeLifecycleController& operator=(const NodeLifecycleController&) = delete;

  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }
  [[nodiscard]] std::uint64_t not_ready_transitions() const {
    return not_ready_transitions_;
  }

  /// Probe counter: registered nodes examined, one per node per sweep.
  [[nodiscard]] std::uint64_t sweep_probes() const { return sweep_probes_; }

  /// Probe counter: pods examined by evictions (only the affected node's
  /// pods, per the per-node pod index).
  [[nodiscard]] std::uint64_t eviction_probes() const {
    return eviction_probes_;
  }

 private:
  void sweep();
  void evict_pods(const std::string& node_name);

  ApiServer& api_;
  NodeLifecycleConfig cfg_;
  std::uint64_t evictions_ = 0;
  std::uint64_t not_ready_transitions_ = 0;
  std::uint64_t sweep_probes_ = 0;
  std::uint64_t eviction_probes_ = 0;
};

/// Maintains each Service's Endpoints as the set of ready pods matching
/// its selector.
///
/// On each pod watch delivery it refreshes only the services whose
/// selector matches the pod's labels. A refresh publishes the service's
/// ready set, which the ApiServer keeps in step with every pod mutation
/// (ApiServer::ready_endpoints), so it costs O(1) when the set has not
/// moved and one list compare and copy when it has. It never rescans the
/// pod store. Publishing happens at the same deliveries, and emits an
/// endpoints event only when the list changed, exactly as a rebuild from
/// the store would.
class EndpointsController {
 public:
  explicit EndpointsController(ApiServer& api);

  EndpointsController(const EndpointsController&) = delete;
  EndpointsController& operator=(const EndpointsController&) = delete;

  /// Probe counter: endpoints refreshes performed (one per matching
  /// service per pod event). The regression test pins this to the number
  /// of *matching* events, proving non-matching services are skipped.
  [[nodiscard]] std::uint64_t refreshes() const { return refreshes_; }

 private:
  void refresh_matching(const Pod& pod);

  ApiServer& api_;
  std::uint64_t refreshes_ = 0;
};

}  // namespace sf::k8s
