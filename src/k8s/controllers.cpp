#include "k8s/controllers.hpp"

#include <algorithm>
#include <cassert>
#include <vector>

namespace sf::k8s {

// ---- DeploymentController ----------------------------------------------

namespace {
// Crash-loop restart pacing, in seconds. Kubernetes' CrashLoopBackOff
// grows exponentially; this models the steady-state fixed window the
// testbed calibrates against.
constexpr double kRestartBackoff = 1.0;
}  // namespace

DeploymentController::DeploymentController(ApiServer& api) : api_(api) {
  api_.watch_deployments([this](EventType type, const Deployment& dep) {
    if (type == EventType::kDeleted) {
      // Remove every pod the deployment owned, via the owner index —
      // O(owned), not a full-store scan. Collect names first (delete_pod
      // mutates the store mid-visit otherwise) and sort them: the old
      // full scan visited pods in name order, and deletion order is
      // observable through the watch stream.
      std::vector<std::string> owned;
      api_.for_each_pod_owned_by(dep.name, [&](const Pod& pod) {
        ++reconcile_probes_;
        owned.push_back(pod.name);
      });
      std::sort(owned.begin(), owned.end());
      for (const auto& name : owned) api_.delete_pod(name);
      auto idx = next_index_.find(dep.name);
      if (idx != next_index_.end()) {
        indices_retired_ += static_cast<std::uint64_t>(idx->second);
        next_index_.erase(idx);
      }
      backoff_hold_.erase(dep.name);
      return;
    }
    reconcile(dep.name);
  });
  api_.watch_pods([this](EventType type, const Pod& pod) {
    if (pod.owner.empty()) return;
    if (type == EventType::kDeleted) {
      reconcile(pod.owner);
    } else if (type == EventType::kModified &&
               pod.phase == PodPhase::kFailed) {
      // Replace crashed pods after a backoff (crash-loop protection).
      // While the backoff is armed, reconciles for this deployment are
      // held: the delete below produces a kDeleted watch event whose
      // immediate reconcile would otherwise create the replacement with
      // no pacing at all.
      ++backoff_hold_[pod.owner];
      ++pods_replaced_;
      api_.delete_pod(pod.name);
      api_.sim().call_in(kRestartBackoff, [this, owner = pod.owner] {
        auto it = backoff_hold_.find(owner);
        if (it != backoff_hold_.end() && --it->second <= 0) {
          backoff_hold_.erase(it);
        }
        reconcile(owner);
      });
    }
  });
}

void DeploymentController::check_invariants() const {
#ifndef NDEBUG
  std::uint64_t issued = indices_retired_;
  for (const auto& [name, idx] : next_index_) {
    issued += static_cast<std::uint64_t>(idx);
  }
  // Every pod ever created consumed exactly one name index and vice versa;
  // drift here means a creation or replacement path double-counted.
  assert(issued == pods_created_);
#endif
}

void DeploymentController::reconcile(const std::string& deployment_name) {
  const Deployment* dep = api_.get_deployment(deployment_name);
  if (dep == nullptr) return;
  // Failure backoff armed: all reconciles wait for it (pacing). The
  // backoff event itself reconciles once the hold clears.
  if (backoff_hold_.contains(deployment_name)) return;

  // Live pods this deployment owns, from the owner index — the
  // dirty-marking shape the endpoints controller uses: a reconcile
  // touches only this deployment's pods, never the whole store. Only the
  // name (for deletes) and uid (for the keep-newest ordering) matter — no
  // Pod copies. Visitation order is unspecified, which is fine: scale-up
  // uses only the count, scale-down totally orders by (unique) uid.
  struct Owned {
    std::string name;
    Uid uid;
  };
  std::vector<Owned> owned;
  api_.for_each_pod_owned_by(dep->name, [&](const Pod& pod) {
    ++reconcile_probes_;
    if (pod.phase != PodPhase::kTerminating &&
        pod.phase != PodPhase::kFailed) {
      owned.push_back(Owned{pod.name, pod.uid});
    }
  });
  const int live = static_cast<int>(owned.size());

  if (live < dep->replicas) {
    for (int i = live; i < dep->replicas; ++i) {
      Pod pod;
      pod.name = dep->name + "-" + std::to_string(next_index_[dep->name]++);
      pod.labels = dep->pod_labels;
      pod.container = dep->pod_template;
      pod.cpu_request = dep->cpu_request;
      pod.memory_request = dep->memory_request;
      pod.owner = dep->name;
      ++pods_created_;
      check_invariants();
      api_.create_pod(std::move(pod));
    }
  } else if (live > dep->replicas) {
    // Newest first (highest uid): keeps the longest-warm pods alive, which
    // is also what Knative wants for container reuse.
    std::sort(owned.begin(), owned.end(),
              [](const Owned& a, const Owned& b) { return a.uid > b.uid; });
    for (int i = 0; i < live - dep->replicas; ++i) {
      api_.delete_pod(owned[i].name);
    }
  }
}

// ---- NodeLifecycleController ---------------------------------------------

NodeLifecycleController::NodeLifecycleController(ApiServer& api,
                                                 NodeLifecycleConfig cfg)
    : api_(api), cfg_(cfg) {
  sweep();
}

void NodeLifecycleController::sweep() {
  // Both lists are collected, in name order, before any transition is
  // applied: every node is judged on the state the sweep started from.
  std::vector<std::string> expired;
  std::vector<std::string> recovered;
  sweep_probes_ += api_.collect_lease_transitions(
      api_.sim().now(), cfg_.lease_duration_s, expired, recovered);
  for (const auto& name : expired) {
    ++not_ready_transitions_;
    api_.set_node_ready(name, false);
    evict_pods(name);
  }
  for (const auto& name : recovered) {
    api_.set_node_ready(name, true);
  }
  api_.sim().call_in(cfg_.sweep_interval_s, [this] { sweep(); });
}

void NodeLifecycleController::evict_pods(const std::string& node_name) {
  struct Victim {
    std::string name;
    bool terminating;
  };
  std::vector<Victim> victims;
  // Only this node's pods, found through the pod→node side array. Sorted
  // by name afterwards: eviction order is observable (traces, watch
  // events, replacement scheduling), and the old full scan evicted in
  // name order.
  api_.for_each_pod_on_node(node_name, [&](const Pod& pod) {
    ++eviction_probes_;
    if (pod.phase == PodPhase::kScheduled || pod.phase == PodPhase::kRunning) {
      victims.push_back({pod.name, false});
    } else if (pod.phase == PodPhase::kTerminating) {
      // Its kubelet died mid-deletion; nobody will confirm. Force-finalize
      // like `kubectl delete --force` after node loss.
      victims.push_back({pod.name, true});
    }
  });
  std::sort(victims.begin(), victims.end(),
            [](const Victim& a, const Victim& b) { return a.name < b.name; });
  for (const auto& v : victims) {
    ++evictions_;
    api_.sim().trace().record(api_.sim().now(), "k8s", "evict",
                              {{"pod", v.name}, {"node", node_name}});
    if (v.terminating) {
      api_.finalize_pod_deletion(v.name);
    } else {
      api_.mutate_pod(v.name, [](Pod& p) {
        p.phase = PodPhase::kFailed;
        p.ready = false;
      });
    }
  }
}

// ---- EndpointsController -------------------------------------------------

EndpointsController::EndpointsController(ApiServer& api) : api_(api) {
  api_.watch_pods(
      [this](EventType, const Pod& pod) { refresh_matching(pod); });
}

void EndpointsController::refresh_matching(const Pod& pod) {
  // Only services selecting this pod's labels can have changed. Publishing
  // touches only the endpoints store, so visiting services in place is
  // safe.
  api_.for_each_service([&](const Service& svc) {
    if (!selector_matches(svc.selector, pod.labels)) return;
    ++refreshes_;
    api_.publish_ready_endpoints(svc.name);
  });
}

}  // namespace sf::k8s
