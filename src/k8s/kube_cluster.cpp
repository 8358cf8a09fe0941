#include "k8s/kube_cluster.hpp"

#include <stdexcept>
#include <utility>

namespace sf::k8s {

KubeCluster::KubeCluster(cluster::Cluster& cluster,
                         container::Registry& registry,
                         std::vector<cluster::Node*> workers,
                         container::RuntimeOverheads overheads)
    : cluster_(cluster),
      registry_(registry),
      api_(cluster.sim()),
      heartbeat_wheel_(api_),
      scheduler_(api_, &registry_, &node_caches_),
      deployment_controller_(api_),
      endpoints_controller_(api_) {
  for (cluster::Node* node : workers) {
    WorkerNode w;
    w.node = node;
    w.cache = std::make_unique<container::ImageCache>(*node,
                                                      cluster_.network());
    w.runtime = std::make_unique<container::ContainerRuntime>(
        *node, *w.cache, overheads);
    w.kubelet = std::make_unique<Kubelet>(api_, *node, *w.cache, *w.runtime,
                                          registry_);
    api_.register_node(NodeObject{node->name(), node->spec().cores,
                                  node->spec().memory_bytes,
                                  node->net_id()});
    auto [it, inserted] = workers_.emplace(node->name(), std::move(w));
    const std::uint32_t slot = api_.find_node_slot(node->name());
    if (slot >= node_caches_.size()) node_caches_.resize(slot + 1, nullptr);
    node_caches_[slot] = it->second.cache.get();
    // Ordered teardown on node crash: the kubelet forgets its pods first
    // (so late pull/exec callbacks die at their managed_ lookup), then the
    // runtime fails in-flight execs and frees container memory, then the
    // image cache fails in-flight pulls. The heartbeat wheel drops the
    // node last — a dead kubelet stops ticking instead of being polled
    // forever — and picks it back up on reboot.
    WorkerNode* wp = &it->second;
    node->on_fail([this, wp] {
      wp->kubelet->handle_node_crash();
      wp->runtime->handle_node_crash();
      wp->cache->handle_node_crash();
      if (wp->hb_member != HeartbeatWheel::kNone) {
        heartbeat_wheel_.remove(wp->hb_member);
      }
    });
    node->on_recover([this, wp] {
      if (wp->hb_member != HeartbeatWheel::kNone) {
        heartbeat_wheel_.restore(wp->hb_member);
      }
    });
  }
}

bool KubeCluster::kill_pod(const std::string& pod_name) {
  const Pod* pod = api_.get_pod(pod_name);
  if (pod == nullptr || pod->node_name.empty()) return false;
  auto it = workers_.find(pod->node_name);
  if (it == workers_.end()) return false;
  return it->second.kubelet->kill_pod(pod_name);
}

void KubeCluster::enable_node_lifecycle(NodeLifecycleConfig cfg,
                                        double heartbeat_interval_s) {
  // The control plane lives on cluster node 0 by convention (the head
  // node hosts the API server in the paper's testbed). Heartbeats are
  // direct API calls in the model, so each worker gets a connectivity
  // probe: a rack cut between worker and head makes its lease go stale
  // even though the node itself is healthy — the split-brain case.
  const net::NodeId control_plane = cluster_.node(0).net_id();
  for (auto& [name, w] : workers_) {
    const net::NodeId worker_id = w.node->net_id();
    if (worker_id != control_plane) {
      w.kubelet->set_connectivity_probe([this, worker_id, control_plane] {
        return !cluster_.network().partitioned(worker_id, control_plane);
      });
    }
    // Joining the wheel renews immediately when alive — the same contract
    // start_heartbeats had at enable time.
    if (w.hb_member == HeartbeatWheel::kNone) {
      w.hb_member = heartbeat_wheel_.add(*w.kubelet);
    }
  }
  // The wheel's tick must be scheduled before the lifecycle controller's
  // sweep: at coincident instants heartbeats then fire before the sweep,
  // exactly as the per-kubelet timers (scheduled here, before the
  // controller existed) used to.
  heartbeat_wheel_.start(heartbeat_interval_s);
  if (lifecycle_controller_ == nullptr) {
    lifecycle_controller_ =
        std::make_unique<NodeLifecycleController>(api_, cfg);
  }
}

WorkerNode& KubeCluster::worker(const std::string& node_name) {
  auto it = workers_.find(node_name);
  if (it == workers_.end()) {
    throw std::out_of_range("KubeCluster: unknown worker " + node_name);
  }
  return it->second;
}

std::vector<std::string> KubeCluster::worker_names() const {
  std::vector<std::string> names;
  names.reserve(workers_.size());
  for (const auto& [name, w] : workers_) names.push_back(name);
  return names;
}

void KubeCluster::exec_in_pod(const std::string& pod_name, double work,
                              std::function<void(bool)> on_done) {
  // The pod, its worker and its container are looked up on every call: a
  // pod that was unbound, finalized or whose container is gone fails.
  const Pod* pod = api_.get_pod(pod_name);
  auto it = pod == nullptr || pod->node_name.empty()
                ? workers_.end()
                : workers_.find(pod->node_name);
  const container::ContainerId cid =
      it == workers_.end() ? container::kNoContainer
                           : it->second.kubelet->container_for(pod_name);
  if (cid == container::kNoContainer) {
    cluster_.sim().call_in(0, [cb = std::move(on_done)] { cb(false); });
    return;
  }
  it->second.runtime->exec(cid, work, std::move(on_done));
}

void KubeCluster::seed_image_everywhere(const container::Image& image) {
  for (auto& [name, w] : workers_) w.cache->seed_image(image);
}

}  // namespace sf::k8s
