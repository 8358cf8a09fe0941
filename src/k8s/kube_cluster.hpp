#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "container/image_cache.hpp"
#include "container/registry.hpp"
#include "container/runtime.hpp"
#include "k8s/api_server.hpp"
#include "k8s/controllers.hpp"
#include "k8s/heartbeat_wheel.hpp"
#include "k8s/kubelet.hpp"
#include "k8s/scheduler.hpp"

namespace sf::k8s {

/// Everything that lives on one Kubernetes worker node.
struct WorkerNode {
  cluster::Node* node = nullptr;
  std::unique_ptr<container::ImageCache> cache;
  std::unique_ptr<container::ContainerRuntime> runtime;
  std::unique_ptr<Kubelet> kubelet;
  /// Heartbeat-wheel membership; kNone until node lifecycle is enabled.
  std::uint32_t hb_member = HeartbeatWheel::kNone;
};

/// A fully wired Kubernetes control plane over a set of cluster nodes:
/// API server, scheduler (with image-locality scoring), deployment and
/// endpoints controllers, plus one kubelet/image-cache/container-runtime
/// per worker.
class KubeCluster {
 public:
  /// `workers` selects which cluster nodes join as workers; the registry
  /// is the image source for every pull.
  KubeCluster(cluster::Cluster& cluster, container::Registry& registry,
              std::vector<cluster::Node*> workers,
              container::RuntimeOverheads overheads = {});

  KubeCluster(const KubeCluster&) = delete;
  KubeCluster& operator=(const KubeCluster&) = delete;

  [[nodiscard]] ApiServer& api() { return api_; }
  [[nodiscard]] Scheduler& scheduler() { return scheduler_; }
  [[nodiscard]] cluster::Cluster& cluster() { return cluster_; }
  [[nodiscard]] container::Registry& registry() { return registry_; }

  /// Total pods ever created by the deployment controller (restart and
  /// replacement accounting in tests).
  [[nodiscard]] std::uint64_t controller_pods_created() const {
    return deployment_controller_.pods_created();
  }
  [[nodiscard]] std::uint64_t controller_pods_replaced() const {
    return deployment_controller_.pods_replaced();
  }

  /// Endpoints rebuilds performed by the endpoints controller (probe
  /// counter for the dirty-marking regression test).
  [[nodiscard]] std::uint64_t endpoints_refreshes() const {
    return endpoints_controller_.refreshes();
  }

  [[nodiscard]] WorkerNode& worker(const std::string& node_name);
  [[nodiscard]] std::vector<std::string> worker_names() const;
  [[nodiscard]] std::size_t worker_count() const { return workers_.size(); }

  /// Pre-stages an image's layers into every worker's cache (no cost),
  /// modelling images distributed before the experiment starts.
  void seed_image_everywhere(const container::Image& image);

  /// Runs `work` core-seconds inside the container backing `pod_name`,
  /// under the pod's cgroup limits. `on_done(ok)` fires with false when
  /// the pod (or its container) is gone. This is the hook Knative's
  /// queue-proxy uses to execute requests in the user container.
  void exec_in_pod(const std::string& pod_name, double work,
                   std::function<void(bool)> on_done);

  // ---- Fault tolerance ----------------------------------------------

  /// Kills one pod through its kubelet (fault injection). Returns false
  /// when no kubelet currently runs the pod.
  bool kill_pod(const std::string& pod_name);

  /// Turns on the crash-detection control loop: the shared heartbeat
  /// wheel (one engine event renews every live kubelet's lease per
  /// interval) plus the node-lifecycle controller (lease expiry → NotReady
  /// → evictions → Ready again on reboot). Off by default because both
  /// keep events pending forever — call this only from scenarios that stop
  /// on workload completion (fault injection, lifecycle-enabled serving
  /// runs). Idempotent.
  void enable_node_lifecycle(NodeLifecycleConfig cfg = {},
                             double heartbeat_interval_s = 1.0);

  [[nodiscard]] bool node_lifecycle_enabled() const {
    return lifecycle_controller_ != nullptr;
  }
  [[nodiscard]] const NodeLifecycleController* lifecycle_controller() const {
    return lifecycle_controller_.get();
  }

 private:
  cluster::Cluster& cluster_;
  container::Registry& registry_;
  ApiServer api_;
  HeartbeatWheel heartbeat_wheel_;
  std::map<std::string, WorkerNode> workers_;
  /// Each worker's image cache by API node slot (nullptr for slots that
  /// are not workers): the scheduler's locality score reads it per node.
  std::vector<const container::ImageCache*> node_caches_;
  Scheduler scheduler_;
  DeploymentController deployment_controller_;
  EndpointsController endpoints_controller_;
  std::unique_ptr<NodeLifecycleController> lifecycle_controller_;
};

}  // namespace sf::k8s
