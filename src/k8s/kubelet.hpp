#pragma once

#include <functional>
#include <map>
#include <string>
#include <utility>

#include "cluster/node.hpp"
#include "container/image_cache.hpp"
#include "container/registry.hpp"
#include "container/runtime.hpp"
#include "k8s/api_server.hpp"

namespace sf::k8s {

/// Node agent: realizes pods bound to its node.
///
/// Pipeline per pod: image pull (layer-cached) → container create →
/// container start (+ app boot) → phase Running → readiness probe →
/// ready. On termination it honours the pod's pre-stop drain hook before
/// stopping the container, then confirms deletion to the API server.
class Kubelet {
 public:
  Kubelet(ApiServer& api, cluster::Node& node, container::ImageCache& cache,
          container::ContainerRuntime& runtime, container::Registry& registry);

  Kubelet(const Kubelet&) = delete;
  Kubelet& operator=(const Kubelet&) = delete;

  [[nodiscard]] const std::string& node_name() const { return node_.name(); }

  /// Container backing a pod this kubelet runs; kNoContainer when the pod
  /// is unknown or not yet started.
  [[nodiscard]] container::ContainerId container_for(
      const std::string& pod_name) const;

  /// Would this kubelet renew its lease right now? True while the node is
  /// up AND the connectivity probe (when set) reaches the control plane.
  /// The shared heartbeat wheel evaluates this each tick — the per-node
  /// gating the old per-kubelet timers applied, without one pending engine
  /// event per kubelet per interval.
  [[nodiscard]] bool heartbeat_alive() const {
    return node_.up() && (!connectivity_probe_ || connectivity_probe_());
  }

  /// Stable reference to the probe object (empty when none is set; stays
  /// valid across set_connectivity_probe calls). The heartbeat wheel
  /// caches its address per member so a tick reads one line of this
  /// kubelet instead of chasing kubelet + node records.
  [[nodiscard]] const std::function<bool()>& connectivity_probe() const {
    return connectivity_probe_;
  }

  /// Makes lease renewal conditional on reaching the control plane: the
  /// heartbeat wheel renews only while `probe()` returns true (and the
  /// node is up). Used to model rack partitions — a healthy node cut off
  /// from the API server looks exactly like a dead one to the
  /// node-lifecycle controller, which is the split-brain the stack must
  /// survive.
  void set_connectivity_probe(std::function<bool()> probe) {
    connectivity_probe_ = std::move(probe);
  }

  /// Kills a managed pod (fault injection / eviction): the container is
  /// torn down and the pod object transitions to kFailed, which is what
  /// the Deployment controller reacts to. Returns false when this kubelet
  /// does not run the pod or its deletion is already in progress.
  bool kill_pod(const std::string& pod_name);

  /// Node-crash hook: forget all managed pods. In-flight realize chains
  /// die at their next managed_ lookup; the pod objects are left to the
  /// node-lifecycle controller's eviction sweep, exactly like a real
  /// kubelet that vanishes without deregistering.
  void handle_node_crash();

 private:
  enum class Stage {
    kPulling,
    kCreating,
    kStarting,
    kRunning,
    kDraining,
    kStopping,
  };
  struct Managed {
    Stage stage = Stage::kPulling;
    container::ContainerId cid = container::kNoContainer;
    bool terminate_requested = false;
  };

  void on_pod_event(EventType type, const Pod& pod);
  void realize(const Pod& pod);
  void terminate(const std::string& pod_name);
  void teardown(const std::string& pod_name);
  void fail_pod(const std::string& pod_name);

  ApiServer& api_;
  cluster::Node& node_;
  container::ImageCache& cache_;
  container::ContainerRuntime& runtime_;
  container::Registry& registry_;
  std::map<std::string, Managed> managed_;
  std::function<bool()> connectivity_probe_;
};

}  // namespace sf::k8s
