#include "k8s/kubelet.hpp"

#include <utility>

namespace sf::k8s {

namespace {
// Seconds from a container's start to its first passing readiness probe.
constexpr double kReadinessProbeDelay = 0.05;
}  // namespace

Kubelet::Kubelet(ApiServer& api, cluster::Node& node,
                 container::ImageCache& cache,
                 container::ContainerRuntime& runtime,
                 container::Registry& registry)
    : api_(api),
      node_(node),
      cache_(cache),
      runtime_(runtime),
      registry_(registry) {
  // Node-scoped: pod events for other nodes never reach this kubelet, so
  // cluster-wide churn costs each kubelet nothing instead of a filtered
  // callback per event per node.
  api_.watch_pods_on_node(node.name(), [this](EventType type, const Pod& pod) {
    on_pod_event(type, pod);
  });
}

container::ContainerId Kubelet::container_for(
    const std::string& pod_name) const {
  auto it = managed_.find(pod_name);
  return it == managed_.end() ? container::kNoContainer : it->second.cid;
}

bool Kubelet::kill_pod(const std::string& pod_name) {
  auto it = managed_.find(pod_name);
  if (it == managed_.end() || it->second.terminate_requested) return false;
  api_.sim().trace().record(api_.sim().now(), "kubelet", "pod_killed",
                            {{"pod", pod_name}, {"node", node_.name()}});
  fail_pod(pod_name);
  return true;
}

void Kubelet::handle_node_crash() {
  managed_.clear();
}

void Kubelet::on_pod_event(EventType type, const Pod& pod) {
  switch (type) {
    case EventType::kAdded:
    case EventType::kModified: {
      auto it = managed_.find(pod.name);
      if (it == managed_.end()) {
        if (pod.phase == PodPhase::kScheduled) {
          managed_.emplace(pod.name, Managed{});
          realize(pod);
        } else if (pod.phase == PodPhase::kTerminating) {
          // Bound but never realized here (deleted mid-flight).
          api_.finalize_pod_deletion(pod.name);
        }
        return;
      }
      if (pod.phase == PodPhase::kTerminating &&
          !it->second.terminate_requested) {
        it->second.terminate_requested = true;
        if (it->second.stage == Stage::kRunning) terminate(pod.name);
        // Other stages check the flag when their async step completes.
      }
      break;
    }
    case EventType::kDeleted:
      managed_.erase(pod.name);
      break;
  }
}

void Kubelet::realize(const Pod& pod) {
  const std::string name = pod.name;
  const container::ContainerSpec spec = pod.container;
  const Uid uid = pod.uid;
  api_.sim().trace().record(api_.sim().now(), "kubelet", "realize",
                            {{"pod", name}, {"node", node_.name()}});
  cache_.ensure_image(spec.image, registry_, [this, name, spec,
                                              uid](bool pulled) {
    auto it = managed_.find(name);
    if (it == managed_.end()) return;
    if (!pulled) {
      fail_pod(name);
      return;
    }
    if (it->second.terminate_requested) {
      api_.finalize_pod_deletion(name);
      managed_.erase(name);
      return;
    }
    it->second.stage = Stage::kCreating;
    runtime_.create(spec, [this, name, uid](container::ContainerId cid) {
      auto jt = managed_.find(name);
      if (jt == managed_.end()) return;
      if (cid == container::kNoContainer) {
        fail_pod(name);
        return;
      }
      jt->second.cid = cid;
      if (jt->second.terminate_requested) {
        teardown(name);
        return;
      }
      jt->second.stage = Stage::kStarting;
      runtime_.start(cid, [this, name, uid](bool started) {
        auto kt = managed_.find(name);
        if (kt == managed_.end()) return;
        if (!started) {
          fail_pod(name);
          return;
        }
        if (kt->second.terminate_requested) {
          teardown(name);
          return;
        }
        kt->second.stage = Stage::kRunning;
        const net::Port port = static_cast<net::Port>(10000 + uid % 50000);
        api_.mutate_pod(name, [this, port](Pod& p) {
          p.phase = PodPhase::kRunning;
          p.host_net_id = node_.net_id();
          p.port = port;
        });
        // Readiness probe passes one probe interval later.
        api_.sim().call_in(kReadinessProbeDelay, [this, name] {
          auto lt = managed_.find(name);
          if (lt == managed_.end() || lt->second.stage != Stage::kRunning ||
              lt->second.terminate_requested) {
            return;
          }
          api_.mutate_pod(name, [](Pod& p) { p.ready = true; });
        });
      });
    });
  });
}

void Kubelet::terminate(const std::string& pod_name) {
  auto it = managed_.find(pod_name);
  if (it == managed_.end()) return;
  it->second.stage = Stage::kDraining;
  const Pod* pod = api_.get_pod(pod_name);
  if (pod != nullptr && pod->pre_stop) {
    pod->pre_stop([this, pod_name] { teardown(pod_name); });
  } else {
    teardown(pod_name);
  }
}

void Kubelet::teardown(const std::string& pod_name) {
  auto it = managed_.find(pod_name);
  if (it == managed_.end()) return;
  it->second.stage = Stage::kStopping;
  const container::ContainerId cid = it->second.cid;
  auto finish = [this, pod_name] {
    api_.finalize_pod_deletion(pod_name);
    managed_.erase(pod_name);
  };
  if (cid == container::kNoContainer) {
    finish();
    return;
  }
  runtime_.stop(cid, [this, cid, finish](bool) {
    runtime_.remove(cid, [finish](bool) { finish(); });
  });
}

void Kubelet::fail_pod(const std::string& pod_name) {
  auto it = managed_.find(pod_name);
  const bool terminating =
      it != managed_.end() && it->second.terminate_requested;
  if (it != managed_.end() && it->second.cid != container::kNoContainer) {
    const container::ContainerId cid = it->second.cid;
    runtime_.stop(cid, [this, cid](bool) { runtime_.remove(cid, [](bool) {}); });
  }
  managed_.erase(pod_name);
  if (terminating) {
    // Deletion was already requested: finalize instead of regressing the
    // pod to kFailed — a Failed object here would trigger a spurious
    // Deployment replacement on top of the deletion-driven one (counter
    // drift: pods ever created outruns restarts actually needed).
    api_.finalize_pod_deletion(pod_name);
    return;
  }
  api_.sim().trace().record(api_.sim().now(), "kubelet", "pod_failed",
                            {{"pod", pod_name}, {"node", node_.name()}});
  api_.mutate_pod(pod_name, [](Pod& p) {
    p.phase = PodPhase::kFailed;
    p.ready = false;
  });
}

}  // namespace sf::k8s
