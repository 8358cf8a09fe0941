#include "k8s/scheduler.hpp"

#include <limits>
#include <utility>

namespace sf::k8s {

Scheduler::Scheduler(ApiServer& api, ImageLocalityFn image_locality)
    : api_(api), image_locality_(std::move(image_locality)) {
  api_.watch_pods([this](EventType type, const Pod& pod) {
    switch (type) {
      case EventType::kAdded:
        try_schedule(pod.name);
        break;
      case EventType::kModified:
        break;
      case EventType::kDeleted:
        // Capacity may have freed; retry anything stuck.
        unschedulable_.erase(pod.name);
        retry_pending();
        break;
    }
  });
  api_.watch_nodes([this](EventType type, const NodeObject& node) {
    // A node turning Ready is fresh capacity for anything stuck.
    if (type == EventType::kModified && node.ready) retry_pending();
  });
}

void Scheduler::try_schedule(const std::string& pod_name) {
  const Pod* pod = api_.get_pod(pod_name);
  if (pod == nullptr || pod->phase != PodPhase::kPending ||
      !pod->node_name.empty()) {
    return;
  }

  // Each node's requested CPU/memory comes from the ApiServer's per-node
  // aggregates, maintained O(changed) with the pod store. The request
  // values in play are exactly representable, so the incrementally kept
  // sums equal a rescan's sums bit for bit and scores are unchanged.
  const LocalityProbe cached =
      image_locality_ ? image_locality_(pod->container.image)
                      : LocalityProbe{};
  const NodeObject* best = nullptr;
  double best_score = -std::numeric_limits<double>::infinity();
  api_.for_each_node([&](std::uint32_t slot, const NodeObject& node,
                         const ApiServer::NodeUsage& used) {
    if (!node.ready) return;  // filter: NotReady (crashed / lease expired)
    if (used.cpu + pod->cpu_request > node.allocatable_cpu ||
        used.memory + pod->memory_request > node.allocatable_memory) {
      return;  // filter: does not fit
    }
    // Score: least-requested CPU fraction, plus image-locality bonus.
    double score = 1.0 - (used.cpu + pod->cpu_request) / node.allocatable_cpu;
    if (cached && cached(slot)) score += kLocalityWeight;
    if (score > best_score) {  // strict: ties keep the smaller name
      best_score = score;
      best = &node;
    }
  });

  if (best == nullptr) {
    // Unschedulable: remember it and retry after backoff.
    if (unschedulable_.insert(pod_name).second && !retry_scheduled_) {
      retry_scheduled_ = true;
      api_.sim().call_in(1.0, [this] {
        retry_scheduled_ = false;
        retry_pending();
      });
    }
    return;
  }

  unschedulable_.erase(pod_name);
  ++binds_;
  const std::string& best_node = best->name;
  api_.sim().trace().record(api_.sim().now(), "k8s", "bind",
                            {{"pod", pod_name}, {"node", best_node}});
  api_.mutate_pod(pod_name, [&best_node](Pod& p) {
    p.node_name = best_node;
    p.phase = PodPhase::kScheduled;
  });
}

void Scheduler::retry_pending() {
  // Copy: try_schedule mutates the set.
  const std::set<std::string> pending = unschedulable_;
  for (const auto& name : pending) try_schedule(name);
  if (!unschedulable_.empty() && !retry_scheduled_) {
    retry_scheduled_ = true;
    api_.sim().call_in(1.0, [this] {
      retry_scheduled_ = false;
      retry_pending();
    });
  }
}

}  // namespace sf::k8s
