#include "k8s/scheduler.hpp"

#include <limits>

#include "container/image_cache.hpp"
#include "container/registry.hpp"

namespace sf::k8s {

Scheduler::Scheduler(
    ApiServer& api, const container::Registry* registry,
    const std::vector<const container::ImageCache*>* node_caches)
    : api_(api), registry_(registry), node_caches_(node_caches) {
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
  // nullptr when locality is off or no node can hold the image.
  const std::vector<sim::ObjectId>* layers =
      registry_ == nullptr ? nullptr
                           : registry_->layer_ids(pod->container.image);
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
    if (layers != nullptr && slot < node_caches_->size()) {
      const container::ImageCache* cache = (*node_caches_)[slot];
      if (cache != nullptr && cache->has_layers(*layers)) {
        score += kLocalityWeight;
      }
    }
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
  // try_schedule only ever erases the name it is given, so step past it
  // first and hand it a copy of that one name.
  for (auto it = unschedulable_.begin(); it != unschedulable_.end();) {
    const std::string name = *it++;
    try_schedule(name);
  }
  if (!unschedulable_.empty() && !retry_scheduled_) {
    retry_scheduled_ = true;
    api_.sim().call_in(1.0, [this] {
      retry_scheduled_ = false;
      retry_pending();
    });
  }
}

}  // namespace sf::k8s
