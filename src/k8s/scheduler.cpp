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
  // nullptr when locality is off or the registry does not know the image.
  const std::vector<sim::ObjectId>* layers =
      registry_ == nullptr || node_caches_ == nullptr
          ? nullptr
          : registry_->layer_ids(pod->container.image);
  // The winner is the highest score, ties going to the smallest name: the
  // node a name-ordered pass with strict `>` would keep.
  const NodeObject* best = nullptr;
  double best_score = -std::numeric_limits<double>::infinity();
  for (const ApiServer::CpuClass& cls : api_.cpu_classes()) {
    const ApiServer::PlacementSet& nodes = cls.nodes;
    for (auto it = nodes.begin(); it != nodes.end();) {
      const double used = it->cpu;
      // Usage only grows along the class, and IEEE rounding is monotone,
      // so no later node fits either.
      if (used + pod->cpu_request > cls.allocatable_cpu) break;
      // Score: least-requested CPU fraction, plus image-locality bonus.
      const double lr = 1.0 - (used + pod->cpu_request) / cls.allocatable_cpu;
      const double bound = layers != nullptr ? lr + kLocalityWeight : lr;
      if (bound < best_score) break;
      const NodeObject& node = api_.node_at(it->slot);
      if (best != nullptr && bound == best_score && node.name > best->name) {
        // Neither this node nor the larger names after it with the same
        // usage can win: go to the next usage.
        it = nodes.upper_bound(ApiServer::UsedCpu{used});
        continue;
      }
      const std::uint32_t slot = it->slot;
      ++it;
      if (api_.usage_at(slot).memory + pod->memory_request >
          node.allocatable_memory) {
        continue;  // filter: does not fit
      }
      double score = lr;
      if (layers != nullptr && slot < node_caches_->size()) {
        const container::ImageCache* cache = (*node_caches_)[slot];
        if (cache != nullptr && cache->has_layers(*layers)) {
          score += kLocalityWeight;
        }
      }
      if (score > best_score || (best != nullptr && score == best_score &&
                                 node.name < best->name)) {
        best_score = score;
        best = &node;
      }
    }
  }

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
