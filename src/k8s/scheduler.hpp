#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "k8s/api_server.hpp"

namespace sf::container {
class ImageCache;
class Registry;
}  // namespace sf::container

namespace sf::k8s {

/// Default kube-scheduler: filters nodes on resource fit, scores by
/// least-requested CPU plus an image-locality bonus, binds the winner.
/// Unschedulable pods are retried after a backoff and whenever capacity
/// frees up.
///
/// A placement is one pass over the registered nodes in name order
/// (ApiServer::for_each_node), reading each node's object and usage
/// aggregate by slot. The pod's image is resolved once per placement into
/// its interned layer ids, and each node slot's image cache answers
/// has_layers for them, so the per-node work is a few loads and integer
/// compares: no name hashing, map walk or manifest copy. Ties on score go
/// to the smallest node name.
class Scheduler {
 public:
  /// `registry` resolves images and `node_caches` holds each node slot's
  /// image cache (nullptr, or past the end, for a node without one); give
  /// both or neither. Without them nothing scores locality.
  explicit Scheduler(
      ApiServer& api, const container::Registry* registry = nullptr,
      const std::vector<const container::ImageCache*>* node_caches = nullptr);

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  [[nodiscard]] std::size_t pending_count() const {
    return unschedulable_.size();
  }
  [[nodiscard]] std::uint64_t binds() const { return binds_; }

 private:
  /// Weight of the image-locality term relative to least-requested.
  static constexpr double kLocalityWeight = 0.3;

  void try_schedule(const std::string& pod_name);
  void retry_pending();

  ApiServer& api_;
  const container::Registry* registry_;
  const std::vector<const container::ImageCache*>* node_caches_;
  std::set<std::string> unschedulable_;
  bool retry_scheduled_ = false;
  std::uint64_t binds_ = 0;
};

}  // namespace sf::k8s
