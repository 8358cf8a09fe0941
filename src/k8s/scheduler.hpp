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
/// A placement walks the API server's placement index (ApiServer::
/// cpu_classes): per allocatable-CPU class, the ready nodes in (used CPU,
/// name) order. Along a class the used CPU only grows, and IEEE rounding
/// is monotone, so neither fit nor the best score a node could reach (its
/// least-requested term, plus the locality weight when the registry knows
/// the image) ever exceeds an earlier node's. Each class walk therefore
/// stops at its first CPU-unfit node, and once that bound falls below the
/// best score so far.
/// It steps over memory-unfit nodes, and skips the rest of a run of equal
/// used CPU once that run cannot beat the best on score or name. Equal
/// scores go to the smallest node name, as a full pass in name order with
/// strict `>` would pick. The pod's image is resolved once per placement
/// into its interned layer ids, and only visited nodes' image caches are
/// asked has_layers: one or two nodes per class when every node holds the
/// image; with partial locality, the walk goes on down each class while a
/// node could still win.
class Scheduler {
 public:
  /// `registry` resolves images and `node_caches` holds each node slot's
  /// image cache (nullptr, or past the end, for a node without one).
  /// Locality is scored only when both are given.
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
