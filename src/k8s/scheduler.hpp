#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <string>

#include "k8s/api_server.hpp"

namespace sf::k8s {

/// Default kube-scheduler: filters nodes on resource fit, scores by
/// least-requested CPU plus an image-locality bonus, binds the winner.
/// Unschedulable pods are retried after a backoff and whenever capacity
/// frees up.
///
/// A placement is one pass over the registered nodes in name order
/// (ApiServer::for_each_node), reading each node's object and usage
/// aggregate by slot. The pod's image is resolved once per placement into
/// a locality probe the pass calls per node slot, so the per-node work is
/// a few loads and integer compares: no name hashing, map walk or manifest
/// copy. Ties on score go to the smallest node name.
class Scheduler {
 public:
  /// Answers "does node slot `s` cache the image?" for one resolved image.
  using LocalityProbe = std::function<bool(std::uint32_t node_slot)>;
  /// Resolves an image name into its LocalityProbe, once per placement;
  /// returns an empty probe when no node can have it. The hook itself may
  /// be empty (no locality scoring).
  using ImageLocalityFn =
      std::function<LocalityProbe(const std::string& image)>;

  explicit Scheduler(ApiServer& api, ImageLocalityFn image_locality = {});

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
  ImageLocalityFn image_locality_;
  std::set<std::string> unschedulable_;
  bool retry_scheduled_ = false;
  std::uint64_t binds_ = 0;
};

}  // namespace sf::k8s
