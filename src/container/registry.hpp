#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cluster/node.hpp"
#include "container/image.hpp"
#include "sim/interner.hpp"

namespace sf::container {

/// DockerHub-like image registry hosted on one node. Stores image
/// manifests; pullers fetch missing layer bytes over the network from
/// here. (In the paper, task images "are accessible via DockerHub".)
class Registry {
 public:
  explicit Registry(cluster::Node& node) : node_(node) {}

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  [[nodiscard]] cluster::Node& node() { return node_; }
  [[nodiscard]] net::NodeId net_id() const { return node_.net_id(); }

  /// Publishes (or replaces) an image. Its layer digests are interned in
  /// the simulation's id table, so caches test layers by id, not string.
  void push(Image image) {
    Stored& stored = images_[image.name];
    stored.layer_ids.clear();
    for (const auto& layer : image.layers) {
      stored.layer_ids.push_back(node_.sim().intern(layer.digest));
    }
    stored.image = std::move(image);
  }

  /// Manifest lookup by "repo:tag", without a copy; nullptr when absent.
  /// The pointer stays valid for the registry's lifetime (a re-push of the
  /// same name updates the pointee in place).
  [[nodiscard]] const Image* manifest(const std::string& name) const {
    const auto it = images_.find(name);
    return it == images_.end() ? nullptr : &it->second.image;
  }

  /// The manifest's layer digests as interned ids, in layer order; nullptr
  /// when absent. Same lifetime as manifest().
  [[nodiscard]] const std::vector<sim::ObjectId>* layer_ids(
      const std::string& name) const {
    const auto it = images_.find(name);
    return it == images_.end() ? nullptr : &it->second.layer_ids;
  }

  [[nodiscard]] bool has(const std::string& name) const {
    return images_.contains(name);
  }
  [[nodiscard]] std::size_t image_count() const { return images_.size(); }

  // ---- Fault injection ----------------------------------------------

  /// Makes the registry refuse new pulls until sim time `t` (outages
  /// extend, never shrink). Pullers retry with exponential backoff.
  void set_outage_until(double t) {
    if (t > outage_until_) outage_until_ = t;
  }

  /// Whether a pull starting at `now` would be served.
  [[nodiscard]] bool available(double now) const {
    return now >= outage_until_;
  }

 private:
  struct Stored {
    Image image;
    std::vector<sim::ObjectId> layer_ids;  ///< parallel to image.layers
  };

  cluster::Node& node_;
  std::map<std::string, Stored> images_;
  double outage_until_ = 0;
};

}  // namespace sf::container
