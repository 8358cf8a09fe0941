#pragma once

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "cluster/node.hpp"
#include "container/registry.hpp"
#include "net/flow_network.hpp"

namespace sf::container {

/// Per-node content-addressed layer cache with pull coalescing.
///
/// `ensure_image` transfers only the layers this node does not already
/// hold (so the 350 MB Python base is paid once per node, and a second
/// task image costs only its thin code layer), then pays a disk-extract
/// cost. Concurrent pulls of the same image on the same node share one
/// download — exactly how containerd behaves under Knative scale-up.
class ImageCache {
 public:
  ImageCache(cluster::Node& node, net::FlowNetwork& network)
      : node_(node), network_(network) {}

  ImageCache(const ImageCache&) = delete;
  ImageCache& operator=(const ImageCache&) = delete;

  using PullCallback = std::function<void(bool ok)>;

  /// Makes `image_name` locally available, pulling missing layers from
  /// `registry`. `on_done(ok)`; ok=false when the registry lacks the image.
  void ensure_image(const std::string& image_name, Registry& registry,
                    PullCallback on_done);

  /// True when every layer of the (registry-known) image is cached.
  [[nodiscard]] bool has_image(const std::string& image_name,
                               const Registry& registry) const;

  /// True when every listed layer (interned digests, as
  /// Registry::layer_ids returns them) is cached: a few integer binary
  /// searches, no string hashing or compares, no manifest copy.
  [[nodiscard]] bool has_layers(const std::vector<sim::ObjectId>& ids) const;

  [[nodiscard]] std::size_t layer_count() const { return layers_.size(); }
  [[nodiscard]] double cached_bytes() const;

  /// Marks layers present without simulated cost (pre-staged images).
  void seed_image(const Image& image);

  /// Drops every cached layer (image GC in tests).
  void clear() { layers_.clear(); }

  [[nodiscard]] std::uint64_t pulls_started() const { return pulls_started_; }
  [[nodiscard]] std::uint64_t pulls_coalesced() const {
    return pulls_coalesced_;
  }
  [[nodiscard]] std::uint64_t pull_retries() const { return pull_retries_; }
  [[nodiscard]] std::uint64_t pulls_failed() const { return pulls_failed_; }

  /// Node-crash hook: every in-flight pull fails (ok=false). Cached
  /// layers survive — the VM's disk persists across a reboot.
  void handle_node_crash();

 private:
  struct CachedLayer {
    sim::ObjectId id = sim::kEmptyId;  ///< interned digest
    double bytes = 0;
  };

  [[nodiscard]] bool cached(sim::ObjectId id) const;
  /// Inserts `layer`, or overwrites the bytes of the same digest.
  void put(CachedLayer layer);
  void start_download(const std::string& image_name,
                      std::vector<CachedLayer> layers, double missing_bytes,
                      Registry& registry, int attempt);
  void finish_pull(const std::string& image_name, bool ok);

  cluster::Node& node_;
  net::FlowNetwork& network_;
  std::vector<CachedLayer> layers_;  ///< sorted by id
  std::map<std::string, std::vector<PullCallback>> in_flight_;
  std::uint64_t pulls_started_ = 0;
  std::uint64_t pulls_coalesced_ = 0;
  std::uint64_t pull_retries_ = 0;
  std::uint64_t pulls_failed_ = 0;
};

}  // namespace sf::container
