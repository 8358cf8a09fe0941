#include "container/image_cache.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "fault/retry.hpp"

namespace sf::container {

namespace {

/// Kubelet image-pull backoff while the registry is unavailable: 0.5 s
/// doubling to an 8 s cap, six tries overall.
constexpr fault::RetryPolicy kPullRetry{/*max_attempts=*/6, /*base_s=*/0.5,
                                        /*cap_s=*/8.0};

/// Position of `id` in an id-sorted layer list.
template <typename Layers>
auto find_layer(Layers& layers, sim::ObjectId id) {
  return std::lower_bound(
      layers.begin(), layers.end(), id,
      [](const auto& l, sim::ObjectId key) { return l.id < key; });
}

}  // namespace

bool ImageCache::cached(sim::ObjectId id) const {
  const auto it = find_layer(layers_, id);
  return it != layers_.end() && it->id == id;
}

void ImageCache::put(CachedLayer layer) {
  const auto it = find_layer(layers_, layer.id);
  if (it != layers_.end() && it->id == layer.id) {
    it->bytes = layer.bytes;
  } else {
    layers_.insert(it, layer);
  }
}

bool ImageCache::has_layers(const std::vector<sim::ObjectId>& ids) const {
  return std::all_of(ids.begin(), ids.end(),
                     [this](sim::ObjectId id) { return cached(id); });
}

bool ImageCache::has_image(const std::string& image_name,
                           const Registry& registry) const {
  const std::vector<sim::ObjectId>* ids = registry.layer_ids(image_name);
  return ids != nullptr && has_layers(*ids);
}

double ImageCache::cached_bytes() const {
  double total = 0;
  for (const CachedLayer& l : layers_) total += l.bytes;
  return total;
}

void ImageCache::seed_image(const Image& image) {
  for (const auto& layer : image.layers) {
    put({node_.sim().intern(layer.digest), layer.bytes});
  }
}

void ImageCache::ensure_image(const std::string& image_name,
                              Registry& registry, PullCallback on_done) {
  const Image* manifest = registry.manifest(image_name);
  if (manifest == nullptr) {
    on_done(false);
    return;
  }
  const std::vector<sim::ObjectId>& ids = *registry.layer_ids(image_name);
  double missing_bytes = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (!cached(ids[i])) missing_bytes += manifest->layers[i].bytes;
  }
  if (missing_bytes <= 0) {
    on_done(true);
    return;
  }
  // Coalesce with an in-flight pull of the same image.
  auto [it, inserted] = in_flight_.try_emplace(image_name);
  it->second.push_back(std::move(on_done));
  if (!inserted) {
    ++pulls_coalesced_;
    return;
  }
  ++pulls_started_;
  // The pull lands the manifest as it is now, even if a re-push replaces
  // it while the bytes are in flight.
  std::vector<CachedLayer> layers;
  layers.reserve(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    layers.push_back({ids[i], manifest->layers[i].bytes});
  }
  start_download(image_name, std::move(layers), missing_bytes, registry, 0);
}

void ImageCache::start_download(const std::string& image_name,
                                std::vector<CachedLayer> layers,
                                double missing_bytes, Registry& registry,
                                int attempt) {
  auto& sim = node_.sim();
  if (!registry.available(sim.now())) {
    // Registry outage: capped exponential backoff, then give up — the
    // caller (kubelet / cold-start path) owns what happens next.
    if (kPullRetry.exhausted(attempt)) {
      ++pulls_failed_;
      sim.trace().record(sim.now(), "image_cache", "pull_exhausted",
                         {{"node", node_.name()}, {"image", image_name}});
      finish_pull(image_name, false);
      return;
    }
    ++pull_retries_;
    const double delay = kPullRetry.backoff_s(attempt);
    sim.call_in(delay, [this, image_name, layers, missing_bytes, &registry,
                        attempt] {
      if (!in_flight_.contains(image_name)) return;  // crashed meanwhile
      start_download(image_name, layers, missing_bytes, registry,
                     attempt + 1);
    });
    return;
  }
  // Download the missing bytes from the registry, then extract to disk.
  network_.transfer(
      registry.net_id(), node_.net_id(), missing_bytes,
      [this, image_name, layers, missing_bytes] {
        node_.disk_io(missing_bytes, [this, image_name, layers] {
          for (const CachedLayer& layer : layers) put(layer);
          finish_pull(image_name, true);
        });
      });
}

void ImageCache::handle_node_crash() {
  while (!in_flight_.empty()) {
    finish_pull(in_flight_.begin()->first, false);
  }
}

void ImageCache::finish_pull(const std::string& image_name, bool ok) {
  auto it = in_flight_.find(image_name);
  if (it == in_flight_.end()) return;
  auto callbacks = std::move(it->second);
  in_flight_.erase(it);
  for (auto& cb : callbacks) cb(ok);
}

}  // namespace sf::container
