#include "container/image.hpp"

#include <gtest/gtest.h>

#include "container/image_cache.hpp"
#include "container/registry.hpp"

#include "cluster/cluster.hpp"
#include "sim/simulation.hpp"

namespace sf::container {
namespace {

TEST(Image, TotalBytesSumsLayers) {
  const Image img{"x:1", {{"a", 10}, {"b", 20}, {"c", 30}}};
  EXPECT_DOUBLE_EQ(img.total_bytes(), 60);
}

TEST(Image, BaseImageRealisticSize) {
  const Image base = make_python_base_image();
  EXPECT_GT(base.total_bytes(), 100e6);
  EXPECT_LT(base.total_bytes(), 1e9);
  EXPECT_GE(base.layers.size(), 3u);
}

TEST(Image, TaskImageSharesBaseLayers) {
  const Image base = make_python_base_image();
  const Image task = make_task_image("matmul");
  EXPECT_EQ(task.name, "matmul:latest");
  ASSERT_EQ(task.layers.size(), base.layers.size() + 1);
  for (std::size_t i = 0; i < base.layers.size(); ++i) {
    EXPECT_EQ(task.layers[i], base.layers[i]);
  }
}

TEST(Image, DistinctTasksShareAllButCodeLayer) {
  const Image a = make_task_image("matmul");
  const Image b = make_task_image("fft");
  EXPECT_NE(a.layers.back().digest, b.layers.back().digest);
  EXPECT_EQ(a.layers[0], b.layers[0]);
}

class RegistryTest : public ::testing::Test {
 protected:
  sim::Simulation sim;
  std::unique_ptr<cluster::Cluster> cl = cluster::make_paper_testbed(sim);
  Registry hub{cl->node(0)};
};

TEST_F(RegistryTest, PushAndManifest) {
  hub.push(make_task_image("matmul"));
  EXPECT_TRUE(hub.has("matmul:latest"));
  const Image* m = hub.manifest("matmul:latest");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->name, "matmul:latest");
  ASSERT_NE(hub.layer_ids("matmul:latest"), nullptr);
  EXPECT_EQ(hub.layer_ids("matmul:latest")->size(), m->layers.size());
  EXPECT_EQ(hub.image_count(), 1u);
}

TEST_F(RegistryTest, MissingManifestEmpty) {
  EXPECT_EQ(hub.manifest("ghost:1"), nullptr);
  EXPECT_EQ(hub.layer_ids("ghost:1"), nullptr);
  EXPECT_FALSE(hub.has("ghost:1"));
}

TEST_F(RegistryTest, RepushReplacesManifestInPlace) {
  hub.push(make_task_image("matmul"));
  const Image* before = hub.manifest("matmul:latest");
  Image slim{"matmul:latest", {{"sha256:slim", 1e6}}};
  hub.push(slim);
  EXPECT_EQ(hub.manifest("matmul:latest"), before);
  EXPECT_EQ(before->layers.size(), 1u);
  EXPECT_EQ(hub.layer_ids("matmul:latest")->size(), 1u);
}

class ImageCacheTest : public ::testing::Test {
 protected:
  sim::Simulation sim;
  std::unique_ptr<cluster::Cluster> cl = cluster::make_paper_testbed(sim);
  Registry hub{cl->node(0)};
  ImageCache cache{cl->node(1), cl->network()};

  void SetUp() override { hub.push(make_task_image("matmul")); }
};

TEST_F(ImageCacheTest, PullFetchesAllLayers) {
  bool ok = false;
  cache.ensure_image("matmul:latest", hub, [&](bool r) { ok = r; });
  sim.run();
  EXPECT_TRUE(ok);
  EXPECT_TRUE(cache.has_image("matmul:latest", hub));
  EXPECT_EQ(cache.pulls_started(), 1u);
  EXPECT_GT(sim.now(), 0.1);  // ~242 MB over the wire is not free
}

TEST_F(ImageCacheTest, SecondPullIsFree) {
  cache.ensure_image("matmul:latest", hub, [](bool) {});
  sim.run();
  const double t_after_first = sim.now();
  bool ok = false;
  cache.ensure_image("matmul:latest", hub, [&](bool r) { ok = r; });
  sim.run();
  EXPECT_TRUE(ok);
  EXPECT_DOUBLE_EQ(sim.now(), t_after_first);
  EXPECT_EQ(cache.pulls_started(), 1u);
}

TEST_F(ImageCacheTest, SharedBaseMakesSecondImageCheap) {
  hub.push(make_task_image("fft"));
  cache.ensure_image("matmul:latest", hub, [](bool) {});
  sim.run();
  const double t1 = sim.now();
  cache.ensure_image("fft:latest", hub, [](bool) {});
  sim.run();
  const double delta = sim.now() - t1;
  // Only the 2 MB code layer moves; far cheaper than the 240 MB base pull.
  EXPECT_LT(delta, t1 / 10);
}

TEST_F(ImageCacheTest, ConcurrentPullsCoalesce) {
  int completions = 0;
  cache.ensure_image("matmul:latest", hub, [&](bool) { ++completions; });
  cache.ensure_image("matmul:latest", hub, [&](bool) { ++completions; });
  cache.ensure_image("matmul:latest", hub, [&](bool) { ++completions; });
  sim.run();
  EXPECT_EQ(completions, 3);
  EXPECT_EQ(cache.pulls_started(), 1u);
  EXPECT_EQ(cache.pulls_coalesced(), 2u);
}

TEST_F(ImageCacheTest, UnknownImageFails) {
  bool ok = true;
  cache.ensure_image("ghost:1", hub, [&](bool r) { ok = r; });
  sim.run();
  EXPECT_FALSE(ok);
}

TEST_F(ImageCacheTest, SeedSkipsAllCost) {
  cache.seed_image(make_task_image("matmul"));
  EXPECT_TRUE(cache.has_image("matmul:latest", hub));
  bool ok = false;
  cache.ensure_image("matmul:latest", hub, [&](bool r) { ok = r; });
  sim.run();
  EXPECT_TRUE(ok);
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
}

TEST_F(ImageCacheTest, SharedLayersAreCachedOnce) {
  // Two images share the five base layers: seeding both keeps one entry
  // per distinct digest, and either image alone is then local.
  hub.push(make_task_image("fft"));
  cache.seed_image(make_task_image("matmul"));
  cache.seed_image(make_task_image("fft"));
  EXPECT_EQ(cache.layer_count(), make_python_base_image().layers.size() + 2);
  EXPECT_TRUE(cache.has_image("matmul:latest", hub));
  EXPECT_TRUE(cache.has_image("fft:latest", hub));
  EXPECT_TRUE(cache.has_layers(*hub.layer_ids("fft:latest")));
}

TEST_F(ImageCacheTest, RepushedManifestNeedsItsNewLayer) {
  cache.seed_image(make_task_image("matmul"));
  Image patched = make_task_image("matmul");
  patched.layers.push_back({"sha256:matmul-patch", 1e6});
  hub.push(patched);
  EXPECT_FALSE(cache.has_image("matmul:latest", hub));
  cache.seed_image(patched);
  EXPECT_TRUE(cache.has_image("matmul:latest", hub));
}

TEST_F(ImageCacheTest, ClearDropsLayers) {
  cache.seed_image(make_task_image("matmul"));
  cache.clear();
  EXPECT_EQ(cache.layer_count(), 0u);
  EXPECT_FALSE(cache.has_image("matmul:latest", hub));
  EXPECT_DOUBLE_EQ(cache.cached_bytes(), 0.0);
}

}  // namespace
}  // namespace sf::container
