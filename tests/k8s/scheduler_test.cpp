// Focused scheduler behaviours: image-locality scoring, least-requested
// spreading, and resource-exhaustion handling; plus an equivalence check
// of the placement-index walk against a name-keyed reference scan.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "container/image.hpp"
#include "k8s/kube_cluster.hpp"
#include "sim/simulation.hpp"

namespace sf::k8s {
namespace {

class SchedulerTest : public ::testing::Test {
 protected:
  sim::Simulation sim;
  std::unique_ptr<cluster::Cluster> cl = cluster::make_paper_testbed(sim);
  container::Registry hub{cl->node(0)};
  KubeCluster kube{*cl, hub, {&cl->node(1), &cl->node(2), &cl->node(3)}};

  void SetUp() override { hub.push(container::make_task_image("matmul")); }

  Pod pod(const std::string& name, double cpu_request = 0.5) {
    Pod p;
    p.name = name;
    p.container.name = name;
    p.container.image = "matmul:latest";
    p.container.memory_bytes = 256e6;
    p.cpu_request = cpu_request;
    p.memory_request = 256e6;
    return p;
  }
};

TEST_F(SchedulerTest, ImageLocalityWinsOverEmptySpread) {
  // Only node2 has the image cached; with equal resource scores the
  // locality bonus must steer the pod there.
  kube.worker("node2").cache->seed_image(
      container::make_task_image("matmul"));
  kube.api().create_pod(pod("p0"));
  sim.run_until(30.0);
  const Pod* scheduled = kube.api().get_pod("p0");
  ASSERT_NE(scheduled, nullptr);
  EXPECT_EQ(scheduled->node_name, "node2");
  EXPECT_EQ(scheduled->phase, PodPhase::kRunning);
}

TEST_F(SchedulerTest, LeastRequestedSpreadsSequentialPods) {
  kube.seed_image_everywhere(container::make_task_image("matmul"));
  for (int i = 0; i < 3; ++i) {
    kube.api().create_pod(pod("p" + std::to_string(i)));
    sim.run_until(sim.now() + 5.0);
  }
  std::set<std::string> nodes;
  for (const auto* p : kube.api().list_pods()) nodes.insert(p->node_name);
  EXPECT_EQ(nodes.size(), 3u);
}

TEST_F(SchedulerTest, CpuExhaustionLeavesPodPending) {
  kube.seed_image_everywhere(container::make_task_image("matmul"));
  // 8-core workers: 3 pods of 8 cpu fill the cluster; a 4th waits.
  for (int i = 0; i < 4; ++i) {
    kube.api().create_pod(pod("big" + std::to_string(i), 8.0));
  }
  sim.run_until(30.0);
  int pending = 0;
  for (const auto* p : kube.api().list_pods()) {
    pending += p->phase == PodPhase::kPending ? 1 : 0;
  }
  EXPECT_EQ(pending, 1);
  EXPECT_EQ(kube.scheduler().pending_count(), 1u);
  // Freeing capacity lets it land.
  kube.api().delete_pod("big0");
  sim.run_until(60.0);
  EXPECT_EQ(kube.scheduler().pending_count(), 0u);
}

TEST_F(SchedulerTest, BindCountTracksScheduledPods) {
  kube.seed_image_everywhere(container::make_task_image("matmul"));
  kube.api().create_pod(pod("p0"));
  kube.api().create_pod(pod("p1"));
  sim.run_until(30.0);
  EXPECT_EQ(kube.scheduler().binds(), 2u);
}

TEST_F(SchedulerTest, BareSchedulerScoresNoLocality) {
  // The fixture's scheduler sends p0 to node2, the one worker caching its
  // image. A Scheduler built on an API server alone has no caches to ask:
  // over the same nodes the pod sees a three-way tie, which goes to the
  // smallest name.
  kube.worker("node2").cache->seed_image(
      container::make_task_image("matmul"));
  ApiServer api{sim};
  Scheduler bare{api};
  kube.api().for_each_node(
      [&api](std::uint32_t, const NodeObject& node,
             const ApiServer::NodeUsage&) { api.register_node(node); });
  kube.api().create_pod(pod("p0"));
  api.create_pod(pod("p0"));
  sim.run_until(30.0);
  EXPECT_EQ(kube.api().get_pod("p0")->node_name, "node2");
  EXPECT_EQ(api.get_pod("p0")->node_name, "node1");
  EXPECT_EQ(bare.binds(), 1u);
}

TEST_F(SchedulerTest, RegistryWithoutCachesScoresNoLocality) {
  // A registry alone is not enough to score locality: with no cache table
  // to ask, the image it knows adds nothing, and the three-way tie goes to
  // the smallest name.
  kube.worker("node2").cache->seed_image(
      container::make_task_image("matmul"));
  ApiServer api{sim};
  Scheduler registry_only{api, &hub};
  kube.api().for_each_node(
      [&api](std::uint32_t, const NodeObject& node,
             const ApiServer::NodeUsage&) { api.register_node(node); });
  api.create_pod(pod("p0"));
  sim.run_until(30.0);
  EXPECT_EQ(api.get_pod("p0")->node_name, "node1");
  EXPECT_EQ(registry_only.binds(), 1u);
}

// ---- Equivalence: the placement-index walk against the name-keyed scan --

/// The scheduler's placement rule as a name-keyed scan, kept as the
/// reference: every registered node in name order through a std::map,
/// usage summed by rescanning the whole pod store, locality asked through
/// the name-keyed ImageCache::has_image, and strict `>` so equal scores go
/// to the smallest name. `pod` is left out of the usage sums, so this can
/// run right after the bind it predicts. "" when nothing fits.
std::string reference_placement(KubeCluster& kube,
                                const container::Registry& hub,
                                const Pod& pod) {
  std::map<std::string, NodeObject> nodes;
  kube.api().for_each_node(
      [&](std::uint32_t, const NodeObject& node, const ApiServer::NodeUsage&) {
        nodes.emplace(node.name, node);
      });
  std::map<std::string, std::pair<double, double>> used;
  kube.api().for_each_pod([&](const Pod& p) {
    if (p.name == pod.name || p.node_name.empty() ||
        p.phase == PodPhase::kFailed) {
      return;
    }
    used[p.node_name].first += p.cpu_request;
    used[p.node_name].second += p.memory_request;
  });
  std::string best;
  double best_score = -std::numeric_limits<double>::infinity();
  for (const auto& [name, node] : nodes) {
    if (!node.ready) continue;
    const auto [cpu, mem] = used[name];
    if (cpu + pod.cpu_request > node.allocatable_cpu ||
        mem + pod.memory_request > node.allocatable_memory) {
      continue;
    }
    double score = 1.0 - (cpu + pod.cpu_request) / node.allocatable_cpu;
    if (kube.worker(name).cache->has_image(pod.container.image, hub)) {
      score += 0.3;
    }
    if (score > best_score) {
      best_score = score;
      best = name;
    }
  }
  return best;
}

/// A cluster whose workers register in a shuffled order (so node10 lands
/// before node2), with uneven sizes, pre-bound load, some NotReady nodes
/// and image caches that are seeded, pulled, cleared or made stale by a
/// registry re-push. Load pods are deleted or fail, and workers re-register
/// with other core counts. Trial pods arrive over time while the state
/// keeps shifting; each is checked, inside its own scheduling delivery,
/// against reference_placement.
class SchedulerEquivalence {
 public:
  explicit SchedulerEquivalence(std::uint64_t seed) : sim_(seed), rng_(seed) {
    cl_.add_node(cluster::NodeSpec{});  // node0: registry + control plane
    const std::size_t n = 12 + rng_.index(13);
    for (std::size_t i = 0; i < n; ++i) {
      cluster::NodeSpec spec;
      spec.cores = 4.0 * static_cast<double>(1 + rng_.index(4));
      spec.memory_bytes = 8e9 * static_cast<double>(1 + rng_.index(4));
      workers_.push_back(&cl_.add_node(spec));
    }
    rng_.shuffle(workers_.begin(), workers_.end());
    hub_ = std::make_unique<container::Registry>(cl_.node(0));
    hub_->push(container::make_task_image("alpha"));
    hub_->push(container::make_task_image("beta"));
    kube_ = std::make_unique<KubeCluster>(cl_, *hub_, workers_);
    // After the scheduler's watch: runs in the same delivery, right after
    // the placement, before anything else moves.
    kube_->api().watch_pods([this](EventType type, const Pod& pod) {
      if (type != EventType::kAdded || pod.name.rfind("trial", 0) != 0) {
        return;
      }
      const Pod* now = kube_->api().get_pod(pod.name);
      ASSERT_NE(now, nullptr);
      EXPECT_EQ(now->node_name, reference_placement(*kube_, *hub_, *now))
          << pod.name << " at t=" << sim_.now();
      ++checked_;
      if (!now->node_name.empty()) ++bound_;
    });
  }

  void run() {
    for (cluster::Node* w : workers_) {
      container::ImageCache& cache = *kube_->worker(w->name()).cache;
      switch (rng_.index(4)) {
        case 0:
          cache.seed_image(container::make_task_image("alpha"));
          break;
        case 1:
          cache.seed_image(container::make_task_image("beta"));
          break;
        case 2:
          cache.ensure_image("beta:latest", *hub_, [](bool) {});  // pulled
          break;
        default:
          break;  // cold
      }
    }
    for (int i = 0; i < 20; ++i) {  // uneven load, bound up front
      Pod p;
      p.name = "load" + std::to_string(i);
      p.node_name = rng_.pick(workers_)->name();
      p.cpu_request = 0.25 * static_cast<double>(1 + rng_.index(12));
      p.memory_request = 1e9 * static_cast<double>(1 + rng_.index(4));
      loads_.push_back(p.name);
      kube_->api().create_pod(std::move(p));
    }
    for (int i = 0; i < 60; ++i) {
      sim_.call_at(1.0 + 0.5 * i, [this, i] { perturb(i); });
      sim_.call_at(1.25 + 0.5 * i, [this, i] { create_trial(i); });
    }
    // Until well past the last trial: pods nothing fits keep the
    // scheduler's retry timer armed, so the queue never drains.
    sim_.run_until(60.0);
    EXPECT_EQ(checked_, 60);
    EXPECT_GT(bound_, 30);
  }

 private:
  /// One random change to what placement reads.
  void perturb(int i) {
    const std::string node = rng_.pick(workers_)->name();
    container::ImageCache& cache = *kube_->worker(node).cache;
    ApiServer& api = kube_->api();
    switch (rng_.index(8)) {
      case 0:
        api.set_node_ready(node, rng_.chance(0.6));
        break;
      case 1:
        cache.clear();
        break;
      case 2:
        cache.seed_image(container::make_task_image("alpha"));
        break;
      case 3:
        cache.ensure_image(rng_.chance(0.5) ? "alpha:latest" : "beta:latest",
                           *hub_, [](bool) {});
        break;
      case 4: {
        // Re-push alpha with one more layer: caches holding the old
        // manifest lose its locality until they pull the new layer.
        container::Image alpha = container::make_task_image("alpha");
        alpha.layers.push_back(
            {"sha256:alpha-fix" + std::to_string(i), 1e6});
        hub_->push(std::move(alpha));
        break;
      }
      case 5: {
        // Deleted and finalized: its node's used CPU drops.
        if (loads_.empty()) break;
        const std::size_t k = rng_.index(loads_.size());
        api.delete_pod(loads_[k]);
        api.finalize_pod_deletion(loads_[k]);
        loads_.erase(loads_.begin() + static_cast<std::ptrdiff_t>(k));
        break;
      }
      case 6:
        // Failed: its requests stop counting toward the node.
        if (!loads_.empty()) {
          api.mutate_pod(rng_.pick(loads_),
                         [](Pod& p) { p.phase = PodPhase::kFailed; });
        }
        break;
      default: {
        // Re-registered with another core count: it changes CPU class.
        NodeObject obj = api.node_at(api.find_node_slot(node));
        const std::size_t k =
            static_cast<std::size_t>(obj.allocatable_cpu / 4.0) - 1;
        obj.allocatable_cpu =
            4.0 * static_cast<double>(1 + (k + 1 + rng_.index(3)) % 4);
        api.register_node(std::move(obj));
        break;
      }
    }
  }

  void create_trial(int i) {
    static const std::vector<std::string> kImages = {
        "alpha:latest", "beta:latest", "ghost:latest"};
    Pod p;
    p.name = "trial" + std::to_string(i);
    p.container.name = p.name;
    p.container.image = rng_.pick(kImages);
    p.container.memory_bytes = 256e6;
    p.cpu_request = 0.25 * static_cast<double>(1 + rng_.index(16));
    p.memory_request = 1e9 * static_cast<double>(1 + rng_.index(8));
    kube_->api().create_pod(std::move(p));
  }

  sim::Simulation sim_;
  sim::Rng rng_;
  cluster::Cluster cl_{sim_};
  std::vector<cluster::Node*> workers_;
  std::unique_ptr<container::Registry> hub_;
  std::unique_ptr<KubeCluster> kube_;
  std::vector<std::string> loads_;  ///< load pods not yet deleted
  int checked_ = 0;
  int bound_ = 0;
};

TEST(SchedulerEquivalenceTest, BindsWhereTheNameKeyedScanWould) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    SchedulerEquivalence(seed).run();
    if (HasFailure()) return;
  }
}

TEST(SchedulerEquivalenceTest, EqualScoresGoToTheSmallestName) {
  sim::Simulation sim;
  cluster::Cluster cl(sim);
  cl.add_node(cluster::NodeSpec{});
  std::vector<cluster::Node*> workers;
  for (int i = 1; i <= 12; ++i) workers.push_back(&cl.add_node({}));
  std::reverse(workers.begin(), workers.end());  // node12 registers first
  container::Registry hub{cl.node(0)};
  hub.push(container::make_task_image("matmul"));
  KubeCluster kube{cl, hub, workers};
  kube.api().set_node_ready("node1", false);

  auto place = [&](const std::string& name) {
    Pod p;
    p.name = name;
    p.container.image = "matmul:latest";
    kube.api().create_pod(std::move(p));
    sim.run_until(sim.now() + 0.5);
    return kube.api().get_pod(name)->node_name;
  };
  // Every ready node scores the same: the smallest name wins ("node10"
  // sorts before "node2"; node1 is NotReady).
  EXPECT_EQ(place("a"), "node10");
  // node10 now carries load; the tie among the rest goes to node11.
  EXPECT_EQ(place("b"), "node11");
}

/// Registers `nodes` as (name, allocatable cores) in that order on a bare
/// API server, pre-binds a pod of `loads[i]` cores to node i, then places
/// a 1-core pod and returns where it lands.
std::string place_over_loads(
    const std::vector<std::pair<std::string, double>>& nodes,
    const std::vector<double>& loads) {
  sim::Simulation sim;
  ApiServer api{sim};
  Scheduler sched{api};
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    NodeObject node;
    node.name = nodes[i].first;
    node.allocatable_cpu = nodes[i].second;
    node.allocatable_memory = 64e9;
    api.register_node(node);
    Pod load;
    load.name = "load-" + node.name;
    load.node_name = node.name;
    load.cpu_request = loads[i];
    api.create_pod(std::move(load));
  }
  Pod p;
  p.name = "p";
  p.cpu_request = 1.0;
  api.create_pod(std::move(p));
  sim.run_until(1.0);
  return api.get_pod("p")->node_name;
}

TEST(SchedulerEquivalenceTest, RoundedScoreTiesGoToTheSmallestName) {
  const auto score = [](double used, double cores) {
    return 1.0 - (used + 1.0) / cores;
  };
  // One class: the node with the larger load sorts second in the index
  // but has the smaller name, and its score rounds to the same value.
  const double low = 0.1;
  const double high = std::nextafter(0.1, 1.0);
  ASSERT_NE(low, high);
  ASSERT_EQ(score(low, 4.0), score(high, 4.0));
  EXPECT_EQ(place_over_loads({{"b", 4.0}, {"a", 4.0}}, {low, high}), "a");
  // Two classes, the 4-core one registered first: 1 of 4 cores used and
  // 3 of 8 both score 0.5, and the 8-core node has the smaller name.
  ASSERT_EQ(score(1.0, 4.0), score(3.0, 8.0));
  EXPECT_EQ(place_over_loads({{"y", 4.0}, {"x", 8.0}}, {1.0, 3.0}), "x");
}

}  // namespace
}  // namespace sf::k8s
