// EndpointsController dirty-marking regression: a pod event must rebuild
// only the services whose selector matches the pod — O(changed
// selectors), not O(all services). Probed via the refreshes() counter;
// the old refresh-everything controller rebuilt every service on every
// pod event, which this test distinguishes exactly. Plus an oracle that
// checks the API server's incremental ready sets, and every published
// Endpoints list, against a full rescan of the pod store.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "container/image.hpp"
#include "k8s/kube_cluster.hpp"
#include "sim/simulation.hpp"

namespace sf::k8s {
namespace {

class EndpointsDirtyMarkingTest : public ::testing::Test {
 protected:
  sim::Simulation sim;
  std::unique_ptr<cluster::Cluster> cl = cluster::make_paper_testbed(sim);
  container::Registry hub{cl->node(0)};
  KubeCluster kube{*cl, hub, {&cl->node(1), &cl->node(2), &cl->node(3)}};

  void SetUp() override {
    hub.push(container::make_task_image("matmul"));
  }

  Deployment deployment(const std::string& app, int replicas) {
    Deployment d;
    d.name = app + "-rev1";
    d.selector = {{"app", app}};
    d.pod_labels = {{"app", app}};
    d.pod_template.name = app;
    d.pod_template.image = "matmul:latest";
    d.pod_template.memory_bytes = 512e6;
    d.cpu_request = 0.5;
    d.memory_request = 512e6;
    d.replicas = replicas;
    return d;
  }

  Service service(const std::string& app) {
    Service s;
    s.name = app;
    s.selector = {{"app", app}};
    return s;
  }
};

TEST_F(EndpointsDirtyMarkingTest, UnmatchedPodEventsTriggerNoRebuild) {
  kube.api().create_service(service("alpha"));
  sim.run();
  const auto baseline = kube.endpoints_refreshes();

  // Pods labelled app=beta match no service: the controller must not
  // touch alpha's endpoints for any of their lifecycle events.
  kube.api().apply_deployment(deployment("beta", 3));
  sim.run();
  EXPECT_EQ(kube.endpoints_refreshes(), baseline);
}

TEST_F(EndpointsDirtyMarkingTest, MatchedPodEventsRebuildOnlyTheirService) {
  kube.api().create_service(service("alpha"));
  kube.api().create_service(service("beta"));
  sim.run();
  const auto baseline = kube.endpoints_refreshes();

  kube.api().apply_deployment(deployment("alpha", 2));
  sim.run();
  const auto after_alpha = kube.endpoints_refreshes();
  EXPECT_GT(after_alpha, baseline);

  // beta saw zero matching pod events, so its endpoints stay absent —
  // with refresh-everything they would have been (re)built repeatedly.
  const Endpoints* beta_eps = kube.api().get_endpoints("beta");
  if (beta_eps != nullptr) {
    EXPECT_TRUE(beta_eps->ready.empty());
  }

  // Every alpha pod produces a bounded number of lifecycle events
  // (created/scheduled/running/ready); each rebuild maps to exactly one
  // of them, for exactly one service. The old controller rebuilt BOTH
  // services per event, i.e. an even count per event — growing one
  // deployment while the other's count stays frozen is the fix's
  // observable signature.
  kube.api().apply_deployment(deployment("beta", 2));
  sim.run();
  const auto after_beta = kube.endpoints_refreshes();
  EXPECT_GT(after_beta, after_alpha);

  const Endpoints* alpha_eps = kube.api().get_endpoints("alpha");
  ASSERT_NE(alpha_eps, nullptr);
  EXPECT_EQ(alpha_eps->ready.size(), 2u);
  beta_eps = kube.api().get_endpoints("beta");
  ASSERT_NE(beta_eps, nullptr);
  EXPECT_EQ(beta_eps->ready.size(), 2u);
}

TEST_F(EndpointsDirtyMarkingTest, RebuildCountScalesWithMatchingEventsOnly) {
  kube.api().create_service(service("alpha"));
  sim.run();

  // Bring up alpha alone and count its rebuilds.
  kube.api().apply_deployment(deployment("alpha", 2));
  sim.run();
  const auto alpha_only = kube.endpoints_refreshes();

  // A crowd of unrelated services must not inflate the per-event cost:
  // scaling alpha up by the same amount costs the same number of
  // rebuilds as before, despite 8 more services existing.
  for (int i = 0; i < 8; ++i) {
    kube.api().create_service(service("noise" + std::to_string(i)));
  }
  sim.run();
  const auto with_noise = kube.endpoints_refreshes();

  kube.api().set_deployment_replicas("alpha-rev1", 4);
  sim.run();
  const auto after_scale = kube.endpoints_refreshes();

  // +2 pods cost no more rebuilds than the first +2 pods did; the noise
  // services contribute zero.
  EXPECT_LE(after_scale - with_noise, alpha_only);
}

// ---- Oracle: incremental ready sets against a full rescan ---------------
//
// A seeded random mix of pod lifecycle transitions, driven straight
// through a bare ApiServer + EndpointsController, across three services
// with overlapping selectors plus one created and one deleted mid-stream.
// After every engine step each service's incremental ready set must equal
// a rescan of the pod store. Whenever the controller refreshes a service,
// the published Endpoints must equal that rescan at that instant, and an
// endpoints event must go out exactly when the list changed.

/// What a rebuild from the pod store lists for `svc`.
std::vector<Endpoint> rescan(const ApiServer& api, const Service& svc) {
  std::vector<Endpoint> out;
  api.for_each_pod(svc.selector, [&](const Pod& pod) {
    if (pod.ready && pod.phase == PodPhase::kRunning) {
      out.push_back(Endpoint{pod.name, pod.host_net_id, pod.port});
    }
  });
  return out;
}

enum class Action {
  kCreate,
  kBind,
  kRun,
  kReady,
  kUnready,
  kKill,
  kEvict,
  kDelete,
  kFinalize,
  kRelabel,
  kRepoint,
};

class EndpointsOracle {
 public:
  explicit EndpointsOracle(std::uint64_t seed) : rng_(seed) {
    // Registered right after the controller's watch, so in every pod
    // delivery it runs straight after the refresh, before anything else
    // can touch the store.
    api_.watch_pods([this](EventType, const Pod& pod) { check_refresh(pod); });
    api_.watch_endpoints([this](EventType type, const Endpoints&) {
      if (type != EventType::kDeleted) ++endpoint_events_;
    });
  }

  void run() {
    create_service("web", {{"app", "a"}});
    create_service("front", {{"tier", "x"}});
    create_service("web-front", {{"app", "a"}, {"tier", "x"}});
    constexpr int kActions = 400;
    constexpr double kHorizon = 30.0;
    for (int i = 0; i < kActions; ++i) {
      sim_.call_at(rng_.uniform(0, kHorizon), [this] { act(); });
    }
    sim_.call_at(8.0, [this] { create_service("all", {}); });
    sim_.call_at(16.0, [this] { delete_service("front"); });
    sim_.call_at(22.0, [this] { create_service("front", {{"tier", "x"}}); });
    sim_.call_at(26.0, [this] { delete_service("all"); });
    while (sim_.step()) {
      api_.for_each_service([this](const Service& svc) {
        const std::vector<Endpoint>* live = api_.ready_endpoints(svc.name);
        ASSERT_NE(live, nullptr) << svc.name;
        EXPECT_EQ(*live, rescan(api_, svc))
            << svc.name << " at t=" << sim_.now();
      });
      if (::testing::Test::HasFailure()) return;
    }
    EXPECT_EQ(endpoint_events_, expected_events_);
    EXPECT_EQ(controller_.refreshes(), expected_refreshes_);
    EXPECT_GT(expected_events_, 20u);  // the mix actually moved endpoints
  }

 private:
  void create_service(const std::string& name, Labels selector) {
    api_.create_service(Service{0, name, std::move(selector)});
    published_[name].clear();  // create_service resets endpoints silently
  }

  void delete_service(const std::string& name) {
    api_.delete_service(name);
    published_.erase(name);
  }

  /// Runs inside the pod delivery, right after the controller refreshed
  /// every service selecting `pod`.
  void check_refresh(const Pod& pod) {
    api_.for_each_service([&](const Service& svc) {
      if (!selector_matches(svc.selector, pod.labels)) return;
      ++expected_refreshes_;
      const std::vector<Endpoint> want = rescan(api_, svc);
      const Endpoints* eps = api_.get_endpoints(svc.name);
      ASSERT_NE(eps, nullptr) << svc.name;
      EXPECT_EQ(eps->ready, want) << svc.name << " at t=" << sim_.now();
      std::vector<Endpoint>& last = published_[svc.name];
      if (last != want) {
        ++expected_events_;
        last = want;
      }
    });
  }

  Labels random_labels() {
    return {{"app", rng_.chance(0.5) ? "a" : "b"},
            {"tier", rng_.chance(0.5) ? "x" : "y"}};
  }

  /// A random pod satisfying `pred`, or "" when none does.
  template <typename Pred>
  std::string pick(Pred pred) {
    std::vector<std::string> names;
    api_.for_each_pod([&](const Pod& p) {
      if (pred(p)) names.push_back(p.name);
    });
    return names.empty() ? "" : rng_.pick(names);
  }

  void mutate(const std::string& name, const std::function<void(Pod&)>& fn) {
    if (!name.empty()) api_.mutate_pod(name, fn);
  }

  void act() {
    static const std::vector<Action> kMix = {
        Action::kCreate,  Action::kCreate,  Action::kCreate, Action::kBind,
        Action::kBind,    Action::kRun,     Action::kRun,    Action::kReady,
        Action::kReady,   Action::kReady,   Action::kUnready, Action::kKill,
        Action::kEvict,   Action::kDelete,  Action::kFinalize,
        Action::kFinalize, Action::kRelabel, Action::kRepoint};
    auto phase_is = [](PodPhase ph) {
      return [ph](const Pod& p) { return p.phase == ph; };
    };
    auto bound = [](const Pod& p) {
      return p.phase == PodPhase::kScheduled || p.phase == PodPhase::kRunning;
    };
    switch (rng_.pick(kMix)) {
      case Action::kCreate: {
        Pod p;
        p.name = "p" + std::to_string(next_pod_++);
        p.labels = random_labels();
        api_.create_pod(std::move(p));
        break;
      }
      case Action::kBind:
        mutate(pick([](const Pod& p) {
                 return p.phase == PodPhase::kPending && p.node_name.empty();
               }),
               [node = "n" + std::to_string(rng_.index(4))](Pod& p) {
                 p.node_name = node;
                 p.phase = PodPhase::kScheduled;
               });
        break;
      case Action::kRun:
        mutate(pick(phase_is(PodPhase::kScheduled)),
               [host = static_cast<net::NodeId>(1 + rng_.index(8)),
                port = static_cast<net::Port>(1000 + rng_.index(8))](Pod& p) {
                 p.phase = PodPhase::kRunning;
                 p.host_net_id = host;
                 p.port = port;
               });
        break;
      case Action::kReady:
        mutate(pick([](const Pod& p) {
                 return p.phase == PodPhase::kRunning && !p.ready;
               }),
               [](Pod& p) { p.ready = true; });
        break;
      case Action::kUnready:
        mutate(pick([](const Pod& p) { return p.ready; }),
               [](Pod& p) { p.ready = false; });
        break;
      case Action::kKill:  // kubelet: the container died
        mutate(pick(phase_is(PodPhase::kRunning)), [](Pod& p) {
          p.phase = PodPhase::kFailed;
          p.ready = false;
        });
        break;
      case Action::kEvict: {  // node lifecycle: the node was lost
        const std::string victim = pick([&](const Pod& p) {
          return bound(p) || p.phase == PodPhase::kTerminating;
        });
        if (victim.empty()) break;
        if (api_.get_pod(victim)->phase == PodPhase::kTerminating) {
          api_.finalize_pod_deletion(victim);
        } else {
          mutate(victim, [](Pod& p) {
            p.phase = PodPhase::kFailed;
            p.ready = false;
          });
        }
        break;
      }
      case Action::kDelete: {
        const std::string victim = pick([](const Pod& p) {
          return p.phase != PodPhase::kTerminating;
        });
        if (!victim.empty()) api_.delete_pod(victim);
        break;
      }
      case Action::kFinalize: {
        const std::string victim = pick(phase_is(PodPhase::kTerminating));
        if (!victim.empty()) api_.finalize_pod_deletion(victim);
        break;
      }
      case Action::kRelabel:  // a serving pod may leave or join services
        mutate(pick([](const Pod& p) { return p.ready; }),
               [labels = random_labels()](Pod& p) { p.labels = labels; });
        break;
      case Action::kRepoint:  // same pod, new port: the endpoint moves
        mutate(pick([](const Pod& p) { return p.ready; }),
               [port = static_cast<net::Port>(2000 + rng_.index(8))](Pod& p) {
                 p.port = port;
               });
        break;
    }
  }

  sim::Simulation sim_;
  ApiServer api_{sim_};
  EndpointsController controller_{api_};
  sim::Rng rng_;
  int next_pod_ = 0;
  std::map<std::string, std::vector<Endpoint>> published_;
  std::uint64_t expected_refreshes_ = 0;
  std::uint64_t expected_events_ = 0;
  std::uint64_t endpoint_events_ = 0;
};

TEST(EndpointsOracleTest, ReadySetsMatchFullRescanUnderRandomChurn) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    EndpointsOracle(seed).run();
    if (HasFailure()) return;
  }
}

}  // namespace
}  // namespace sf::k8s
