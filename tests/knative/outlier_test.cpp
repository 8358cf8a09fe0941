// Outlier ejection + admission control at the router: consecutive-5xx and
// success-rate ejection, capped exponential windows, max_ejection_percent,
// probation re-admission, panic routing, token-bucket 429s, the router
// per-attempt deadline, and the machine-readable failure taxonomy.

#include "knative/outlier.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "container/image.hpp"
#include "knative/serving.hpp"
#include "sim/simulation.hpp"

namespace sf::knative {
namespace {

// ---- Detector unit tests (no cluster) ----------------------------------

OutlierConfig detector_config() {
  OutlierConfig cfg;
  cfg.enabled = true;
  cfg.consecutive_5xx = 3;
  cfg.consecutive_gateway = 0;
  cfg.interval_s = 10.0;
  cfg.base_ejection_s = 30.0;
  cfg.max_ejection_s = 300.0;
  cfg.max_ejection_percent = 100;
  return cfg;
}

TEST(OutlierDetector, ConsecutiveFailuresEject) {
  OutlierDetector det(detector_config());
  det.on_response("a", 200, 0.01, 0.0);
  det.on_response("b", 500, 0.01, 0.1);
  det.on_response("b", 500, 0.01, 0.2);
  EXPECT_FALSE(det.ejected("b", 0.3));  // two failures: below threshold
  det.on_response("b", 500, 0.01, 0.3);
  EXPECT_TRUE(det.ejected("b", 0.4));
  EXPECT_FALSE(det.ejected("a", 0.4));
  EXPECT_EQ(det.total_ejections(), 1u);
  EXPECT_EQ(det.ejected_count(), 1u);
  ASSERT_EQ(det.ejected_backends().size(), 1u);
  EXPECT_EQ(det.ejected_backends()[0], "b");
}

TEST(OutlierDetector, SuccessResetsTheStreak) {
  OutlierDetector det(detector_config());
  det.on_response("a", 500, 0.01, 0.0);
  det.on_response("a", 500, 0.01, 0.1);
  det.on_response("a", 200, 0.01, 0.2);  // streak broken
  det.on_response("a", 500, 0.01, 0.3);
  det.on_response("a", 500, 0.01, 0.4);
  EXPECT_FALSE(det.ejected("a", 0.5));
}

TEST(OutlierDetector, EjectionWindowExpiresIntoProbation) {
  OutlierDetector det(detector_config());
  for (int i = 0; i < 3; ++i) det.on_response("a", 500, 0.01, 0.1 * i);
  EXPECT_TRUE(det.ejected("a", 1.0));
  EXPECT_TRUE(det.ejected("a", 29.0));   // base window is 30 s
  EXPECT_FALSE(det.ejected("a", 31.0));  // expired: probing again
  EXPECT_EQ(det.total_readmissions(), 1u);
  // Probe succeeds: host fully healthy, a later ejection starts at base.
  det.on_response("a", 200, 0.01, 31.5);
  EXPECT_FALSE(det.ejected("a", 32.0));
}

TEST(OutlierDetector, ProbationFailureReEjectsWithDoubledWindow) {
  OutlierDetector det(detector_config());
  for (int i = 0; i < 3; ++i) det.on_response("a", 500, 0.01, 0.1 * i);
  EXPECT_FALSE(det.ejected("a", 31.0));   // window expired -> probation
  det.on_response("a", 500, 0.01, 31.5);  // probe fails: instant re-eject
  EXPECT_EQ(det.total_ejections(), 2u);
  EXPECT_TRUE(det.ejected("a", 31.6));
  // Second window is base * 2 = 60 s from the re-ejection.
  EXPECT_TRUE(det.ejected("a", 31.5 + 59.0));
  EXPECT_FALSE(det.ejected("a", 31.5 + 61.0));
}

TEST(OutlierDetector, MaxEjectionPercentCapsEjections) {
  OutlierConfig cfg = detector_config();
  cfg.max_ejection_percent = 34;  // of 3 hosts -> allowance 1
  OutlierDetector det(cfg);
  det.on_response("c", 200, 0.01, 0.0);
  for (int i = 0; i < 3; ++i) det.on_response("a", 500, 0.01, 0.1 + 0.1 * i);
  for (int i = 0; i < 3; ++i) det.on_response("b", 500, 0.01, 0.5 + 0.1 * i);
  EXPECT_EQ(det.ejection_allowance(), 1u);
  EXPECT_EQ(det.ejected_count(), 1u);  // "b" spared by the guard
  EXPECT_TRUE(det.ejected("a", 1.0));
  EXPECT_FALSE(det.ejected("b", 1.0));
}

TEST(OutlierDetector, SuccessRateEjectsTheStatisticalOutlier) {
  OutlierConfig cfg = detector_config();
  cfg.consecutive_5xx = 0;  // isolate the success-rate path
  cfg.success_rate_min_hosts = 3;
  cfg.success_rate_request_volume = 8;
  cfg.success_rate_stdev_factor = 1.0;
  OutlierDetector det(cfg);
  // Interval [0, 10): a and b perfect, c only half-healthy (gray node).
  for (int i = 0; i < 10; ++i) {
    const double t = 0.1 + 0.9 * i;
    det.on_response("a", 200, 0.01, t);
    det.on_response("b", 200, 0.01, t);
    det.on_response("c", i % 2 == 0 ? 500 : 200, 0.01, t);
  }
  EXPECT_FALSE(det.ejected("c", 9.9));  // window still open
  // First sample of the next interval closes the window and evaluates.
  det.on_response("a", 200, 0.01, 10.5);
  EXPECT_TRUE(det.ejected("c", 10.6));
  EXPECT_FALSE(det.ejected("a", 10.6));
  EXPECT_FALSE(det.ejected("b", 10.6));
}

TEST(OutlierDetector, TracksRollingBackendLatency) {
  OutlierDetector det(detector_config());
  for (int i = 0; i < 100; ++i) det.on_response("a", 200, 0.050, 0.05 * i);
  const double p99 = det.backend_latency_p("a", 0.99, 5.0);
  EXPECT_NEAR(p99, 0.050, 0.007);  // log-linear bucket resolution
  EXPECT_EQ(det.backend_latency_p("unknown", 0.99, 5.0), 0.0);
}

TEST(OutlierDetector, RemoveHostForgetsState) {
  OutlierDetector det(detector_config());
  for (int i = 0; i < 3; ++i) det.on_response("a", 500, 0.01, 0.1 * i);
  EXPECT_TRUE(det.ejected("a", 1.0));
  det.remove_host("a");
  EXPECT_EQ(det.host_count(), 0u);
  EXPECT_FALSE(det.ejected("a", 1.0));
}

TEST(TokenBucketTest, RefillsAtConfiguredRate) {
  TokenBucket bucket;
  bucket.configure({/*fill_rate_hz=*/1.0, /*burst=*/2.0}, 0.0);
  EXPECT_TRUE(bucket.enabled());
  EXPECT_TRUE(bucket.try_take(0.0));
  EXPECT_TRUE(bucket.try_take(0.0));
  EXPECT_FALSE(bucket.try_take(0.0));  // burst exhausted
  EXPECT_FALSE(bucket.try_take(0.5));  // only half a token refilled
  EXPECT_TRUE(bucket.try_take(1.6));
  // Tokens cap at capacity no matter how long the idle gap.
  EXPECT_NEAR(bucket.tokens(100.0), 2.0, 1e-9);
}

// ---- Router integration -------------------------------------------------

/// Warm pods behind the router; the handler fails (500) on pods listed in
/// `failing` and never responds at all on pods in `blackhole` (the
/// one-way-partition shape: the request arrives, the reply never leaves).
class OutlierRoutingTest : public ::testing::Test {
 protected:
  sim::Simulation sim;
  std::unique_ptr<cluster::Cluster> cl = cluster::make_paper_testbed(sim);
  container::Registry hub{cl->node(0)};
  k8s::KubeCluster kube{*cl, hub, {&cl->node(1), &cl->node(2), &cl->node(3)}};
  KnativeServing serving{kube, cl->node(0)};
  std::map<std::string, int> served;
  std::set<std::string> failing;
  std::set<std::string> blackhole;
  bool fail_all = false;
  std::map<int, int> client_statuses;

  void start_service(const Annotations& annotations) {
    hub.push(container::make_task_image("matmul"));
    KnServiceSpec spec;
    spec.name = "fn";
    spec.container.name = "fn";
    spec.container.image = "matmul:latest";
    spec.container.cpu_limit = 1.0;
    spec.handler = [this](const net::HttpRequest& req, FunctionContext& ctx,
                          net::Responder respond) {
      ++served[ctx.pod_name];
      if (blackhole.contains(ctx.pod_name)) return;  // reply never arrives
      const bool fail = fail_all || failing.contains(ctx.pod_name);
      const double work = std::any_cast<double>(req.body);
      ctx.exec(work, [respond = std::move(respond), fail](bool ok) mutable {
        net::HttpResponse resp;
        resp.status = (!ok || fail) ? 500 : 200;
        respond(std::move(resp));
      });
    };
    spec.annotations = annotations;
    serving.create_service(std::move(spec));
    sim.run_until(30.0);
    ASSERT_EQ(serving.ready_replicas("fn"), annotations.min_scale);
  }

  void invoke(double work = 0.02) {
    net::HttpRequest req;
    req.body = work;
    serving.invoke(cl->node(0).net_id(), "fn", std::move(req),
                   [this](net::HttpResponse resp) {
                     ++client_statuses[resp.status];
                   });
  }

  /// First pod the round-robin cursor serves — the ejection victim.
  std::string designate_victim() {
    invoke();
    sim.run_until(sim.now() + 2.0);
    EXPECT_EQ(served.size(), 1u);
    return served.begin()->first;
  }

  static Annotations warm_three() {
    Annotations a;
    a.min_scale = 3;
    a.max_scale = 3;
    a.container_concurrency = 0;
    return a;
  }
};

TEST_F(OutlierRoutingTest, ConsecutiveFailuresSteerTrafficAway) {
  Annotations a = warm_three();
  a.outlier.enabled = true;
  a.outlier.consecutive_5xx = 3;
  a.outlier.base_ejection_s = 1000;  // stays out for the whole test
  start_service(a);
  const std::string victim = designate_victim();
  failing.insert(victim);
  for (int i = 0; i < 18; ++i) {
    invoke();
    sim.run_until(sim.now() + 0.5);
  }
  // The victim absorbed exactly its consecutive_5xx budget; every later
  // request was steered to the two healthy pods.
  EXPECT_EQ(served[victim], 1 + 3);
  EXPECT_EQ(serving.ejections("fn"), 1u);
  ASSERT_EQ(serving.ejected_backends("fn").size(), 1u);
  EXPECT_EQ(serving.ejected_backends("fn")[0], victim);
  EXPECT_EQ(client_statuses[500], 3);  // plain 500s are not retryable
  EXPECT_EQ(client_statuses[200], 1 + 15);
  EXPECT_GT(serving.outlier_guarded_picks(), 0u);
  EXPECT_EQ(serving.outlier_misrouted(), 0u);
  const auto snap = serving.outlier_snapshot("fn");
  EXPECT_TRUE(snap.enabled);
  EXPECT_EQ(snap.hosts, 3u);
  EXPECT_EQ(snap.ejected, 1u);
}

TEST_F(OutlierRoutingTest, RecoveredBackendIsReadmittedAfterTheWindow) {
  Annotations a = warm_three();
  a.outlier.enabled = true;
  a.outlier.consecutive_5xx = 3;
  a.outlier.base_ejection_s = 20;
  start_service(a);
  const std::string victim = designate_victim();
  failing.insert(victim);
  for (int i = 0; i < 9; ++i) {
    invoke();
    sim.run_until(sim.now() + 0.5);
  }
  ASSERT_EQ(serving.ejections("fn"), 1u);
  failing.erase(victim);  // the gray node recovers while ejected
  sim.run_until(sim.now() + 25.0);
  const int before = served[victim];
  for (int i = 0; i < 9; ++i) {
    invoke();
    sim.run_until(sim.now() + 0.5);
  }
  EXPECT_GT(served[victim], before);  // probation probe + normal rotation
  EXPECT_EQ(serving.readmissions("fn"), 1u);
  EXPECT_EQ(serving.ejections("fn"), 1u);  // probe succeeded: no re-eject
}

TEST_F(OutlierRoutingTest, PanicRoutingServesWhenEveryBackendIsEjected) {
  Annotations a = warm_three();
  a.outlier.enabled = true;
  a.outlier.consecutive_5xx = 2;
  a.outlier.max_ejection_percent = 100;
  a.outlier.base_ejection_s = 1000;
  start_service(a);
  fail_all = true;  // every pod fails -> all ejected -> panic routing
  for (int i = 0; i < 24; ++i) {
    invoke();
    sim.run_until(sim.now() + 0.5);
  }
  EXPECT_EQ(serving.outlier_snapshot("fn").ejected, 3u);
  // Requests keep flowing (and keep failing) instead of blackholing.
  EXPECT_EQ(client_statuses[500], 24);
  EXPECT_EQ(serving.outlier_misrouted(), 0u);  // panic picks don't count
}

TEST_F(OutlierRoutingTest, RouteTimeoutCatchesSilentBackendAndRetries) {
  Annotations a = warm_three();
  a.outlier.enabled = true;
  a.outlier.consecutive_gateway = 1;  // one unresponsive attempt ejects
  a.outlier.base_ejection_s = 1000;
  a.route_timeout_s = 2.0;  // router per-attempt deadline
  start_service(a);
  const std::string victim = designate_victim();
  blackhole.insert(victim);  // request lands, reply never comes back
  for (int i = 0; i < 6; ++i) {
    invoke();
    sim.run_until(sim.now() + 4.0);
  }
  // The one request that hit the blackhole cost one router deadline, was
  // retried against a healthy pod, and the victim got ejected — every
  // client still saw 200.
  EXPECT_EQ(client_statuses[200], 1 + 6);
  EXPECT_EQ(served[victim], 1 + 1);
  EXPECT_EQ(serving.ejections("fn"), 1u);
  EXPECT_EQ(serving.route_failures("fn").unresponsive, 1u);
  EXPECT_GE(serving.route_retries("fn"), 1u);
}

TEST_F(OutlierRoutingTest, LateReplyAfterTheRouteDeadlineIsDiscarded) {
  // The first pod the router picks answers after 3 s, past the router's
  // 2 s per-attempt deadline; the other two answer at once. The slow
  // pod's 200 arrives after the deadline already answered that attempt,
  // so the router must drop it and each client sees exactly one answer.
  hub.push(container::make_task_image("matmul"));
  std::string slow_pod;
  KnServiceSpec spec;
  spec.name = "fn";
  spec.container.name = "fn";
  spec.container.image = "matmul:latest";
  spec.container.cpu_limit = 1.0;
  spec.handler = [this, &slow_pod](const net::HttpRequest&,
                                   FunctionContext& ctx,
                                   net::Responder respond) {
    ++served[ctx.pod_name];
    if (slow_pod.empty()) slow_pod = ctx.pod_name;
    const double work = ctx.pod_name == slow_pod ? 3.0 : 0.02;
    ctx.exec(work, [respond = std::move(respond)](bool ok) mutable {
      net::HttpResponse resp;
      resp.status = ok ? 200 : 500;
      respond(std::move(resp));
    });
  };
  spec.annotations = warm_three();
  spec.annotations.route_timeout_s = 2.0;
  serving.create_service(std::move(spec));
  sim.run_until(30.0);
  ASSERT_EQ(serving.ready_replicas("fn"), 3);

  constexpr int kRequests = 6;
  std::vector<int> answers(kRequests, 0);
  std::vector<int> statuses(kRequests, 0);
  for (int i = 0; i < kRequests; ++i) {
    net::HttpRequest req;
    serving.invoke(cl->node(0).net_id(), "fn", std::move(req),
                   [&answers, &statuses, i](net::HttpResponse resp) {
                     ++answers[i];
                     statuses[i] = resp.status;
                   });
    sim.run_until(sim.now() + 5.0);  // the slow pod's late reply lands too
  }
  sim.run_until(sim.now() + 10.0);
  for (int i = 0; i < kRequests; ++i) {
    EXPECT_EQ(answers[i], 1) << "request " << i;
    EXPECT_EQ(statuses[i], 200) << "request " << i;
  }
  // Round-robin over three pods with one retry per slow hit: requests 0,
  // 2 and 4 land on the slow pod first and are retried on the next pod.
  EXPECT_EQ(served[slow_pod], 3);
  EXPECT_EQ(serving.route_failures("fn").unresponsive, 3u);
  EXPECT_EQ(serving.route_retries("fn"), 3u);
  EXPECT_EQ(serving.requests_routed("fn"),
            static_cast<std::uint64_t>(kRequests));
}

TEST_F(OutlierRoutingTest, AdmissionBucketSheds429sUnderBurst) {
  Annotations a;
  a.min_scale = 1;
  a.max_scale = 1;
  a.container_concurrency = 1;
  a.admission.fill_rate_hz = 0.5;
  a.admission.burst = 2;
  start_service(a);
  for (int i = 0; i < 10; ++i) invoke(/*work=*/0.01);  // one burst
  sim.run_until(sim.now() + 30.0);
  // The burst capacity passes; the rest exhaust their jittered retries
  // and get fast 429s instead of piling into the pod queue.
  EXPECT_GT(client_statuses[429], 0);
  EXPECT_GT(client_statuses[200], 0);
  EXPECT_EQ(client_statuses[429] + client_statuses[200], 10);
  EXPECT_GT(serving.admission_rejections("fn"), 0u);
  EXPECT_EQ(serving.route_failures("fn").rejected,
            serving.admission_rejections("fn"));
  // Rejections never entered a pod queue: depth stays bounded by the
  // admitted trickle, not the burst.
  EXPECT_LE(serving.peak_backend_queue("fn"), 4u);
}

TEST_F(OutlierRoutingTest, ReasonTagsAndPerRevisionRetries) {
  Annotations a;
  a.min_scale = 1;
  a.max_scale = 1;
  a.container_concurrency = 1;
  a.request_timeout_s = 1.0;  // queue-proxy deadline
  a.outlier.enabled = true;   // wires the per-(revision, pod) stats sink
  start_service(a);
  net::HttpRequest req;
  req.body = 50.0;  // far beyond the deadline
  int status = 0;
  std::string reason;
  serving.invoke(cl->node(0).net_id(), "fn", std::move(req),
                 [&](net::HttpResponse resp) {
                   status = resp.status;
                   auto it = resp.headers.find(net::kReasonHeader);
                   if (it != resp.headers.end()) reason = it->second;
                 });
  sim.run_until(sim.now() + 20.0);
  EXPECT_EQ(status, net::kStatusGatewayTimeout);
  EXPECT_EQ(reason, "timeout");  // machine-readable, not just the status
  const auto failures = serving.route_failures("fn");
  EXPECT_EQ(failures.timeout, 3u);  // every attempt hit the deadline
  EXPECT_EQ(failures.backend_down, 0u);
  EXPECT_EQ(failures.unresponsive, 0u);
  // The per-revision split accounts for every service-level retry.
  EXPECT_GT(serving.route_retries("fn"), 0u);
  EXPECT_EQ(serving.route_retries_for_revision(
                "fn", serving.active_revision("fn")),
            serving.route_retries("fn"));
  EXPECT_EQ(serving.route_retries_for_revision("fn", "no-such-rev"), 0u);
  // The queue-proxy recorded latency + outcome per (revision, pod).
  EXPECT_GT(serving.stats().histogram_count(), 0u);
  std::uint64_t outcomes = 0;
  serving.stats().each_counter(
      [&](std::uint32_t, std::uint32_t, std::uint64_t v) { outcomes += v; });
  EXPECT_GE(outcomes, 3u);
}

TEST_F(OutlierRoutingTest, DisabledFeaturesCostNothing) {
  start_service(warm_three());
  for (int i = 0; i < 6; ++i) {
    invoke();
    sim.run_until(sim.now() + 0.5);
  }
  EXPECT_EQ(client_statuses[200], 6);
  EXPECT_EQ(serving.outlier_guarded_picks(), 0u);
  EXPECT_EQ(serving.stats().histogram_count(), 0u);
  EXPECT_EQ(serving.stats().counter_count(), 0u);
  EXPECT_FALSE(serving.outlier_snapshot("fn").enabled);
}

}  // namespace
}  // namespace sf::knative
