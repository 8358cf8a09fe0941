#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/node.hpp"
#include "k8s/kube_cluster.hpp"
#include "knative/kpa.hpp"
#include "knative/outlier.hpp"
#include "knative/queue_proxy.hpp"
#include "metrics/stream_stats.hpp"
#include "sim/slot_table.hpp"

namespace sf::knative {

/// Endpoint-selection policy of the ingress router. Round-robin is
/// Knative's default; least-loaded picks the ready pod whose queue-proxy
/// reports the lowest concurrency — the building block for the paper's
/// future-work "task redirection away from over-utilized nodes" (§IX-D).
enum class LoadBalancingPolicy { kRoundRobin, kLeastLoaded };

/// `autoscaling.knative.dev/*` annotations plus revision-level settings.
struct Annotations {
  /// Pods kept warm at all times; the paper's pre-staging knob ("min-scale
  /// to specify the number of worker nodes that should download the
  /// container ahead of time").
  int min_scale = 0;
  /// Pods created at registration; 0 defers the image download until the
  /// first invocation ("initial-scale to zero defers container downloads
  /// until a task is actually invoked"); -1 = Knative default (1).
  int initial_scale = -1;
  int max_scale = 0;  ///< 0 = unlimited
  /// Hard per-pod request cap enforced by the queue-proxy; 0 = unlimited;
  /// 1 reproduces the paper's "one request per container at a time".
  int container_concurrency = 0;
  double target_concurrency = 1.0;  ///< KPA soft target per pod
  double stable_window_s = 60.0;
  double panic_window_s = 6.0;
  double scale_to_zero_grace_s = 30.0;
  /// Per-request timeout enforced by the queue-proxy (Knative's
  /// revision `timeoutSeconds`); 0 = no timeout. Expired requests get a
  /// 504, which the router treats as retryable — so a request stuck
  /// behind a dead or overloaded pod is re-routed (possibly through the
  /// activator after a cold start).
  double request_timeout_s = 0;
  /// Router-side per-ATTEMPT deadline (Envoy's upstream request
  /// timeout); 0 = off. The queue-proxy deadline above only covers
  /// queueing + execution — if the pod answers but its reply never
  /// arrives (one-way partition, NIC stall), only this timer fires: the
  /// attempt is answered 504 reason "unresponsive", fed to the outlier
  /// detector, and retried against another backend; the late real
  /// response is discarded.
  double route_timeout_s = 0;
  /// Passive outlier ejection over the service's backend pods
  /// (disabled by default — zero behavior/fingerprint change when off).
  OutlierConfig outlier;
  /// Token-bucket admission control at the router (off by default).
  AdmissionConfig admission;
};

/// A Knative Service definition: container, resource requests, the
/// function handler (the Flask app), and scaling annotations.
struct KnServiceSpec {
  std::string name;
  container::ContainerSpec container;
  double cpu_request = 0.5;
  FunctionHandler handler;
  Annotations annotations;
};

/// Knative Serving control plane: revisions, KPA autoscaler loops, the
/// activator (scale-from-zero buffering) and the ingress router, all on
/// top of the k8s substrate.
///
/// Request path: client → gateway (ingress) → ready pod's queue-proxy →
/// user container; or, at zero scale, client → gateway → activator buffer
/// → (autoscaler poke, pod comes up) → queue-proxy. Payload bytes are paid
/// on every network hop, reproducing the paper's data-movement costs.
class KnativeServing {
 public:
  static constexpr net::Port kGatewayPort = 80;

  KnativeServing(k8s::KubeCluster& kube, cluster::Node& gateway);

  KnativeServing(const KnativeServing&) = delete;
  KnativeServing& operator=(const KnativeServing&) = delete;

  /// Registers a service: creates the revision's Deployment + k8s Service
  /// and starts its autoscaler. Mirrors the paper's pre-run registration
  /// step ("the containerized application is deployed on Knative *before*
  /// workflow execution").
  void create_service(KnServiceSpec spec);

  /// Rolls out a new revision of an existing service (blue/green, as
  /// Knative does on spec changes): the new revision's pods come up
  /// first, traffic switches atomically once they are ready, then the
  /// old revision is torn down — in-flight requests drain gracefully.
  /// With min-scale 0 the switch happens immediately (nothing to warm).
  void update_service(KnServiceSpec spec);

  /// Canary rollout (Knative traffic splitting): brings the new revision
  /// up but only routes `fraction` of requests to it once ready; the rest
  /// stay on the current revision. Finish with promote_canary() (full
  /// switch) or rollback_canary() (discard the new revision).
  void update_service_canary(KnServiceSpec spec, double fraction);
  void promote_canary(const std::string& service);
  void rollback_canary(const std::string& service);
  /// Current canary fraction (0 when no canary is active).
  [[nodiscard]] double canary_fraction(const std::string& service) const;

  void delete_service(const std::string& name);
  [[nodiscard]] bool has_service(const std::string& name) const {
    return revisions_.contains(name);
  }

  /// Name of the currently routed revision (e.g. "fn-matmul-00002").
  [[nodiscard]] std::string active_revision(const std::string& service) const;

  [[nodiscard]] net::NodeId gateway_net_id() const {
    return gateway_.net_id();
  }

  [[nodiscard]] k8s::KubeCluster& kube() { return kube_; }

  /// Convenience client call: POSTs to the service through the gateway.
  void invoke(net::NodeId client, const std::string& service,
              net::HttpRequest req,
              std::function<void(net::HttpResponse)> on_response);

  void set_load_balancing(LoadBalancingPolicy policy) {
    lb_policy_ = policy;
  }
  [[nodiscard]] LoadBalancingPolicy load_balancing() const {
    return lb_policy_;
  }

  // ---- Introspection (benches, tests) --------------------------------

  [[nodiscard]] int ready_replicas(const std::string& service) const;
  [[nodiscard]] int desired_replicas(const std::string& service) const;
  /// Requests that had to wait in the activator (cold starts).
  [[nodiscard]] std::uint64_t cold_start_requests(
      const std::string& service) const;
  [[nodiscard]] std::uint64_t requests_routed(
      const std::string& service) const;
  /// Router re-route attempts (502/503/504 responses retried) — how often
  /// requests raced dead pods, drains, or queue-proxy deadlines.
  [[nodiscard]] std::uint64_t route_retries(const std::string& service) const;
  /// Same, but per revision (rollouts split the count): retries counted
  /// while `revision` was the routed revision name. Unknown → 0.
  [[nodiscard]] std::uint64_t route_retries_for_revision(
      const std::string& service, const std::string& revision) const;

  /// Machine-readable breakdown of failures the router observed (from
  /// the x-sf-reason tag + status), distinguishing overload from outage.
  struct RouteFailureBreakdown {
    std::uint64_t timeout = 0;       ///< queue-proxy deadline 504s
    std::uint64_t backend_down = 0;  ///< 502 connection refused
    std::uint64_t draining = 0;      ///< 503 from a draining pod
    std::uint64_t rejected = 0;      ///< 429 admission rejections
    std::uint64_t unresponsive = 0;  ///< router per-attempt deadline
  };
  [[nodiscard]] RouteFailureBreakdown route_failures(
      const std::string& service) const;

  // ---- Resilience introspection (outlier ejection / admission) -------

  [[nodiscard]] std::uint64_t ejections(const std::string& service) const;
  [[nodiscard]] std::uint64_t readmissions(const std::string& service) const;
  [[nodiscard]] std::vector<std::string> ejected_backends(
      const std::string& service);
  /// Rolling latency percentile the router observes for one backend.
  [[nodiscard]] double backend_latency_p(const std::string& service,
                                         const std::string& pod, double p);
  [[nodiscard]] std::uint64_t admission_rejections(
      const std::string& service) const;
  /// Peak queue depth across the service's backends (admission-control
  /// payoff metric: bounded when the bucket is on).
  [[nodiscard]] std::size_t peak_backend_queue(
      const std::string& service) const;

  /// Snapshot for the sf::check invariants.
  struct OutlierSnapshot {
    bool enabled = false;
    std::size_t hosts = 0;
    std::size_t ejected = 0;
    std::size_t allowance = 0;  ///< max_ejection_percent cap (>= 1)
  };
  [[nodiscard]] OutlierSnapshot outlier_snapshot(
      const std::string& service) const;
  /// Endpoint picks that consulted the ejection filter (all services).
  [[nodiscard]] std::uint64_t outlier_guarded_picks() const {
    return outlier_guarded_picks_;
  }
  /// Picks that landed on an ejected backend despite a healthy
  /// alternative — must stay 0 (asserted by the invariant registry).
  /// Panic picks (every backend ejected) are counted separately.
  [[nodiscard]] std::uint64_t outlier_misrouted() const {
    return outlier_misrouted_;
  }

  /// Serving-owned flat stats store: per-(revision, pod) latency
  /// histograms and outcome counters recorded by the queue-proxies.
  [[nodiscard]] stats::StatsStore& stats() { return stats_; }

  /// Bench hook: runs the router's endpoint selection (including the
  /// ejection filter) for the active revision without forwarding;
  /// advances the RR cursor exactly as a real request would. nullptr
  /// when the service has no ready endpoints.
  [[nodiscard]] const k8s::Endpoint* pick_backend_for_bench(
      const std::string& service);

  /// Names of the registered services, in name order — lets the
  /// invariant registry enumerate services without reaching into the
  /// revision map.
  [[nodiscard]] std::vector<std::string> service_names() const;
  /// Scaling annotations of the active revision; nullptr when unknown.
  [[nodiscard]] const Annotations* service_annotations(
      const std::string& service) const;

 private:
  struct Revision {
    KnServiceSpec spec;  ///< spec of the active revision (handler!)
    std::string rev_name;  ///< its Deployment is rev_name + "-deployment"
    KpaScaler kpa{KpaScaler::Config{}};
    int current_desired = 0;
    bool ticking = false;
    std::map<std::string, std::unique_ptr<QueueProxy>> proxies;
    std::deque<std::pair<net::HttpRequest, net::Responder>> activator;
    std::size_t rr_cursor = 0;
    std::uint64_t cold_starts = 0;
    std::uint64_t requests = 0;
    std::uint64_t retries = 0;  ///< router re-route attempts
    /// Per-revision split of `retries`, keyed by revision name (the
    /// service-level counter alone can't attribute a bad rollout).
    std::map<std::string, std::uint64_t> retries_by_revision;
    RouteFailureBreakdown failures;
    /// Passive outlier detector over this service's backends; null when
    /// the annotation is off (zero overhead, zero behavior change).
    std::unique_ptr<OutlierDetector> detector;
    TokenBucket admission;
    std::uint64_t admission_rejections = 0;
    int generation = 1;
    /// Rollout in flight (update_service): the next revision's name and
    /// spec; traffic switches once it has ready pods.
    std::string pending_rev;
    KnServiceSpec pending_spec;
    /// -1 = automatic blue/green switch; [0,1] = held canary split.
    double canary_fraction = -1;
    /// Set by pick_endpoint when every backend was ejected and the pick
    /// fell through to panic routing (Envoy's panic threshold behavior).
    bool last_pick_panic = false;
  };

  /// One routed attempt in flight, from forward() until its response or
  /// its deadline settles it; whichever comes second finds the id gone.
  struct Attempt {
    std::string service;
    std::string pod;
    double started_at = 0;
    int attempt = 0;
    net::HttpRequest req;
    net::Responder respond;
    sim::EventId deadline = sim::kNoEvent;  ///< router deadline, if set
  };
  using AttemptId = sim::SlotTable<Attempt>::Id;

  [[nodiscard]] Revision* find_service(const std::string& service);
  [[nodiscard]] const Revision* find_service(const std::string& service) const;
  /// The service record that owns revision `rev_name` (active or pending).
  [[nodiscard]] Revision* find_revision(const std::string& rev_name);

  void route(const std::string& service, const net::HttpRequest& req,
             net::Responder respond, int attempt);
  [[nodiscard]] const k8s::Endpoint& pick_endpoint(Revision& rev,
                                                   const k8s::Endpoints& eps);
  void forward(Revision& rev, const k8s::Endpoint& ep,
               const net::HttpRequest& req, net::Responder respond,
               int attempt);
  /// Settles attempt `id` with `resp`: classify the outcome, feed the
  /// outlier detector, retry when retryable, else respond.
  void on_attempt_response(AttemptId id, net::HttpResponse resp);
  /// Counts a retry of `rev` and routes the request again `delay_s` later.
  void retry(Revision& rev, net::HttpRequest req, net::Responder respond,
             int attempt, double delay_s);
  /// Admission gate; true = proceed. On false the request was already
  /// answered (429) or scheduled for a jittered retry.
  bool admit(Revision& rev, const net::HttpRequest& req,
             net::Responder& respond, int attempt);
  void configure_resilience(Revision& rev);
  void flush_activator(Revision& rev);
  void finalize_rollout(Revision& rev);
  void start_rollout(KnServiceSpec spec, double canary_fraction);
  static std::string revision_name(const std::string& service,
                                   int generation);
  void deploy_revision(const std::string& service,
                       const std::string& rev_name,
                       const KnServiceSpec& spec, int replicas);
  void apply_scale(Revision& rev, int desired);
  void ensure_ticking(Revision& rev);
  void tick(const std::string& service);
  [[nodiscard]] double scrape(const Revision& rev) const;
  void on_pod_event(k8s::EventType type, const k8s::Pod& pod);
  void attach_proxy(Revision& rev, const k8s::Pod& pod);
  /// Moves a revision's proxies into retiring_ and destroys each only
  /// once it has drained: abrupt teardown (delete_service) must not free
  /// a proxy while handlers still hold its responders / FunctionContext.
  void retire_proxies(Revision& rev);

  k8s::KubeCluster& kube_;
  cluster::Node& gateway_;
  LoadBalancingPolicy lb_policy_ = LoadBalancingPolicy::kRoundRobin;
  std::map<std::string, Revision> revisions_;  // keyed by service name
  std::map<std::string, std::string> revision_to_service_;
  /// Proxies of deleted services, parked until their in-flight requests
  /// complete (see retire_proxies).
  std::vector<std::unique_ptr<QueueProxy>> retiring_;
  /// Flat per-(revision, pod) request stats; scopes/names are interned
  /// through the simulation's interner. Populated only for services with
  /// outlier detection, admission, or a route timeout configured.
  stats::StatsStore stats_;
  /// Routed attempts in flight; the response and the router deadline
  /// refer to their attempt by id.
  sim::SlotTable<Attempt> attempts_;
  std::uint64_t outlier_guarded_picks_ = 0;
  std::uint64_t outlier_misrouted_ = 0;
};

}  // namespace sf::knative
