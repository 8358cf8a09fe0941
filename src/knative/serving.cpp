#include "knative/serving.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "fault/retry.hpp"

namespace sf::knative {

namespace {
constexpr double kAutoscalerTick = 2.0;  ///< KPA evaluation period, seconds
constexpr int kMaxRouteAttempts = 3;
/// Admission (429) retries: 50 ms doubling, uncapped within the route
/// attempt budget, ±50% engine-RNG jitter to spread synchronized bursts.
constexpr fault::RetryPolicy kAdmitRetry{
    /*max_attempts=*/kMaxRouteAttempts, /*base_s=*/0.05,
    /*cap_s=*/fault::RetryPolicy::kNoCap, /*multiplier=*/2.0,
    /*jitter_ratio=*/0.5};
/// In-flight (connection-refused / 503 / 504) retries: fixed 50 ms —
/// the backend set has already changed, nothing to spread.
constexpr fault::RetryPolicy kRouteRetry = fault::RetryPolicy::constant(0.05);
const std::string kRevisionLabel = "serving.knative.dev/revision";
}  // namespace

KnativeServing::KnativeServing(k8s::KubeCluster& kube, cluster::Node& gateway)
    : kube_(kube), gateway_(gateway) {
  // Ingress gateway: route by Host header.
  kube_.cluster().http().listen(
      gateway_.net_id(), kGatewayPort,
      [this](const net::HttpRequest& req, net::Responder respond) {
        auto it = req.headers.find("Host");
        if (it == req.headers.end() || !revisions_.contains(it->second)) {
          net::HttpResponse resp;
          resp.status = 404;
          respond(std::move(resp));
          return;
        }
        route(it->second, req, std::move(respond), /*attempt=*/1);
      });

  kube_.api().watch_pods([this](k8s::EventType type, const k8s::Pod& pod) {
    on_pod_event(type, pod);
  });

  // Endpoint events drive two things: flushing the activator buffer when
  // the active revision gains ready pods, and completing a rollout when
  // the pending revision does.
  kube_.api().watch_endpoints(
      [this](k8s::EventType, const k8s::Endpoints& eps) {
        if (eps.ready.empty()) return;
        Revision* rev = find_revision(eps.service_name);
        if (rev == nullptr) return;
        if (eps.service_name == rev->pending_rev &&
            rev->canary_fraction < 0) {
          finalize_rollout(*rev);  // automatic blue/green switch
        }
        if (eps.service_name == rev->rev_name) {
          flush_activator(*rev);
        }
      });
}

KnativeServing::Revision* KnativeServing::find_service(
    const std::string& service) {
  auto it = revisions_.find(service);
  return it == revisions_.end() ? nullptr : &it->second;
}

const KnativeServing::Revision* KnativeServing::find_service(
    const std::string& service) const {
  return const_cast<KnativeServing*>(this)->find_service(service);
}

KnativeServing::Revision* KnativeServing::find_revision(
    const std::string& rev_name) {
  auto it = revision_to_service_.find(rev_name);
  return it == revision_to_service_.end() ? nullptr : find_service(it->second);
}

namespace {

KpaScaler::Config kpa_config_from(const Annotations& a) {
  KpaScaler::Config config;
  config.target_concurrency = a.target_concurrency;
  config.min_scale = a.min_scale;
  config.max_scale = a.max_scale;
  config.stable_window_s = a.stable_window_s;
  config.panic_window_s = a.panic_window_s;
  config.scale_to_zero_grace_s = a.scale_to_zero_grace_s;
  return config;
}

int initial_replicas(const Annotations& a) {
  return a.initial_scale >= 0 ? std::max(a.initial_scale, a.min_scale)
                              : std::max(1, a.min_scale);
}

/// The k8s Deployment that runs a revision's pods.
std::string deployment_name(const std::string& rev_name) {
  return rev_name + "-deployment";
}

}  // namespace

std::string KnativeServing::revision_name(const std::string& service,
                                          int generation) {
  char suffix[sizeof("--2147483648")];  // fits "-" and any int
  std::snprintf(suffix, sizeof(suffix), "-%05d", generation);
  return service + suffix;
}

void KnativeServing::deploy_revision(const std::string& service,
                                     const std::string& rev_name,
                                     const KnServiceSpec& spec,
                                     int replicas) {
  k8s::Deployment dep;
  dep.name = deployment_name(rev_name);
  dep.selector = {{kRevisionLabel, rev_name}};
  dep.pod_labels = {{kRevisionLabel, rev_name}};
  dep.pod_template = spec.container;
  dep.cpu_request = spec.cpu_request;
  dep.memory_request = spec.container.memory_bytes;
  dep.replicas = replicas;

  k8s::Service svc;
  svc.name = rev_name;  // per-revision endpoints
  svc.selector = {{kRevisionLabel, rev_name}};

  revision_to_service_[rev_name] = service;
  kube_.api().create_service(std::move(svc));
  kube_.api().apply_deployment(std::move(dep));
}

void KnativeServing::create_service(KnServiceSpec spec) {
  if (revisions_.contains(spec.name)) {
    throw std::invalid_argument("KnativeServing: service exists: " +
                                spec.name);
  }
  Revision rev;
  rev.spec = spec;
  rev.generation = 1;
  rev.rev_name = revision_name(spec.name, 1);
  rev.kpa = KpaScaler(kpa_config_from(spec.annotations));
  rev.current_desired = initial_replicas(spec.annotations);

  const int initial = rev.current_desired;
  const std::string rev_name = rev.rev_name;
  auto [it, _] = revisions_.emplace(spec.name, std::move(rev));
  configure_resilience(it->second);
  deploy_revision(spec.name, rev_name, spec, initial);
  ensure_ticking(it->second);
}

void KnativeServing::configure_resilience(Revision& rev) {
  const Annotations& a = rev.spec.annotations;
  rev.detector = a.outlier.enabled
                     ? std::make_unique<OutlierDetector>(a.outlier)
                     : nullptr;
  rev.admission = TokenBucket{};
  if (a.admission.fill_rate_hz > 0) {
    rev.admission.configure(a.admission, kube_.cluster().sim().now());
  }
}

void KnativeServing::update_service(KnServiceSpec spec) {
  start_rollout(std::move(spec), /*canary_fraction=*/-1);
}

void KnativeServing::update_service_canary(KnServiceSpec spec,
                                           double fraction) {
  if (fraction < 0 || fraction > 1) {
    throw std::invalid_argument(
        "KnativeServing: canary fraction must be in [0, 1]");
  }
  start_rollout(std::move(spec), fraction);
}

void KnativeServing::start_rollout(KnServiceSpec spec,
                                   double canary_fraction) {
  Revision* found = find_service(spec.name);
  if (found == nullptr) {
    throw std::invalid_argument("KnativeServing: unknown service: " +
                                spec.name);
  }
  Revision& rev = *found;
  if (!rev.pending_rev.empty()) {
    throw std::logic_error("KnativeServing: rollout already in flight for " +
                           spec.name);
  }
  rev.pending_rev = revision_name(spec.name, rev.generation + 1);
  rev.pending_spec = spec;
  rev.canary_fraction = canary_fraction;
  // The new revision warms at least one pod before taking traffic, unless
  // the service allows scale-to-zero with nothing warm.
  const int initial = std::max(initial_replicas(spec.annotations),
                               spec.annotations.min_scale > 0 ? 1 : 0);
  kube_.cluster().sim().trace().record(
      kube_.cluster().sim().now(), "knative", "rollout_start",
      {{"service", spec.name}, {"revision", rev.pending_rev}});
  deploy_revision(spec.name, rev.pending_rev, spec, std::max(initial, 1));
  // With min-scale 0 the pending revision still brings up one pod to
  // validate, then the autoscaler may take it to zero after the switch.
}

void KnativeServing::finalize_rollout(Revision& rev) {
  if (rev.pending_rev.empty()) return;
  const std::string old_rev = rev.rev_name;
  kube_.cluster().sim().trace().record(
      kube_.cluster().sim().now(), "knative", "rollout_switch",
      {{"service", rev.spec.name}, {"revision", rev.pending_rev}});
  rev.rev_name = rev.pending_rev;
  rev.spec = rev.pending_spec;
  ++rev.generation;
  rev.kpa = KpaScaler(kpa_config_from(rev.spec.annotations));
  const k8s::Deployment* dep =
      kube_.api().get_deployment(deployment_name(rev.rev_name));
  rev.current_desired = dep == nullptr ? 1 : dep->replicas;
  rev.pending_rev.clear();
  rev.canary_fraction = -1;
  // The new revision gets a fresh detector/bucket: ejection history of
  // the old backend set must not leak across the switch.
  configure_resilience(rev);
  // Old revision drains: deleting its deployment terminates the pods,
  // whose pre-stop hooks let in-flight requests finish. Its per-revision
  // k8s service goes with it.
  kube_.api().delete_deployment(deployment_name(old_rev));
  kube_.api().delete_service(old_rev);
  flush_activator(rev);
  ensure_ticking(rev);
}

std::string KnativeServing::active_revision(
    const std::string& service) const {
  const Revision* rev = find_service(service);
  return rev == nullptr ? std::string{} : rev->rev_name;
}

void KnativeServing::delete_service(const std::string& name) {
  Revision* found = find_service(name);
  if (found == nullptr) return;
  Revision& rev = *found;
  for (auto& [req, respond] : rev.activator) {
    net::HttpResponse resp;
    resp.status = net::kStatusServiceUnavailable;
    respond(std::move(resp));
  }
  rev.activator.clear();
  retire_proxies(rev);
  kube_.api().delete_deployment(deployment_name(rev.rev_name));
  kube_.api().delete_service(rev.rev_name);
  if (!rev.pending_rev.empty()) {
    kube_.api().delete_deployment(deployment_name(rev.pending_rev));
    kube_.api().delete_service(rev.pending_rev);
    revision_to_service_.erase(rev.pending_rev);
  }
  revision_to_service_.erase(rev.rev_name);
  revisions_.erase(name);
}

void KnativeServing::retire_proxies(Revision& rev) {
  for (auto& [pod_name, proxy] : rev.proxies) {
    QueueProxy* raw = proxy.get();
    retiring_.push_back(std::move(proxy));
    raw->drain([this, raw] {
      // Defer: drain can complete from inside a proxy member frame, and
      // a proxy must not be destroyed under its own feet.
      kube_.cluster().sim().call_in(0, [this, raw] {
        std::erase_if(retiring_,
                      [raw](const std::unique_ptr<QueueProxy>& p) {
                        return p.get() == raw;
                      });
      });
    });
  }
  rev.proxies.clear();
}

void KnativeServing::invoke(net::NodeId client, const std::string& service,
                            net::HttpRequest req,
                            std::function<void(net::HttpResponse)> on_response) {
  req.headers["Host"] = service;
  kube_.cluster().http().request(client, gateway_.net_id(), kGatewayPort,
                                 std::move(req), std::move(on_response));
}

// ---- Routing -----------------------------------------------------------

void KnativeServing::route(const std::string& service,
                           const net::HttpRequest& req, net::Responder respond,
                           int attempt) {
  Revision* found = find_service(service);
  if (found == nullptr) {
    net::HttpResponse resp;
    resp.status = 404;
    respond(std::move(resp));
    return;
  }
  Revision& rev = *found;
  if (attempt == 1) ++rev.requests;
  // Admission control sits in front of BOTH the endpoint path and the
  // activator buffer: under overload the router answers fast instead of
  // queueing unboundedly.
  if (!admit(rev, req, respond, attempt)) return;

  auto& sim = kube_.cluster().sim();
  const k8s::Endpoints* eps = kube_.api().get_endpoints(rev.rev_name);
  if (eps == nullptr || eps->ready.empty()) {
    // Activator path: buffer, count the cold start, poke the autoscaler.
    ++rev.cold_starts;
    rev.activator.emplace_back(req, std::move(respond));
    sim.trace().record(sim.now(), "knative", "activator_buffer",
                       {{"service", service}});
    if (rev.current_desired == 0) {
      apply_scale(rev, rev.kpa.scale_from_zero_target());
    }
    ensure_ticking(rev);
    return;
  }
  // Canary split: a fraction of requests goes to the pending revision
  // once it has ready pods.
  if (!rev.pending_rev.empty() && rev.canary_fraction > 0) {
    const k8s::Endpoints* canary_eps =
        kube_.api().get_endpoints(rev.pending_rev);
    if (canary_eps != nullptr && !canary_eps->ready.empty() &&
        sim.rng().chance(rev.canary_fraction)) {
      eps = canary_eps;
    }
  }
  const k8s::Endpoint& ep = pick_endpoint(rev, *eps);
  ensure_ticking(rev);
  forward(rev, ep, req, std::move(respond), attempt);
}

bool KnativeServing::admit(Revision& rev, const net::HttpRequest& req,
                           net::Responder& respond, int attempt) {
  if (!rev.admission.enabled()) return true;
  auto& sim = kube_.cluster().sim();
  if (rev.admission.try_take(sim.now())) return true;
  ++rev.admission_rejections;
  ++rev.failures.rejected;
  if (attempt < kMaxRouteAttempts) {
    // Retry after a jittered exponential backoff — the jitter draws from
    // the simulation RNG, so it spreads retries without breaking
    // seed-purity (and is drawn only when admission is enabled).
    retry(rev, req, std::move(respond), attempt,
          kAdmitRetry.backoff_jittered(attempt, sim.rng()));
    return false;
  }
  net::HttpResponse resp;
  resp.status = net::kStatusTooManyRequests;
  resp.headers[net::kReasonHeader] = "rejected";
  respond(std::move(resp));
  return false;
}

void KnativeServing::retry(Revision& rev, net::HttpRequest req,
                           net::Responder respond, int attempt,
                           double delay_s) {
  ++rev.retries;
  ++rev.retries_by_revision[rev.rev_name];
  kube_.cluster().sim().call_in(
      delay_s, [this, service = rev.spec.name, req = std::move(req),
                respond = std::move(respond), attempt]() mutable {
        route(service, req, std::move(respond), attempt + 1);
      });
}

void KnativeServing::promote_canary(const std::string& service) {
  Revision* rev = find_service(service);
  if (rev == nullptr || rev->pending_rev.empty()) {
    throw std::logic_error("KnativeServing: no canary to promote for " +
                           service);
  }
  finalize_rollout(*rev);
}

void KnativeServing::rollback_canary(const std::string& service) {
  Revision* found = find_service(service);
  if (found == nullptr || found->pending_rev.empty()) {
    throw std::logic_error("KnativeServing: no canary to roll back for " +
                           service);
  }
  Revision& rev = *found;
  kube_.cluster().sim().trace().record(
      kube_.cluster().sim().now(), "knative", "rollout_rollback",
      {{"service", service}, {"revision", rev.pending_rev}});
  kube_.api().delete_deployment(deployment_name(rev.pending_rev));
  kube_.api().delete_service(rev.pending_rev);
  // The rolled-back revision number is burned (Knative never reuses one).
  ++rev.generation;
  rev.pending_rev.clear();
  rev.canary_fraction = -1;
}

double KnativeServing::canary_fraction(const std::string& service) const {
  const Revision* rev = find_service(service);
  if (rev == nullptr || rev->pending_rev.empty()) return 0;
  return std::max(0.0, rev->canary_fraction);
}

const k8s::Endpoint& KnativeServing::pick_endpoint(Revision& rev,
                                                   const k8s::Endpoints& eps) {
  OutlierDetector* det = rev.detector.get();
  const double now = kube_.cluster().sim().now();
  rev.last_pick_panic = false;
  if (det != nullptr) ++outlier_guarded_picks_;
  if (lb_policy_ == LoadBalancingPolicy::kLeastLoaded) {
    const k8s::Endpoint* best = nullptr;
    double best_load = 0;
    for (const auto& ep : eps.ready) {
      if (det != nullptr && det->ejected(ep.pod_name, now)) continue;
      auto it = rev.proxies.find(ep.pod_name);
      const double load = it == rev.proxies.end()
                              ? 0.0
                              : it->second->concurrency();
      if (best == nullptr || load < best_load) {
        best = &ep;
        best_load = load;
      }
    }
    if (best != nullptr) return *best;
    // Every backend ejected: fall through to panic routing below.
  }
  // Round-robin from the cursor, skipping ejected backends. Without a
  // detector the first candidate is always taken.
  const std::size_t n = eps.ready.size();
  for (std::size_t k = 0; k < n; ++k) {
    const k8s::Endpoint& ep = eps.ready[(rev.rr_cursor + k) % n];
    if (det != nullptr && det->ejected(ep.pod_name, now)) continue;
    rev.rr_cursor += k + 1;
    return ep;
  }
  // Panic routing (Envoy's panic threshold, pinned at 100%): every
  // backend is ejected, so serving *something* beats failing fast —
  // route as if no detector existed rather than blackholing.
  det->note_panic_pick();
  rev.last_pick_panic = true;
  const k8s::Endpoint& ep = eps.ready[rev.rr_cursor % n];
  ++rev.rr_cursor;
  return ep;
}

void KnativeServing::forward(Revision& rev, const k8s::Endpoint& ep,
                             const net::HttpRequest& req,
                             net::Responder respond, int attempt) {
  auto& sim = kube_.cluster().sim();
  const double t0 = sim.now();
  // Tripwire behind the "ejected backends receive no traffic" invariant:
  // a non-panic pick must never land on an ejected host.
  if (rev.detector != nullptr && !rev.last_pick_panic &&
      rev.detector->ejected(ep.pod_name, t0)) {
    ++outlier_misrouted_;
  }
  const AttemptId id = attempts_.insert(
      Attempt{rev.spec.name, ep.pod_name, t0, attempt, req,
              std::move(respond)});
  // Router-side per-attempt deadline (Envoy's upstream request timeout).
  // The queue-proxy deadline stops covering a request once the handler
  // responds — if the *reply* never arrives (one-way partition, NIC
  // stall) only this timer notices: it answers 504 "unresponsive", feeds
  // the outlier detector, and retries another backend. The late reply
  // then finds its attempt gone and is discarded.
  if (const double timeout = rev.spec.annotations.route_timeout_s;
      timeout > 0) {
    attempts_[id].deadline = sim.call_in(timeout, [this, id] {
      attempts_[id].deadline = sim::kNoEvent;  // firing: nothing to cancel
      net::HttpResponse resp;
      resp.status = net::kStatusGatewayTimeout;
      resp.headers[net::kReasonHeader] = "unresponsive";
      on_attempt_response(id, std::move(resp));
    });
  }
  // Second network hop: gateway → pod (the payload is paid again, which is
  // exactly the ingress-proxy cost a real Knative data path has).
  kube_.cluster().http().request(
      gateway_.net_id(), ep.net_id, ep.port, req,
      [this, id](net::HttpResponse resp) {
        on_attempt_response(id, std::move(resp));
      });
}

void KnativeServing::on_attempt_response(AttemptId id,
                                         net::HttpResponse resp) {
  if (!attempts_.live(id)) return;  // the deadline answered it first
  Attempt a = attempts_.take(id);
  auto& sim = kube_.cluster().sim();
  if (a.deadline != sim::kNoEvent) sim.cancel(a.deadline);
  Revision* found = find_service(a.service);
  if (found == nullptr) {
    a.respond(std::move(resp));
    return;
  }
  Revision& rev = *found;
  const double now = sim.now();
  if (rev.detector != nullptr) {
    const std::uint64_t before = rev.detector->total_ejections();
    rev.detector->on_response(a.pod, resp.status, now - a.started_at, now);
    if (rev.detector->total_ejections() != before) {
      sim.trace().record(now, "knative", "outlier_eject",
                         {{"service", a.service}, {"pod", a.pod}});
    }
  }
  if (resp.status >= 500) {
    // Machine-readable failure taxonomy: reason tag first, status as the
    // fallback (502s are refused connections — no one tagged them).
    const auto reason = resp.headers.find(net::kReasonHeader);
    if (reason != resp.headers.end() && reason->second == "unresponsive") {
      ++rev.failures.unresponsive;
    } else if (resp.status == net::kStatusGatewayTimeout) {
      ++rev.failures.timeout;
    } else if (resp.status == net::kStatusServiceUnavailable) {
      ++rev.failures.draining;
    } else if (resp.status == net::kStatusConnectionRefused) {
      ++rev.failures.backend_down;
    }
  }
  const bool retryable = resp.status == net::kStatusConnectionRefused ||
                         resp.status == net::kStatusServiceUnavailable ||
                         resp.status == net::kStatusGatewayTimeout;
  if (retryable && a.attempt < kMaxRouteAttempts) {
    // Endpoint vanished mid-flight (drain/scale-down), the queue-proxy
    // timed the request out, or the reply never arrived; retry — at zero
    // scale the route lands in the activator and waits for a cold start.
    retry(rev, std::move(a.req), std::move(a.respond), a.attempt,
          kRouteRetry.backoff_s(a.attempt));
    return;
  }
  a.respond(std::move(resp));
}

void KnativeServing::flush_activator(Revision& rev) {
  while (!rev.activator.empty()) {
    const k8s::Endpoints* eps = kube_.api().get_endpoints(rev.rev_name);
    if (eps == nullptr || eps->ready.empty()) return;
    auto [req, respond] = std::move(rev.activator.front());
    rev.activator.pop_front();
    const k8s::Endpoint ep = pick_endpoint(rev, *eps);
    forward(rev, ep, req, std::move(respond), /*attempt=*/1);
  }
}

// ---- Autoscaling --------------------------------------------------------

double KnativeServing::scrape(const Revision& rev) const {
  double total = static_cast<double>(rev.activator.size());
  for (const auto& [pod, proxy] : rev.proxies) total += proxy->concurrency();
  return total;
}

void KnativeServing::apply_scale(Revision& rev, int desired) {
  if (desired == rev.current_desired) return;
  kube_.cluster().sim().trace().record(
      kube_.cluster().sim().now(), "knative", "scale",
      {{"service", rev.spec.name},
       {"from", std::to_string(rev.current_desired)},
       {"to", std::to_string(desired)}});
  rev.current_desired = desired;
  kube_.api().set_deployment_replicas(deployment_name(rev.rev_name), desired);
}

void KnativeServing::ensure_ticking(Revision& rev) {
  if (rev.ticking) return;
  rev.ticking = true;
  kube_.cluster().sim().call_in(
      kAutoscalerTick, [this, service = rev.spec.name] { tick(service); });
}

void KnativeServing::tick(const std::string& service) {
  Revision* found = find_service(service);
  if (found == nullptr) return;
  Revision& rev = *found;
  rev.ticking = false;
  const double conc = scrape(rev);
  const auto decision = rev.kpa.observe(kube_.cluster().sim().now(), conc,
                                        rev.current_desired);
  apply_scale(rev, decision.desired);
  if (decision.work_pending) ensure_ticking(rev);
}

// ---- Pod lifecycle -------------------------------------------------------

void KnativeServing::on_pod_event(k8s::EventType type, const k8s::Pod& pod) {
  auto lbl = pod.labels.find(kRevisionLabel);
  if (lbl == pod.labels.end()) return;
  Revision* found = find_revision(lbl->second);
  if (found == nullptr) return;
  Revision& rev = *found;

  switch (type) {
    case k8s::EventType::kAdded:
      break;
    case k8s::EventType::kModified:
      if (pod.ready && pod.phase == k8s::PodPhase::kRunning &&
          !rev.proxies.contains(pod.name)) {
        attach_proxy(rev, pod);
      }
      break;
    case k8s::EventType::kDeleted:
      rev.proxies.erase(pod.name);
      if (rev.detector != nullptr) rev.detector->remove_host(pod.name);
      break;
  }
}

void KnativeServing::attach_proxy(Revision& rev, const k8s::Pod& pod) {
  FunctionContext ctx;
  ctx.sim = &kube_.cluster().sim();
  ctx.node = pod.host_net_id;
  ctx.pod_name = pod.name;
  ctx.exec = [this, pod_name = pod.name](double work,
                                         std::function<void(bool)> done) {
    kube_.exec_in_pod(pod_name, work, std::move(done));
  };

  // During a rollout, pods of the pending revision serve its (new) spec.
  auto lbl = pod.labels.find(kRevisionLabel);
  const bool is_pending = lbl != pod.labels.end() &&
                          !rev.pending_rev.empty() &&
                          lbl->second == rev.pending_rev;
  const KnServiceSpec& pod_spec = is_pending ? rev.pending_spec : rev.spec;

  auto proxy = std::make_unique<QueueProxy>(
      kube_.cluster().sim(), kube_.cluster().http(), std::move(ctx),
      pod_spec.handler, pod_spec.annotations.container_concurrency,
      pod_spec.annotations.request_timeout_s);
  proxy->install(pod.port);
  rev.proxies.emplace(pod.name, std::move(proxy));
  // Per-(revision, pod, node) request stats, recorded by the queue-proxy
  // into the serving-owned flat store. Only wired for services with a
  // resilience feature on — everyone else pays literally nothing.
  const Annotations& ann = pod_spec.annotations;
  if (ann.outlier.enabled || ann.admission.fill_rate_hz > 0 ||
      ann.route_timeout_s > 0) {
    auto& ids = kube_.cluster().sim().ids();
    const std::string rev_name = is_pending ? rev.pending_rev : rev.rev_name;
    const sim::ObjectId scope = ids.intern(
        rev_name + "/" + pod.name + "@" + std::to_string(pod.host_net_id));
    ProxyStatsSink sink;
    sink.store = &stats_;
    sink.latency = stats_.histogram(scope, ids.intern("latency"));
    sink.ok = stats_.counter(scope, ids.intern("ok"));
    sink.err = stats_.counter(scope, ids.intern("5xx"));
    sink.timeout = stats_.counter(scope, ids.intern("timeout"));
    rev.proxies.at(pod.name)->set_stats(sink);
  }

  // Graceful drain before the kubelet tears the pod down.
  const std::string service = rev.spec.name;
  kube_.api().mutate_pod(pod.name, [this, service,
                                    pod_name = pod.name](k8s::Pod& p) {
    p.pre_stop = [this, service, pod_name](std::function<void()> done) {
      Revision* owner = find_service(service);
      if (owner == nullptr || !owner->proxies.contains(pod_name)) {
        done();
        return;
      }
      owner->proxies.at(pod_name)->drain(std::move(done));
    };
  });
}

// ---- Introspection -------------------------------------------------------

int KnativeServing::ready_replicas(const std::string& service) const {
  const Revision* rev = find_service(service);
  if (rev == nullptr) return 0;
  const k8s::Endpoints* eps = kube_.api().get_endpoints(rev->rev_name);
  return eps == nullptr ? 0 : static_cast<int>(eps->ready.size());
}

int KnativeServing::desired_replicas(const std::string& service) const {
  const Revision* rev = find_service(service);
  return rev == nullptr ? 0 : rev->current_desired;
}

std::uint64_t KnativeServing::cold_start_requests(
    const std::string& service) const {
  const Revision* rev = find_service(service);
  return rev == nullptr ? 0 : rev->cold_starts;
}

std::uint64_t KnativeServing::requests_routed(
    const std::string& service) const {
  const Revision* rev = find_service(service);
  return rev == nullptr ? 0 : rev->requests;
}

std::vector<std::string> KnativeServing::service_names() const {
  std::vector<std::string> out;
  out.reserve(revisions_.size());
  for (const auto& [name, rev] : revisions_) out.push_back(name);
  return out;
}

const Annotations* KnativeServing::service_annotations(
    const std::string& service) const {
  const Revision* rev = find_service(service);
  return rev == nullptr ? nullptr : &rev->spec.annotations;
}

std::uint64_t KnativeServing::route_retries(
    const std::string& service) const {
  const Revision* rev = find_service(service);
  return rev == nullptr ? 0 : rev->retries;
}

std::uint64_t KnativeServing::route_retries_for_revision(
    const std::string& service, const std::string& revision) const {
  const Revision* rev = find_service(service);
  if (rev == nullptr) return 0;
  auto r = rev->retries_by_revision.find(revision);
  return r == rev->retries_by_revision.end() ? 0 : r->second;
}

KnativeServing::RouteFailureBreakdown KnativeServing::route_failures(
    const std::string& service) const {
  const Revision* rev = find_service(service);
  return rev == nullptr ? RouteFailureBreakdown{} : rev->failures;
}

std::uint64_t KnativeServing::ejections(const std::string& service) const {
  const Revision* rev = find_service(service);
  return rev == nullptr || rev->detector == nullptr
             ? 0
             : rev->detector->total_ejections();
}

std::uint64_t KnativeServing::readmissions(const std::string& service) const {
  const Revision* rev = find_service(service);
  return rev == nullptr || rev->detector == nullptr
             ? 0
             : rev->detector->total_readmissions();
}

std::vector<std::string> KnativeServing::ejected_backends(
    const std::string& service) {
  const Revision* rev = find_service(service);
  if (rev == nullptr || rev->detector == nullptr) return {};
  return rev->detector->ejected_backends();
}

double KnativeServing::backend_latency_p(const std::string& service,
                                         const std::string& pod, double p) {
  const Revision* rev = find_service(service);
  if (rev == nullptr || rev->detector == nullptr) return 0;
  return rev->detector->backend_latency_p(pod, p,
                                          kube_.cluster().sim().now());
}

std::uint64_t KnativeServing::admission_rejections(
    const std::string& service) const {
  const Revision* rev = find_service(service);
  return rev == nullptr ? 0 : rev->admission_rejections;
}

std::size_t KnativeServing::peak_backend_queue(
    const std::string& service) const {
  const Revision* rev = find_service(service);
  if (rev == nullptr) return 0;
  std::size_t peak = 0;
  for (const auto& [pod, proxy] : rev->proxies) {
    peak = std::max(peak, proxy->peak_queued());
  }
  return peak;
}

KnativeServing::OutlierSnapshot KnativeServing::outlier_snapshot(
    const std::string& service) const {
  const Revision* rev = find_service(service);
  if (rev == nullptr || rev->detector == nullptr) return {};
  const OutlierDetector& det = *rev->detector;
  return {/*enabled=*/true, det.host_count(), det.ejected_count(),
          det.ejection_allowance()};
}

const k8s::Endpoint* KnativeServing::pick_backend_for_bench(
    const std::string& service) {
  Revision* rev = find_service(service);
  if (rev == nullptr) return nullptr;
  const k8s::Endpoints* eps = kube_.api().get_endpoints(rev->rev_name);
  if (eps == nullptr || eps->ready.empty()) return nullptr;
  return &pick_endpoint(*rev, *eps);
}

}  // namespace sf::knative
