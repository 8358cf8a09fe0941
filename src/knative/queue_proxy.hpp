#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "metrics/stream_stats.hpp"
#include "net/http.hpp"
#include "sim/simulation.hpp"

namespace sf::knative {

/// Execution environment a function handler sees for one request.
struct FunctionContext {
  sim::Simulation* sim = nullptr;
  /// Node the pod runs on (functions use it for data-locality decisions
  /// and for talking to shared storage).
  net::NodeId node = 0;
  /// Pod backing this context (diagnostics).
  std::string pod_name;
  /// Runs `work` core-seconds inside the pod's container cgroup;
  /// `done(ok)` fires on completion (ok=false if the container died).
  std::function<void(double work, std::function<void(bool ok)> done)> exec;
};

/// User function: receives the request and must eventually respond.
/// Mirrors the paper's Flask HTTP event listener wrapping the task.
using FunctionHandler = std::function<void(
    const net::HttpRequest&, FunctionContext&, net::Responder)>;

/// Pre-resolved handles into the serving-owned stats store, one set per
/// (revision, backend pod). All raw pointers/handles stay valid for the
/// store's lifetime; recording through them allocates nothing.
struct ProxyStatsSink {
  stats::StatsStore* store = nullptr;
  stats::HistogramId latency;  ///< accept → response, seconds
  stats::CounterId ok;         ///< 2xx/4xx responses from the handler
  stats::CounterId err;        ///< 5xx responses from the handler
  stats::CounterId timeout;    ///< requests the deadline answered 504
  [[nodiscard]] bool enabled() const { return store != nullptr; }
};

/// Knative's per-pod sidecar: accepts requests on the pod's port,
/// enforces the revision's container-concurrency, queues the excess, and
/// reports observed concurrency (executing + queued) to the autoscaler.
/// On pod termination it drains: stops accepting, finishes in-flight
/// work, then releases the pod.
///
/// With a request timeout configured, each accepted request carries a
/// deadline: a queued request that expires is dropped and answered 504; an
/// executing one is answered 504 immediately and its handler's eventual
/// (late) response is discarded. The router retries on 504.
class QueueProxy {
 public:
  /// `container_concurrency` 0 = unlimited (Knative semantics);
  /// `request_timeout_s` 0 = no per-request deadline.
  QueueProxy(sim::Simulation& sim, net::HttpFabric& http,
             FunctionContext context, FunctionHandler handler,
             int container_concurrency, double request_timeout_s = 0);

  ~QueueProxy();
  QueueProxy(const QueueProxy&) = delete;
  QueueProxy& operator=(const QueueProxy&) = delete;

  /// Binds the proxy to its pod's (node, port).
  void install(net::Port port);

  /// Observed concurrency: executing plus queued (what KPA scrapes).
  [[nodiscard]] double concurrency() const {
    return static_cast<double>(static_cast<std::size_t>(executing_) +
                               queued_);
  }
  [[nodiscard]] int executing() const { return executing_; }
  [[nodiscard]] std::size_t queued() const { return queued_; }
  [[nodiscard]] std::uint64_t served() const { return served_; }
  [[nodiscard]] std::uint64_t timeouts() const { return timeouts_; }
  [[nodiscard]] std::size_t peak_queued() const { return peak_queued_; }
  [[nodiscard]] bool draining() const { return draining_; }

  /// Points per-request latency/outcome recording at the serving-owned
  /// stats store (scoped to this revision + pod). Optional: without a
  /// sink the proxy records nothing.
  void set_stats(ProxyStatsSink sink) { stats_ = sink; }

  /// Graceful shutdown (the pod's pre-stop hook): unbinds the listener,
  /// lets in-flight and queued requests finish, then calls `done`.
  void drain(std::function<void()> done);

 private:
  void on_request(const net::HttpRequest& req, net::Responder respond);
  void maybe_dispatch();
  void finish_slot(std::uint32_t slot, net::HttpResponse resp);
  void on_timeout(std::uint32_t slot, std::uint64_t token);
  void check_drain_done();

  sim::Simulation& sim_;
  net::HttpFabric& http_;
  FunctionContext context_;
  FunctionHandler handler_;
  int container_concurrency_;
  net::Port port_ = 0;
  bool installed_ = false;
  bool draining_ = false;
  std::function<void()> drain_done_;

  /// One accepted request, in its slot from accept to response. An empty
  /// responder means the deadline has answered it.
  struct Pending {
    net::HttpRequest req;
    net::Responder respond;
    std::uint64_t token = 0;  ///< tells the slot's successive requests apart
    sim::EventId timeout_event = sim::kNoEvent;
    double accepted_at = 0;  ///< for the latency histogram
    bool executing = false;
  };
  void record_outcome(const Pending& p, bool timed_out, int status = 200);
  /// Frees `slot` for the next accepted request.
  void release(std::uint32_t slot);
  /// Accepted requests, slot-indexed, slots reused through `free_`. A
  /// deque: handlers hold `req` by reference while reentrant dispatch may
  /// add slots. The responder wrapper and the deadline capture the slot
  /// index, small enough for the callbacks' inline buffers, so a request
  /// allocates nothing beyond its own copy.
  std::deque<Pending> slots_;
  std::vector<std::uint32_t> free_;
  /// Slots of the queued requests in arrival order. A request whose
  /// deadline answered it while queued stays here until dispatch skips it.
  std::deque<std::uint32_t> queue_;
  std::size_t queued_ = 0;
  int executing_ = 0;
  std::uint64_t served_ = 0;
  double request_timeout_s_ = 0;
  std::uint64_t next_token_ = 0;
  std::uint64_t timeouts_ = 0;
  std::size_t peak_queued_ = 0;
  ProxyStatsSink stats_;
};

}  // namespace sf::knative
