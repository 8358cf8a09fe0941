#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "knative/serving.hpp"
#include "sim/random.hpp"

namespace sf::workload {

/// One request arrival in an open-loop schedule: issued at `time` (seconds
/// after the engine starts) by `user` against `service` — regardless of
/// whether the user's previous request has completed. Open-loop load is
/// what distinguishes "N independent users" from a closed request loop:
/// a slow service does not throttle its own offered load, so queues
/// actually build.
struct Arrival {
  double time = 0;
  int user = 0;
  std::string service;
};

/// Parses a whitespace-separated arrival trace: one `time user service`
/// triple per line; blank lines and lines starting with '#' are skipped.
/// Times must be non-negative and non-decreasing. Throws on malformed
/// input.
std::vector<Arrival> load_arrival_trace(std::istream& in);

/// The compute-handler KService that open-loop requests target by
/// convention: the request body is the core-seconds to burn (0.01 when
/// absent) and the reply echoes the request's `body_bytes`, from a 512 MB,
/// 1-CPU container with a 0.6 s boot. Callers set the annotations.
[[nodiscard]] knative::KnServiceSpec compute_service(const std::string& name);

/// Configuration for the open-loop traffic engine.
struct OpenLoopConfig {
  /// Independent users. Each draws its own Poisson arrival process from a
  /// dedicated per-user stream (splitmix-derived from `seed`), so user k's
  /// arrival times are a pure function of (seed, k) — independent of event
  /// interleaving and of every other user.
  int users = 1;
  double rate_hz = 1.0;  ///< per-user arrival rate (requests/second)
  /// Arrivals stop at this sim-time offset from start(); in-flight
  /// requests still drain afterwards.
  double horizon_s = 60.0;
  /// Hard cap on total issued requests across all users (0 = unlimited).
  std::uint64_t max_requests = 0;
  /// Target services; each arrival picks one uniformly from the user's
  /// stream. A single entry means every request hits that service.
  std::vector<std::string> services;
  /// Request shape handed to the default request factory: `work_s`
  /// core-seconds in the pod (body = double, the compute-handler
  /// convention), `payload_bytes` on the wire each way.
  double work_s = 0.05;
  double payload_bytes = 490000;
  std::uint64_t seed = 42;
  /// When non-empty, replaces the Poisson processes entirely: arrivals
  /// replay this schedule (times relative to start()). `users`, `rate_hz`
  /// and `horizon_s` are ignored; `max_requests` still applies.
  std::vector<Arrival> trace;
  /// Keep per-request issue times and latencies (percentiles in tests and
  /// the scale sweep). Off by default: at 10^5+ requests the counters are
  /// usually all a caller wants.
  bool record_requests = false;
  /// Optional override for building the HTTP request of an arrival. The
  /// per-user stream is passed so randomized payloads stay deterministic.
  std::function<net::HttpRequest(const Arrival&, sim::Rng&)> request_factory;
};

/// Open-loop traffic engine: N independent users firing requests at
/// KServices through the ingress gateway. Arrival times never depend on
/// completions (the open-loop property), and every stochastic choice draws
/// from per-user streams, so the whole schedule is a pure function of the
/// config — bit-identical across runs and across SweepRunner threads.
class OpenLoopEngine {
 public:
  OpenLoopEngine(knative::KnativeServing& serving, net::NodeId client,
                 OpenLoopConfig config);

  OpenLoopEngine(const OpenLoopEngine&) = delete;
  OpenLoopEngine& operator=(const OpenLoopEngine&) = delete;

  /// Schedules every user's first arrival (or the trace replay) starting
  /// at the current sim time. Call once; the caller drives the simulation.
  void start();

  struct Stats {
    std::uint64_t issued = 0;
    std::uint64_t completed = 0;
    std::uint64_t ok = 0;      ///< 2xx responses
    std::uint64_t errors = 0;  ///< everything else
    double latency_sum_s = 0;
    double latency_max_s = 0;
    /// Sim time of the last response (0 when none arrived yet): with
    /// `issued == completed` this is the drain point — the engine's
    /// makespan measured from start().
    double last_completion_time = 0;
  };

  [[nodiscard]] const Stats& stats() const { return stats_; }
  /// True once the arrival schedule is exhausted (horizon, cap or trace
  /// end reached) AND every issued request has been answered — the
  /// condition sweep drivers step the simulation toward.
  [[nodiscard]] bool quiesced() const {
    return started_ && pending_arrivals_ == 0 &&
           stats_.completed == stats_.issued;
  }

  /// Issue log (requires `record_requests`): one entry per request in
  /// issue order, absolute sim times.
  [[nodiscard]] const std::vector<Arrival>& issued_log() const {
    return issued_log_;
  }
  /// Completed-request latencies, ascending (requires `record_requests`).
  [[nodiscard]] std::vector<double> sorted_latencies() const;

  /// Order-insensitive digest of the engine's outcome: counters plus the
  /// bit patterns of the latency aggregates, splitmix-folded. Two runs
  /// with equal configs must produce equal fingerprints — the hook the
  /// fuzzer and the scale sweep fold into their case digests.
  [[nodiscard]] std::uint64_t fingerprint() const;

 private:
  struct User {
    sim::Rng rng{0};
    std::uint64_t issued = 0;
  };

  void issue(const Arrival& arrival);
  void schedule_next_poisson(int user);
  void schedule_trace_replay(std::size_t index);
  [[nodiscard]] bool under_cap() const {
    return config_.max_requests == 0 || stats_.issued < config_.max_requests;
  }

  knative::KnativeServing& serving_;
  sim::Simulation& sim_;
  net::NodeId client_;
  OpenLoopConfig config_;
  std::vector<User> users_;
  double start_time_ = 0;
  bool started_ = false;
  /// Arrival events currently scheduled in the engine's future (at most
  /// one per Poisson user, one for the trace cursor): quiesce gating.
  std::uint64_t pending_arrivals_ = 0;
  Stats stats_;
  std::vector<Arrival> issued_log_;
  std::vector<double> latencies_;
  /// Liveness token captured (weakly) by every in-flight responder: a
  /// response arriving after the engine is destroyed is dropped instead of
  /// scribbling over freed stats.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace sf::workload
