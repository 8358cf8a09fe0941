#pragma once

#include <deque>

#include "sim/types.hpp"

namespace sf::knative {

/// Knative Pod Autoscaler decision logic (pure, deterministic, testable).
///
/// Implements the KPA control law the paper's scaling behaviour depends
/// on: desired replicas = ceil(average observed concurrency / target),
/// averaged over a stable window, with a short panic window that can only
/// scale up when load doubles abruptly, a scale-to-zero grace period, and
/// the `autoscaling.knative.dev/min-scale` / `max-scale` clamps.
class KpaScaler {
 public:
  struct Config {
    double target_concurrency = 1.0;
    int min_scale = 0;
    int max_scale = 0;  ///< 0 = unlimited
    double stable_window_s = 60.0;
    double panic_window_s = 6.0;
    double scale_to_zero_grace_s = 30.0;
  };

  explicit KpaScaler(Config config) : config_(config) {}

  struct Decision {
    int desired = 0;
    bool panicking = false;
    /// False once the revision is quiescent (no samples in the stable
    /// window, grace elapsed, decision applied) — the serving layer may
    /// pause its tick loop until the next poke.
    bool work_pending = false;
  };

  /// Feeds one concurrency sample taken at time `t` (seconds, monotone)
  /// and returns the scaling decision given the currently applied replica
  /// count.
  Decision observe(sim::SimTime t, double concurrency, int current_replicas);

  /// Activator fast path: a request arrived while scaled to zero. Returns
  /// the replica count to jump to immediately.
  [[nodiscard]] int scale_from_zero_target() const {
    return config_.min_scale > 0 ? config_.min_scale : 1;
  }

  [[nodiscard]] const Config& config() const { return config_; }

 private:
  struct WindowAverages {
    double stable = 0;
    double panic = 0;
  };

  /// Stable and panic averages computed in a single pass over the samples
  /// (observe() needs both every tick; scanning the deque twice doubled
  /// the KPA's per-tick cost).
  [[nodiscard]] WindowAverages window_averages() const;
  void prune(sim::SimTime t);

  Config config_;
  std::deque<std::pair<sim::SimTime, double>> samples_;
  bool first_sample_ = true;
  sim::SimTime last_positive_ = -1e18;
  sim::SimTime panic_entered_ = -1e18;
  bool panicking_ = false;
  int panic_floor_ = 0;  ///< never scale below this while panicking
};

}  // namespace sf::knative
