#include "knative/kpa.hpp"

#include <algorithm>
#include <cmath>

namespace sf::knative {

namespace {
// Panic starts when the panic-window demand reaches this multiple of the
// current replicas.
constexpr double kPanicThreshold = 2.0;
}  // namespace

void KpaScaler::prune(sim::SimTime t) {
  while (!samples_.empty() &&
         samples_.front().first < t - config_.stable_window_s) {
    samples_.pop_front();
  }
}

KpaScaler::WindowAverages KpaScaler::window_averages() const {
  // Both windows in one pass over the sample ring. Each accumulator adds
  // the samples inside its window in front-to-back order, so each average
  // is bit-identical to a scan of that window alone.
  WindowAverages out;
  if (samples_.empty()) return out;
  const sim::SimTime stable_cutoff =
      samples_.back().first - config_.stable_window_s;
  const sim::SimTime panic_cutoff =
      samples_.back().first - config_.panic_window_s;
  double stable_sum = 0, panic_sum = 0;
  int stable_n = 0, panic_n = 0;
  for (const auto& [ts, c] : samples_) {
    if (ts >= stable_cutoff) {
      stable_sum += c;
      ++stable_n;
    }
    if (ts >= panic_cutoff) {
      panic_sum += c;
      ++panic_n;
    }
  }
  out.stable = stable_n == 0 ? 0 : stable_sum / stable_n;
  out.panic = panic_n == 0 ? 0 : panic_sum / panic_n;
  return out;
}

KpaScaler::Decision KpaScaler::observe(sim::SimTime t, double concurrency,
                                       int current_replicas) {
  samples_.emplace_back(t, concurrency);
  prune(t);
  if (first_sample_) {
    // Treat creation as activity so freshly started pods are not reaped
    // before the grace period.
    last_positive_ = t;
    first_sample_ = false;
  }
  if (concurrency > 0) last_positive_ = t;

  const WindowAverages avgs = window_averages();
  const double stable_avg = avgs.stable;
  const double panic_avg = avgs.panic;
  const int desired_stable =
      static_cast<int>(std::ceil(stable_avg / config_.target_concurrency));
  const int desired_panic =
      static_cast<int>(std::ceil(panic_avg / config_.target_concurrency));

  // Panic entry: the short window demands a multiple of current capacity.
  const int capacity = std::max(current_replicas, 1);
  if (desired_panic >=
      static_cast<int>(std::ceil(kPanicThreshold * capacity))) {
    panicking_ = true;
    panic_entered_ = t;
    panic_floor_ = std::max(panic_floor_, current_replicas);
  } else if (panicking_ && t - panic_entered_ >= config_.stable_window_s) {
    panicking_ = false;
    panic_floor_ = 0;
  }

  int desired;
  if (panicking_) {
    // Panic mode scales up aggressively and never down.
    desired = std::max({desired_panic, desired_stable, panic_floor_});
    panic_floor_ = std::max(panic_floor_, desired);
  } else {
    desired = desired_stable;
  }

  // Scale-to-zero only after the grace period with zero demand.
  if (desired == 0 && current_replicas > 0) {
    if (t - last_positive_ < config_.scale_to_zero_grace_s) desired = 1;
  }

  desired = std::max(desired, config_.min_scale);
  if (config_.max_scale > 0) desired = std::min(desired, config_.max_scale);

  Decision d;
  d.desired = desired;
  d.panicking = panicking_;
  const bool quiescent = concurrency == 0 &&
                         t - last_positive_ >= config_.stable_window_s +
                                                   config_.scale_to_zero_grace_s &&
                         desired == current_replicas && !panicking_;
  d.work_pending = !quiescent;
  return d;
}

}  // namespace sf::knative
