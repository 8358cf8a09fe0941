#include "sim/ps_resource.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

namespace sf::sim {

namespace {
constexpr double kDoneSlack = 1e-9;
// Jobs whose remaining time-to-finish is below this are complete: a
// smaller delay is not representable once the clock is large, and waiting
// for it would spin the event loop at a frozen timestamp.
constexpr double kTimeSlack = 1e-9;

bool job_done(double remaining, double rate) {
  return remaining <= kDoneSlack ||
         (rate > 0 && remaining <= rate * kTimeSlack);
}
}

PsResource::PsResource(Simulation& sim, double capacity, std::string name)
    : sim_(sim), capacity_(capacity), name_(std::move(name)) {
  if (capacity < 0) {
    throw std::invalid_argument("PsResource: negative capacity");
  }
  last_advance_ = sim_.now();
}

PsResource::JobId PsResource::submit(double work, Callback on_complete,
                                     double rate_cap, double weight) {
  if (rate_cap < 0) {
    throw std::invalid_argument("PsResource::submit: negative rate cap");
  }
  if (weight <= 0) {
    throw std::invalid_argument("PsResource::submit: non-positive weight");
  }
  advance();
  const JobId id = jobs_.insert(Job{.remaining = std::max(work, 0.0),
                                    .weight = weight,
                                    .cap = rate_cap,
                                    .on_complete = std::move(on_complete)});
  order_.push_back(id);  // ids are monotonic: append keeps id order
  if (sum_w_valid_) sum_w_cache_ += weight;
  rates_dirty_ = true;
  rebalance();
  return id;
}

bool PsResource::cancel(JobId id) {
  if (jobs_.find(id) == nullptr) return false;
  advance();
  order_.erase(std::find(order_.begin(), order_.end(), id));
  jobs_.take(id);
  sum_w_valid_ = false;  // removal breaks the left-to-right prefix sum
  rates_dirty_ = true;
  rebalance();
  return true;
}

std::size_t PsResource::cancel_all() {
  const std::size_t n = order_.size();
  if (n == 0) return 0;
  advance();
  for (const JobId id : order_) jobs_.take(id);
  order_.clear();
  sum_w_valid_ = false;
  rates_dirty_ = true;
  rebalance();
  return n;
}

bool PsResource::set_rate_cap(JobId id, double rate_cap) {
  if (rate_cap < 0) {
    throw std::invalid_argument("PsResource::set_rate_cap: negative cap");
  }
  Job* job = jobs_.find(id);
  if (job == nullptr) return false;
  advance();
  if (job->cap != rate_cap) {
    job->cap = rate_cap;
    rates_dirty_ = true;  // same-value updates keep the rates clean
  }
  rebalance();
  return true;
}

void PsResource::set_capacity(double capacity) {
  if (capacity < 0) {
    throw std::invalid_argument("PsResource::set_capacity: negative");
  }
  advance();
  if (capacity != capacity_) {
    capacity_ = capacity;
    rates_dirty_ = true;
  }
  rebalance();
}

double PsResource::remaining(JobId id) {
  advance();
  const Job* job = jobs_.find(id);
  return job == nullptr ? -1.0 : job->remaining;
}

double PsResource::current_rate(JobId id) {
  advance();
  const Job* job = jobs_.find(id);
  return job == nullptr ? -1.0 : job->rate;
}

double PsResource::utilization() const {
  double total = 0;
  for (const JobId id : order_) total += jobs_[id].rate;
  return total;
}

void PsResource::advance() {
  const SimTime now = sim_.now();
  const SimTime dt = now - last_advance_;
  if (dt <= 0) {
    last_advance_ = now;
    return;
  }
  for (const JobId id : order_) {
    Job& job = jobs_[id];
    job.remaining = std::max(0.0, job.remaining - job.rate * dt);
  }
  last_advance_ = now;
}

void PsResource::rebalance() {
  if (completion_event_ != kNoEvent) {
    sim_.cancel(completion_event_);
    completion_event_ = kNoEvent;
  }
  // Rates are a pure function of (job set, caps, weights, capacity); the
  // O(jobs * rounds) water-filling only reruns when one of those changed.
  // The completion timer is always re-armed so event scheduling stays
  // bit-identical with the pre-flat-table engine.
  if (rates_dirty_) {
    recompute_and_schedule();
    rates_dirty_ = false;
  } else {
    schedule_next_completion();
  }
}

void PsResource::recompute_and_schedule() {
  if (order_.empty()) return;
  if (!sum_w_valid_) {
    double sum_w = 0;
    for (const JobId id : order_) sum_w += jobs_[id].weight;
    sum_w_cache_ = sum_w;
    sum_w_valid_ = true;
  }
  const double lambda = capacity_ / sum_w_cache_;

  // Fast path: when no per-job cap binds in the first round, the final rate
  // of every job is lambda * weight, so rate assignment and the
  // next-completion scan fuse into one pass. Arithmetic and iteration order
  // are identical to the general algorithm, so results match bit for bit;
  // rates written before a cap is discovered are all overwritten by the
  // fallback (every job is either frozen at its cap or assigned in the
  // terminal uncapped round).
  SimTime soonest = kTimeInfinity;
  bool done_now = false;
  for (const JobId id : order_) {
    Job& job = jobs_[id];
    const double fair = lambda * job.weight;
    if (job.cap < fair) {
      recompute_rates();
      schedule_next_completion();
      return;
    }
    job.rate = fair;
    if (!done_now) {
      // Mirrors schedule_next_completion: the first finished job pins the
      // completion to "now" and later jobs stop contributing.
      if (job_done(job.remaining, job.rate)) {
        done_now = true;
      } else if (job.rate > 0) {
        soonest = std::min(soonest, job.remaining / job.rate);
      }
    }
  }
  if (done_now) soonest = 0;
  if (soonest < kTimeInfinity) {
    completion_event_ = sim_.call_in(soonest, [this] { fire_completions(); });
  }
}

void PsResource::recompute_rates() {
  if (order_.empty()) return;

  // Weighted water-filling: repeatedly grant capped jobs their cap and
  // fair-share the rest by weight. Iteration follows submission order,
  // matching the former by-id map exactly.
  open_scratch_.assign(order_.begin(), order_.end());
  double cap_left = capacity_;
  while (!open_scratch_.empty()) {
    double sum_w = 0;
    for (const JobId id : open_scratch_) sum_w += jobs_[id].weight;
    const double lambda = cap_left / sum_w;
    bool any_capped = false;
    for (auto it = open_scratch_.begin(); it != open_scratch_.end();) {
      Job& job = jobs_[*it];
      if (job.cap < lambda * job.weight) {
        job.rate = job.cap;
        cap_left -= job.cap;
        it = open_scratch_.erase(it);
        any_capped = true;
      } else {
        ++it;
      }
    }
    if (!any_capped) {
      for (const JobId id : open_scratch_) {
        Job& job = jobs_[id];
        job.rate = lambda * job.weight;
      }
      break;
    }
  }
}

void PsResource::schedule_next_completion() {
  // Schedule the earliest completion (or an immediate one for zero-work
  // jobs) as a single cancellable event.
  SimTime soonest = kTimeInfinity;
  for (const JobId id : order_) {
    const Job& job = jobs_[id];
    if (job_done(job.remaining, job.rate)) {
      soonest = 0;
      break;
    }
    if (job.rate > 0) {
      soonest = std::min(soonest, job.remaining / job.rate);
    }
  }
  if (soonest < kTimeInfinity) {
    completion_event_ = sim_.call_in(soonest, [this] { fire_completions(); });
  }
}

void PsResource::fire_completions() {
  completion_event_ = kNoEvent;
  advance();
  std::vector<Callback> done;
  std::size_t kept = 0;
  for (const JobId id : order_) {
    const Job& job = jobs_[id];
    if (job_done(job.remaining, job.rate)) {
      done.push_back(jobs_.take(id).on_complete);
    } else {
      order_[kept++] = id;
    }
  }
  order_.resize(kept);
  if (!done.empty()) {
    rates_dirty_ = true;
    sum_w_valid_ = false;
  }
  rebalance();
  for (auto& cb : done) {
    if (cb) cb();
  }
}

}  // namespace sf::sim
