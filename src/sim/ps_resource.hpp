#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulation.hpp"
#include "sim/slot_table.hpp"
#include "sim/types.hpp"

namespace sf::sim {

/// Weighted processor-sharing server with per-job rate caps.
///
/// Models any capacity that is divided among concurrent consumers:
///   * a node's CPU (capacity = #cores, per-task cap = threads it can use,
///     cgroup quota = a lower cap),
///   * a NIC or disk (capacity = bandwidth).
///
/// Rates follow weighted max-min fairness ("water-filling"): each active job
/// i receives rate_i = min(cap_i, lambda * weight_i) with lambda chosen so
/// the rates sum to min(capacity, sum of caps). Whenever the job set or a
/// cap changes, remaining work is advanced at the old rates and the next
/// completion event is rescheduled — the classic PS discrete-event pattern.
///
/// Jobs live in a SlotTable and a JobId is its generation-checked handle,
/// so lookups are O(1) and stale ids are rejected without a map.
/// Iteration (fair-share rounds, completion callbacks) follows submission
/// order — ids are monotonic, so this matches the former by-id `std::map`
/// order exactly. Rates are only
/// recomputed when the active set, a cap/weight, or the capacity actually
/// changed (dirty flag); queries merely advance remaining work.
class PsResource {
 public:
  using JobId = std::uint64_t;
  using Callback = Simulation::Callback;

  PsResource(Simulation& sim, double capacity, std::string name = "ps");

  PsResource(const PsResource&) = delete;
  PsResource& operator=(const PsResource&) = delete;

  /// Adds a job with `work` units to process. `on_complete` fires when the
  /// job finishes. `rate_cap` bounds the job's share (e.g. 1.0 core for a
  /// single-threaded task); `weight` skews fair sharing (cgroup cpu-shares).
  JobId submit(double work, Callback on_complete, double rate_cap = kNoCap,
               double weight = 1.0);

  /// Removes a job without completing it. Returns true iff it was active.
  bool cancel(JobId id);

  /// Removes every active job without completing any of them (node crash:
  /// in-flight work is lost and the continuations never fire). Returns the
  /// number of jobs cancelled.
  std::size_t cancel_all();

  /// Changes a job's rate cap (dynamic cgroup quota change).
  /// Returns false when the job is no longer active.
  bool set_rate_cap(JobId id, double rate_cap);

  /// Changes total capacity (e.g. node CPU hot-plug in tests).
  void set_capacity(double capacity);

  [[nodiscard]] double capacity() const { return capacity_; }
  [[nodiscard]] std::size_t active_jobs() const { return order_.size(); }

  /// Remaining work for an active job (advanced to now); -1 when inactive.
  [[nodiscard]] double remaining(JobId id);

  /// The job's current service rate; -1 when inactive.
  [[nodiscard]] double current_rate(JobId id);

  /// Aggregate rate currently being delivered to all jobs.
  [[nodiscard]] double utilization() const;

  [[nodiscard]] const std::string& name() const { return name_; }

  static constexpr double kNoCap = 1e300;

 private:
  struct Job {
    double remaining = 0;
    double weight = 1;
    double cap = kNoCap;
    double rate = 0;
    Callback on_complete;
  };

  /// Advances remaining work to sim.now() at current rates.
  void advance();
  /// Recomputes fair-share rates (when dirty) and reschedules the next
  /// completion.
  void rebalance();
  /// Single-pass rate assignment + completion scan for the common case
  /// where no per-job cap binds; falls back to the general water-filling.
  void recompute_and_schedule();
  void recompute_rates();
  void schedule_next_completion();
  void fire_completions();

  Simulation& sim_;
  double capacity_;
  std::string name_;
  SlotTable<Job> jobs_;
  /// Active jobs in submission (= ascending id) order: deterministic
  /// iteration for fair sharing and completion callbacks.
  std::vector<JobId> order_;
  std::vector<JobId> open_scratch_;  ///< water-filling workspace
  SimTime last_advance_ = 0;
  EventId completion_event_ = kNoEvent;
  bool rates_dirty_ = false;
  /// Running sum of active weights. Appending a job extends the left-to-
  /// right summation over order_, so the cached value stays bit-identical
  /// to a fresh resum; any removal or weight change invalidates it.
  double sum_w_cache_ = 0;
  bool sum_w_valid_ = false;
};

}  // namespace sf::sim
