#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/interner.hpp"
#include "sim/random.hpp"
#include "sim/trace.hpp"
#include "sim/types.hpp"

namespace sf::sim {

/// Discrete-event simulation driver.
///
/// Owns the virtual clock, the event queue, the deterministic RNG and the
/// trace recorder. Every other subsystem holds a reference to one
/// Simulation and advances purely by scheduling callbacks on it.
class Simulation {
 public:
  explicit Simulation(std::uint64_t seed = 42) : rng_(seed) {}

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  [[nodiscard]] SimTime now() const { return now_; }

  /// Callback type: small captures stay allocation-free (InlineFunction);
  /// any callable convertible to `void()` is accepted, including
  /// `std::function`.
  using Callback = EventQueue::Callback;

  /// Schedules `fn` at absolute virtual time `t` (must be >= now(); a NaN
  /// throws std::invalid_argument like a past time).
  EventId call_at(SimTime t, Callback fn);

  /// Schedules `fn` after `delay` seconds (must be >= 0; a NaN throws
  /// std::invalid_argument like a negative delay).
  EventId call_in(SimTime delay, Callback fn);

  /// Cancels a pending event; returns true iff it was still pending.
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Runs until the queue drains or stop() is called.
  /// Returns the number of events processed.
  std::size_t run();

  /// Runs all events with time <= `t`; the clock then reads exactly `t`.
  std::size_t run_until(SimTime t);

  /// Processes a single event. Returns false when the queue is empty or
  /// holds only events at +inf, which never fire.
  bool step();

  /// Stops run()/run_until() after the current callback returns.
  void stop() { stopped_ = true; }

  [[nodiscard]] bool has_pending_events() const { return !queue_.empty(); }
  [[nodiscard]] SimTime next_event_time() const { return queue_.next_time(); }
  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }
  [[nodiscard]] std::uint64_t events_processed() const { return processed_; }

  Rng& rng() { return rng_; }
  TraceRecorder& trace() { return trace_; }
  const TraceRecorder& trace() const { return trace_; }

  /// The simulation's object-name intern table. Per-simulation (not
  /// process-global) on purpose: sweep points each own their Simulation,
  /// so intern order — and therefore every id — is a pure function of the
  /// run, independent of SweepRunner thread interleaving.
  Interner& ids() { return ids_; }
  const Interner& ids() const { return ids_; }

  /// Shorthand for ids().intern().
  ObjectId intern(std::string_view s) { return ids_.intern(s); }

  /// EventQueue::self_check(), plus: no pending event precedes the clock.
  /// One message per fault, empty when sound. A pure read.
  [[nodiscard]] std::vector<std::string> self_check() const;

 private:
  /// Fires the earliest event if its time is at most `limit`.
  bool fire_next(SimTime limit);

  EventQueue queue_;
  SimTime now_ = 0;
  bool stopped_ = false;
  std::uint64_t processed_ = 0;
  Rng rng_;
  TraceRecorder trace_;
  Interner ids_;
};

}  // namespace sf::sim
