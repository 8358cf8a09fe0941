#include "sim/simulation.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <utility>

namespace sf::sim {

namespace {
// The latest time an event can fire at: an event at +inf never fires.
constexpr SimTime kLastFiring = std::numeric_limits<SimTime>::max();
}  // namespace

// The guards are written so that a NaN fails them too.
EventId Simulation::call_at(SimTime t, Callback fn) {
  if (!(t >= now_ - kEpsilon)) {
    throw std::invalid_argument("Simulation::call_at: time in the past");
  }
  return queue_.schedule(t < now_ ? now_ : t, std::move(fn));
}

EventId Simulation::call_in(SimTime delay, Callback fn) {
  if (!(delay >= 0)) {
    throw std::invalid_argument("Simulation::call_in: negative delay");
  }
  return queue_.schedule(now_ + delay, std::move(fn));
}

bool Simulation::fire_next(SimTime limit) {
  auto fired = queue_.pop_until(limit);
  if (!fired) return false;
  assert(fired->time >= now_ - kEpsilon);
  now_ = fired->time > now_ ? fired->time : now_;
  ++processed_;
  fired->fn();
  return true;
}

bool Simulation::step() { return fire_next(kLastFiring); }

std::size_t Simulation::run() {
  stopped_ = false;
  std::size_t n = 0;
  while (!stopped_ && step()) ++n;
  return n;
}

std::size_t Simulation::run_until(SimTime t) {
  stopped_ = false;
  std::size_t n = 0;
  // std::min keeps a NaN `t`, and nothing is due at or before a NaN.
  const SimTime limit = std::min(t, kLastFiring);
  while (!stopped_ && fire_next(limit)) ++n;
  if (!stopped_ && now_ < t) now_ = t;
  return n;
}

std::vector<std::string> Simulation::self_check() const {
  auto out = queue_.self_check();
  const SimTime next = queue_.next_time();
  if (next < now_) {
    out.push_back("event pending at t=" + std::to_string(next) +
                  " before the clock at t=" + std::to_string(now_));
  }
  return out;
}

}  // namespace sf::sim
