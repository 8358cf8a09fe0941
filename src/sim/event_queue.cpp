#include "sim/event_queue.hpp"

#include <cassert>
#include <utility>

namespace sf::sim {

EventId EventQueue::schedule(SimTime t, Callback fn) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    assert(slots_.size() <= kSlotMask && "EventQueue: too many live events");
    slots_.emplace_back();
  }
  const EventId id = (++total_scheduled_ << kSlotBits) | slot;
  Slot& s = slots_[slot];
  s.id = id;
  s.fn = std::move(fn);
  heap_.push_back(HeapEntry{t, id});
  sift_up(heap_.size() - 1, heap_.back());
  return id;
}

void EventQueue::release_slot(std::uint32_t slot) {
  slots_[slot].id = kNoEvent;
  free_slots_.push_back(slot);
}

bool EventQueue::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id & kSlotMask);
  if (slot >= slots_.size() || slots_[slot].id != id) return false;
  remove_at(slots_[slot].heap_pos);
  slots_[slot].fn = nullptr;  // destroy the callback eagerly
  release_slot(slot);
  return true;
}

EventQueue::Fired EventQueue::pop() {
  assert(!heap_.empty() && "pop() on empty EventQueue");
  const HeapEntry top = heap_.front();
  const auto slot = static_cast<std::uint32_t>(top.id & kSlotMask);
  Fired fired{top.time, top.id, std::move(slots_[slot].fn)};
  remove_at(0);
  // The moved-from callback is already empty; just recycle the slot.
  release_slot(slot);
  return fired;
}

void EventQueue::remove_at(std::size_t pos) {
  const HeapEntry displaced = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (pos == n) return;
  // Percolate the hole down the min-child chain to a leaf, then drop the
  // displaced last element into it and bubble up (bottom-up deletion:
  // fewer comparisons than classic sift-down, because the displaced
  // element is leaf-sized and rarely travels far).
  while (true) {
    const std::size_t first_child = 4 * pos + 1;
    if (first_child >= n) break;
    std::size_t best = first_child;
    const std::size_t end = first_child + 4 < n ? first_child + 4 : n;
    for (std::size_t c = first_child + 1; c < end; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    place(pos, heap_[best]);
    pos = best;
  }
  sift_up(pos, displaced);
}

void EventQueue::sift_up(std::size_t i, HeapEntry moving) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!before(moving, heap_[parent])) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, moving);
}

}  // namespace sf::sim
