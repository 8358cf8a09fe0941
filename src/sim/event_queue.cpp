#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
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
  const Entry e{key_of(t), id};
  if (e.key < base_) rebase(e.key);
  file(e);
  ++live_;
  return id;
}

void EventQueue::rebase(std::uint64_t key) {
  std::vector<Entry> pending;
  pending.reserve(live_);
  for (unsigned b = 0; b < buckets_.size(); ++b) {
    auto& bucket = buckets_[b];
    for (std::size_t i = b == 0 ? head_ : 0; i < bucket.size(); ++i) {
      if (live(bucket[i])) pending.push_back(bucket[i]);
    }
    bucket.clear();
  }
  std::sort(pending.begin(), pending.end(),
            [](const Entry& a, const Entry& b) {
              return a.key < b.key || (a.key == b.key && a.id < b.id);
            });
  head_ = 0;
  mask_ = 0;
  base_ = key;
  for (const Entry& e : pending) file(e);
}

bool EventQueue::take(std::uint64_t limit, Entry& out) {
  auto& near = buckets_[0];
  while (head_ < near.size() && !live(near[head_])) ++head_;
  if (head_ < near.size()) {
    if (base_ > limit) return false;
    out = near[head_++];
  } else {
    near.clear();
    head_ = 0;
    if (mask_ == 0) return false;
    // A lone live entry in the lowest bucket is the minimum: it becomes
    // the base and is taken without passing through bucket 0.
    auto& src = buckets_[std::countr_zero(mask_) + 1];
    if (src.size() == 1 && live(src.front())) {
      if (src.front().key > limit) return false;
      out = src.front();
      base_ = out.key;
      src.clear();
      mask_ &= mask_ - 1;
    } else if (!refill(limit, out)) {
      return false;
    }
  }
  release_slot(static_cast<std::uint32_t>(out.id & kSlotMask));
  --live_;
  return true;
}

bool EventQueue::refill(std::uint64_t limit, Entry& out) {
  while (mask_ != 0) {
    auto& src = buckets_[std::countr_zero(mask_) + 1];
    // One scan drops the tombstones and finds the minimum key.
    auto kept = src.begin();
    std::uint64_t min = ~std::uint64_t{0};
    for (const Entry& e : src) {
      if (!live(e)) continue;
      *kept++ = e;
      min = std::min(min, e.key);
    }
    if (kept == src.begin()) {
      src.clear();
      mask_ &= mask_ - 1;
      continue;
    }
    if (min > limit) {
      src.erase(kept, src.end());
      return false;
    }
    // Every live entry agrees with `min` above the bucket's bit, so each
    // lands in a lower bucket; the keys equal to `min` land in bucket 0,
    // in the order they had here.
    base_ = min;
    mask_ &= mask_ - 1;
    for (auto it = src.begin(); it != kept; ++it) file(*it);
    src.clear();
    out = buckets_[0][head_++];
    return true;
  }
  return false;
}

void EventQueue::release_slot(std::uint32_t slot) {
  slots_[slot].id = kNoEvent;
  free_slots_.push_back(slot);
}

bool EventQueue::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id & kSlotMask);
  if (slot >= slots_.size() || slots_[slot].id != id) return false;
  slots_[slot].fn = nullptr;  // destroy the callback eagerly
  release_slot(slot);
  --live_;
  return true;
}

EventQueue::Fired EventQueue::pop() {
  Entry e{};
  [[maybe_unused]] const bool taken = take(~std::uint64_t{0}, e);
  assert(taken && "pop() on empty EventQueue");
  return Fired{time_of(e.key), e.id, std::move(slots_[e.id & kSlotMask].fn)};
}

std::optional<EventQueue::Fired> EventQueue::pop_until(SimTime limit) {
  Entry e{};
  // Nothing is at most a NaN limit.
  if (std::isnan(limit) || !take(key_of(limit), e)) return std::nullopt;
  // Built in place: the callback moves once, out of its slot.
  return std::optional<Fired>(std::in_place, time_of(e.key), e.id,
                              std::move(slots_[e.id & kSlotMask].fn));
}

SimTime EventQueue::next_time() const {
  if (live_ == 0) return kTimeInfinity;
  const auto& near = buckets_[0];
  for (std::size_t i = head_; i < near.size(); ++i) {
    if (live(near[i])) return time_of(base_);
  }
  for (std::uint64_t m = mask_; m != 0; m &= m - 1) {
    bool found = false;
    std::uint64_t min = ~std::uint64_t{0};
    for (const Entry& e : buckets_[std::countr_zero(m) + 1]) {
      if (live(e)) {
        found = true;
        min = std::min(min, e.key);
      }
    }
    if (found) return time_of(min);
  }
  return kTimeInfinity;
}

std::vector<std::string> EventQueue::self_check() const {
  std::vector<std::string> out;
  const auto entry_name = [](const Entry& e) {
    return "event " + std::to_string(e.id) + " at t=" +
           std::to_string(time_of(e.key));
  };
  // Each live slot must be named by exactly one non-tombstone entry.
  std::vector<std::uint32_t> filed(slots_.size(), 0);
  std::size_t live_entries = 0;
  std::uint64_t min = ~std::uint64_t{0};
  for (unsigned b = 0; b < buckets_.size(); ++b) {
    const auto& bucket = buckets_[b];
    const std::size_t first = b == 0 ? head_ : 0;
    if (b != 0 && ((mask_ >> (b - 1) & 1) != 0) == bucket.empty()) {
      out.push_back("event queue: bucket " + std::to_string(b) +
                    (bucket.empty() ? " marked non-empty but empty"
                                    : " holds entries but is not marked"));
    }
    for (std::size_t i = first; i < bucket.size(); ++i) {
      const Entry& e = bucket[i];
      if (e.key < base_ || bucket_of(e.key) != b) {
        out.push_back("event queue: " + entry_name(e) + " filed in bucket " +
                      std::to_string(b) + ", its key names bucket " +
                      (e.key < base_ ? std::string("none (below the base)")
                                     : std::to_string(bucket_of(e.key))));
      }
      if (b == 0 && i > first && bucket[i - 1].id >= e.id) {
        out.push_back("event queue: bucket 0 out of id order at " +
                      entry_name(e));
      }
      if (!live(e)) continue;
      ++live_entries;
      ++filed[e.id & kSlotMask];
      min = std::min(min, e.key);
    }
  }
  std::size_t live_slots = 0;
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    if (slots_[s].id == kNoEvent) continue;
    ++live_slots;
    if (filed[s] != 1) {
      out.push_back("event queue: live event " + std::to_string(slots_[s].id) +
                    " filed " + std::to_string(filed[s]) + " times");
    }
  }
  if (live_slots != live_ || live_entries != live_ ||
      live_slots + free_slots_.size() != slots_.size()) {
    out.push_back("event queue: live count " + std::to_string(live_) +
                  ", live slots " + std::to_string(live_slots) +
                  ", live entries " + std::to_string(live_entries) +
                  ", free slots " + std::to_string(free_slots_.size()) +
                  " of " + std::to_string(slots_.size()));
  }
  const SimTime earliest = live_entries != 0 ? time_of(min) : kTimeInfinity;
  if (next_time() != earliest) {
    out.push_back("event queue: next_time() " + std::to_string(next_time()) +
                  " but the earliest live entry is at t=" +
                  std::to_string(earliest));
  }
  return out;
}

}  // namespace sf::sim
