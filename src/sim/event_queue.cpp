#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

namespace sf::sim {

EventId EventQueue::schedule(SimTime t, Callback fn) {
  const Entry e{key_of(t), callbacks_.insert(std::move(fn))};
  if (e.key < base_) rebase(e.key);
  file(e);
  return e.id;
}

void EventQueue::rebase(std::uint64_t key) {
  std::vector<Entry> pending;
  pending.reserve(size());
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

bool EventQueue::cancel(EventId id) {
  if (callbacks_.find(id) == nullptr) return false;
  callbacks_.take(id);  // destroys the callback at once
  return true;
}

EventQueue::Fired EventQueue::pop() {
  Entry e{};
  [[maybe_unused]] const bool taken = take(~std::uint64_t{0}, e);
  assert(taken && "pop() on empty EventQueue");
  return Fired{time_of(e.key), e.id, callbacks_.take(e.id)};
}

std::optional<EventQueue::Fired> EventQueue::pop_until(SimTime limit) {
  Entry e{};
  // Nothing is at most a NaN limit.
  if (std::isnan(limit) || !take(key_of(limit), e)) return std::nullopt;
  return std::optional<Fired>(std::in_place, time_of(e.key), e.id,
                              callbacks_.take(e.id));
}

SimTime EventQueue::next_time() const {
  if (empty()) return kTimeInfinity;
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
  // Each live callback must be named by exactly one non-tombstone entry.
  std::vector<EventId> filed;
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
      filed.push_back(e.id);
      min = std::min(min, e.key);
    }
  }
  std::sort(filed.begin(), filed.end());
  std::size_t live_callbacks = 0;
  callbacks_.for_each([&](EventId id, const Callback&) {
    ++live_callbacks;
    const auto [lo, hi] = std::equal_range(filed.begin(), filed.end(), id);
    if (hi - lo != 1) {
      out.push_back("event queue: live event " + std::to_string(id) +
                    " filed " + std::to_string(hi - lo) + " times");
    }
  });
  if (live_callbacks != size() || filed.size() != size()) {
    out.push_back("event queue: live count " + std::to_string(size()) +
                  ", live callbacks " + std::to_string(live_callbacks) +
                  ", live entries " + std::to_string(filed.size()));
  }
  const SimTime earliest = filed.empty() ? kTimeInfinity : time_of(min);
  if (next_time() != earliest) {
    out.push_back("event queue: next_time() " + std::to_string(next_time()) +
                  " but the earliest live entry is at t=" +
                  std::to_string(earliest));
  }
  return out;
}

}  // namespace sf::sim
