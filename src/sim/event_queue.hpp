#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/inline_function.hpp"
#include "sim/types.hpp"

namespace sf::sim {

/// Deterministic cancellable event queue.
///
/// Events scheduled for the same instant fire in scheduling order (FIFO by
/// monotonically increasing EventId), which makes every simulation run
/// bit-reproducible.
///
/// Implementation: an indexed 4-ary min-heap with one 16-byte entry per
/// pending event, ordered by (time, EventId). Ids grow with every
/// schedule(), so the id tie-break is the same-instant FIFO. The
/// simulator's workloads schedule almost every event at a time no other
/// pending event has (DESIGN §5 gives the counts), so a per-event heap is
/// all the ordering they need.
///
/// Callbacks live in a slot vector reused through a free list (no
/// per-event allocation for small captures thanks to InlineFunction). Each
/// slot records its heap position, so cancel() removes the entry eagerly
/// in O(log n) and the heap never carries tombstones.
///
/// An EventId encodes (sequence << 24) | slot. The sequence number strictly
/// increases with every schedule() call, so ids remain monotonic even when
/// slots are reused; the low bits give O(1) cancellation without a hash
/// lookup. The split supports ~1.1e12 lifetime events and 16M concurrent
/// events, both far beyond any simulated scenario.
class EventQueue {
 public:
  using Callback = InlineFunction;

  EventQueue() = default;

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `fn` at absolute time `t`. Returns a handle usable with
  /// cancel(). `t` may equal the current top time; ordering stays FIFO.
  EventId schedule(SimTime t, Callback fn);

  /// Cancels a pending event. Returns true iff the event was still pending.
  bool cancel(EventId id);

  /// True when no live events remain.
  [[nodiscard]] bool empty() const { return heap_.empty(); }

  /// Number of live (non-cancelled, not yet fired) events.
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Time of the earliest live event; kTimeInfinity when empty.
  [[nodiscard]] SimTime next_time() const {
    return heap_.empty() ? kTimeInfinity : heap_.front().time;
  }

  /// Removes and returns the earliest live event. Precondition: !empty().
  struct Fired {
    SimTime time;
    EventId id;
    Callback fn;
  };
  Fired pop();

  /// Total events ever scheduled (statistics / debugging). Counts every
  /// schedule() call, including events later cancelled or already fired.
  [[nodiscard]] std::uint64_t total_scheduled() const {
    return total_scheduled_;
  }

 private:
  /// Low bits of an EventId addressing the callback slot.
  static constexpr unsigned kSlotBits = 24;
  static constexpr EventId kSlotMask = (EventId{1} << kSlotBits) - 1;

  struct HeapEntry {
    SimTime time;
    EventId id;  ///< tie-break, and its low bits name the slot
  };

  static bool before(const HeapEntry& a, const HeapEntry& b) {
    return a.time < b.time || (a.time == b.time && a.id < b.id);
  }

  struct Slot {
    EventId id = kNoEvent;  ///< Full id occupying this slot; kNoEvent = free.
    std::uint32_t heap_pos = 0;
    Callback fn;
  };

  void place(std::size_t i, const HeapEntry& e) {
    heap_[i] = e;
    slots_[e.id & kSlotMask].heap_pos = static_cast<std::uint32_t>(i);
  }

  void sift_up(std::size_t i, HeapEntry moving);
  /// Removes the heap entry at position `pos`, restoring the heap:
  /// percolates the hole to a leaf along the min-child chain, then bubbles
  /// the displaced last element up from there (bottom-up deletion).
  void remove_at(std::size_t pos);
  void release_slot(std::uint32_t slot);

  std::vector<HeapEntry> heap_;  ///< one entry per pending event
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t total_scheduled_ = 0;
};

}  // namespace sf::sim
