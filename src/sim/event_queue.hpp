#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/inline_function.hpp"
#include "sim/slot_table.hpp"
#include "sim/types.hpp"

namespace sf::sim {

/// Deterministic cancellable event queue.
///
/// Events scheduled for the same instant fire in scheduling order (FIFO by
/// monotonically increasing EventId), which makes every simulation run
/// bit-reproducible.
///
/// Implementation: a monotone radix queue over (time, EventId). Each
/// pending event is a 16-byte entry (key, id), where the key is the
/// time's bit pattern mapped so that unsigned key order is time order
/// (-0.0 is filed as +0.0). The base is the key of the last popped event.
/// Bucket 0 holds the entries whose key equals the base, in id order;
/// bucket i >= 1 holds the keys whose highest bit differing from the base
/// is bit i-1. Every pending key is at least the base, so every key in a
/// lower bucket is smaller than every key in a higher one.
///
/// schedule() appends to the key's bucket in O(1). pop() takes bucket 0's
/// next entry; once bucket 0 is spent it scans the lowest non-empty
/// bucket once, makes its minimum the base and re-files its entries, in
/// order, into the lower buckets (all empty at that moment). An entry
/// therefore moves only downwards, and a far timer is not touched until
/// its bucket is the lowest. Equal keys share a bucket and enter it in id
/// order, and re-filing keeps that order, so pops come out in (time, id)
/// order exactly. Scheduling below the base (only a standalone queue can:
/// Simulation never schedules before its clock) re-files every pending
/// entry against the new key, in O(n).
///
/// Callbacks live in a SlotTable (no per-event allocation for small
/// captures thanks to InlineFunction), and an EventId is its handle: ids
/// strictly increase with every schedule() call, and cancel() is O(1)
/// without a hash lookup. cancel() frees the callback at once; its entry
/// stays behind as a tombstone until the scan of its bucket drops it,
/// which happens before any later key is popped.
class EventQueue {
 public:
  using Callback = InlineFunction;

  EventQueue() = default;

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `fn` at absolute time `t` (not NaN). Returns a handle usable
  /// with cancel(). `t` may equal the current top time; ordering stays
  /// FIFO.
  EventId schedule(SimTime t, Callback fn);

  /// Cancels a pending event. Returns true iff the event was still pending.
  bool cancel(EventId id);

  /// True when no live events remain.
  [[nodiscard]] bool empty() const { return size() == 0; }

  /// Number of live (non-cancelled, not yet fired) events.
  [[nodiscard]] std::size_t size() const { return callbacks_.size(); }

  /// Time of the earliest live event; kTimeInfinity when empty. A pure
  /// read: it never moves the base.
  [[nodiscard]] SimTime next_time() const;

  /// A popped event: its scheduled time (+0.0 for -0.0), id and callback.
  struct Fired {
    SimTime time;
    EventId id;
    Callback fn;
  };

  /// Removes and returns the earliest live event. Precondition: !empty().
  Fired pop();

  /// Removes and returns the earliest live event if its time is at most
  /// `limit`; otherwise, or when empty, returns nothing and leaves the
  /// base where it was. One call finds and takes the event.
  std::optional<Fired> pop_until(SimTime limit);

  /// Total events ever scheduled (statistics / debugging). Counts every
  /// schedule() call, including events later cancelled or already fired.
  [[nodiscard]] std::uint64_t total_scheduled() const {
    return callbacks_.issued();
  }

  /// Checks the queue's structure against its live callbacks; one message
  /// per fault, empty when sound. A pure read.
  [[nodiscard]] std::vector<std::string> self_check() const;

 private:
  static constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;

  struct Entry {
    std::uint64_t key;
    EventId id;  ///< tie-break, and the callback's handle
  };

  /// Order-preserving key of a time: key order is time order, and the two
  /// zeros share one key.
  static std::uint64_t key_of(SimTime t) {
    const auto bits = std::bit_cast<std::uint64_t>(t == 0 ? 0.0 : t);
    return bits & kSignBit ? ~bits : bits | kSignBit;
  }
  static SimTime time_of(std::uint64_t key) {
    return std::bit_cast<SimTime>(key & kSignBit ? key & ~kSignBit : ~key);
  }

  [[nodiscard]] unsigned bucket_of(std::uint64_t key) const {
    return static_cast<unsigned>(std::bit_width(key ^ base_));
  }
  [[nodiscard]] bool live(const Entry& e) const {
    return callbacks_.live(e.id);
  }

  /// Appends `e` to its bucket under the current base.
  void file(const Entry& e) {
    const unsigned b = bucket_of(e.key);
    buckets_[b].push_back(e);
    if (b != 0) mask_ |= std::uint64_t{1} << (b - 1);
  }
  /// Re-files every pending entry against `key`, which is below the base.
  void rebase(std::uint64_t key);
  /// Removes the earliest live entry into `out` if its key is at most
  /// `limit`, leaving its callback in the table for the caller to take.
  /// Returns false, with the base unchanged, otherwise.
  bool take(std::uint64_t limit, Entry& out);
  /// take() once bucket 0 is spent and the lowest non-empty bucket is not
  /// one live entry: scans that bucket and re-files it.
  bool refill(std::uint64_t limit, Entry& out);

  // The scalars and the callback table come first, beside bucket 0: one
  // pop touches them all.
  std::size_t head_ = 0;     ///< next unread entry of bucket 0
  std::uint64_t base_ = 0;   ///< key of the last popped event
  std::uint64_t mask_ = 0;   ///< bit i-1 set iff bucket i >= 1 is non-empty
  SlotTable<Callback> callbacks_;
  /// Buckets 0..64; bucket_of() of a key is its index.
  std::array<std::vector<Entry>, 65> buckets_;
};

}  // namespace sf::sim
