#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace sf::sim {

/// The one store behind every generation-checked handle of the engine:
/// event callbacks (EventId), processor-sharing jobs (PsResource::JobId)
/// and network flows (net::FlowId).
///
/// Values live in a dense slot vector. A freed slot goes on a LIFO free
/// list and is reused before the vector grows. An id encodes
/// (sequence << 24) | slot, where the sequence is the table's own counter
/// and grows with every id issued: ids strictly increase even when slots
/// are reused, id 0 is never issued, and an id whose slot was freed or
/// reused no longer matches the id stored there, so it is refused without
/// a map. The split allows ~1.1e12 ids per table and 2^24 - 1 live
/// values; slot 2^24 - 1 is never allocated and names detached() ids.
template <typename T>
class SlotTable {
 public:
  using Id = std::uint64_t;

  /// Stores `value` under a fresh id, in the most recently freed slot if
  /// there is one.
  Id insert(T&& value) {
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(slots_.size());
      assert(slot < kDetachedSlot && "SlotTable: too many live values");
      slots_.emplace_back();
    }
    Slot& s = slots_[slot];
    s.id = (++issued_ << kSlotBits) | slot;
    s.value = std::move(value);
    return s.id;
  }

  /// The value stored under `id`; null for a stale, detached or
  /// never-issued id.
  T* find(Id id) {
    const std::uint32_t slot = slot_of(id);
    return slot < slots_.size() && slots_[slot].id == id ? &slots_[slot].value
                                                         : nullptr;
  }

  /// True iff `id` is still live. One compare and no bounds check: `id`
  /// must be one insert() returned, whose slot always exists.
  [[nodiscard]] bool live(Id id) const { return slots_[slot_of(id)].id == id; }

  /// The value under a live `id`.
  T& operator[](Id id) {
    assert(live(id));
    return slots_[slot_of(id)].value;
  }
  const T& operator[](Id id) const {
    assert(live(id));
    return slots_[slot_of(id)].value;
  }

  /// Moves the value under a live `id` out and frees its slot.
  T take(Id id) {
    assert(live(id));
    const std::uint32_t slot = slot_of(id);
    slots_[slot].id = kFree;
    free_.push_back(slot);
    return std::move(slots_[slot].value);
  }

  /// An id that names no value: it consumes a sequence number like an
  /// insert(), and find() refuses it.
  Id detached() { return (++issued_ << kSlotBits) | kDetachedSlot; }

  /// Ids issued so far, detached ones included.
  [[nodiscard]] std::uint64_t issued() const { return issued_; }

  /// Number of live values.
  [[nodiscard]] std::size_t size() const {
    return slots_.size() - free_.size();
  }

  /// Calls f(id, value) for every live value, in slot order.
  template <typename F>
  void for_each(F&& f) const {
    for (const Slot& s : slots_) {
      if (s.id != kFree) f(s.id, s.value);
    }
  }

 private:
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint32_t kDetachedSlot = (1u << kSlotBits) - 1;
  static constexpr Id kFree = 0;

  static std::uint32_t slot_of(Id id) {
    return static_cast<std::uint32_t>(id & kDetachedSlot);
  }

  struct Slot {
    Id id = kFree;  ///< id of the value held here; kFree when free
    T value{};
  };

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::uint64_t issued_ = 0;
};

}  // namespace sf::sim
