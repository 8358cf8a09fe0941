#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace sf::k8s {

/// Dense slot-vector object store keyed by name — the control-plane
/// counterpart of the PsResource/FlowNetwork flat job tables.
///
/// Objects live in a deque of reusable slots (stable addresses: a pointer
/// returned by find() stays valid for the object's whole lifetime, exactly
/// like the former `std::map<std::string, T>` nodes). A side index maps
/// name -> slot and doubles as the iteration order: for_each() visits
/// objects in ascending name order, bit-identical to iterating the old
/// map, so every controller that reconciles "in list order" behaves the
/// same. Erasing hands the slot to a free list; the vacated slot is reset
/// to T{} so captured resources (pre-stop hooks, label maps) release
/// immediately rather than lingering until reuse.
///
/// Lookups go through one hash index, an unordered_map of string_views
/// into the ordered index's own keys (so each name is stored once): at
/// 10k pods a find() is O(1) instead of an O(log n) walk of string
/// compares, while iteration keeps the deterministic name order from the
/// ordered index.
template <typename T>
class NamedStore {
 public:
  /// Sentinel returned by slot_of() for absent names. Slot ids are reused
  /// after erase; hold one only while the object provably stays alive.
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  [[nodiscard]] const T* find(const std::string& name) const {
    auto it = hash_.find(std::string_view{name});
    return it == hash_.end() ? nullptr : &slots_[it->second];
  }

  [[nodiscard]] T* find(const std::string& name) {
    auto it = hash_.find(std::string_view{name});
    return it == hash_.end() ? nullptr : &slots_[it->second];
  }

  [[nodiscard]] bool contains(const std::string& name) const {
    return hash_.contains(std::string_view{name});
  }

  [[nodiscard]] std::size_t size() const { return index_.size(); }
  [[nodiscard]] bool empty() const { return index_.empty(); }

  /// Dense slot id for `name`; kNoSlot when absent. The slot stays stable
  /// for the object's lifetime, so side tables indexed by slot (each pod's
  /// node and owner slots, ready-set memberships) can reference objects
  /// without re-hashing names on every hot-path touch.
  [[nodiscard]] std::uint32_t slot_of(const std::string& name) const {
    auto it = hash_.find(std::string_view{name});
    return it == hash_.end() ? kNoSlot : it->second;
  }

  [[nodiscard]] const T& at(std::uint32_t slot) const { return slots_[slot]; }
  [[nodiscard]] T& at(std::uint32_t slot) { return slots_[slot]; }

  struct InsertResult {
    T* obj = nullptr;
    std::uint32_t slot = kNoSlot;
    bool inserted = false;
  };

  /// Inserts under `name` unless it exists. Returns the stored object, its
  /// slot, and whether the insert happened (find-or-insert, like
  /// map::emplace).
  InsertResult insert(std::string name, T obj) {
    auto [it, inserted] = index_.try_emplace(std::move(name), 0);
    if (!inserted) return {&slots_[it->second], it->second, false};
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
      slots_[slot] = std::move(obj);
    } else {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.push_back(std::move(obj));
    }
    it->second = slot;
    hash_.emplace(std::string_view{it->first}, slot);
    return {&slots_[slot], slot, true};
  }

  /// Removes the object and returns it (for Deleted notifications);
  /// nullopt when absent.
  std::optional<T> take(const std::string& name) {
    auto it = index_.find(name);
    if (it == index_.end()) return std::nullopt;
    const std::uint32_t slot = it->second;
    hash_.erase(std::string_view{it->first});  // before the key dies
    index_.erase(it);
    std::optional<T> out(std::move(slots_[slot]));
    slots_[slot] = T{};
    free_.push_back(slot);
    return out;
  }

  /// Visits every object in ascending name order (the old map order).
  /// The callback must not insert into or erase from the store.
  template <typename F>
  void for_each(F&& fn) const {
    for (const auto& [name, slot] : index_) fn(slots_[slot]);
  }

  /// for_each, also passing each object's slot: fn(slot, obj).
  template <typename F>
  void for_each_slot(F&& fn) const {
    for (const auto& [name, slot] : index_) fn(slot, slots_[slot]);
  }

 private:
  std::deque<T> slots_;
  std::vector<std::uint32_t> free_;
  std::map<std::string, std::uint32_t> index_;  ///< iteration order
  std::unordered_map<std::string_view, std::uint32_t> hash_;  ///< lookups
};

}  // namespace sf::k8s
