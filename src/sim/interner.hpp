#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>

namespace sf::sim {

/// Interned object-name handle: a dense uint32 standing in for a string
/// ("pod-fn-matmul-00001-3", "node-17", "knative") everywhere object names
/// used to be copied — watch events, store keys, endpoint references.
/// Comparing, hashing and copying an ObjectId is one word; the side table
/// recovers the spelling on the (cold) output path.
using ObjectId = std::uint32_t;

/// Id of the empty string — every Interner hands it out for "" and it is
/// the natural "no object" sentinel.
inline constexpr ObjectId kEmptyId = 0;

/// Append-only string intern table: name -> dense id, id -> name.
///
/// Determinism contract: ids are assigned in first-intern order, so the
/// same sequence of intern() calls yields the same ids forever. One
/// Interner belongs to ONE Simulation (it lives next to the RNG and the
/// trace recorder) — sweep points each own their simulation, so parallel
/// SweepRunner execution shares no intern state across threads and the
/// 1-vs-N-thread bit-identity contract holds without any locking. Ids
/// never leak into output: everything printed goes back through name(),
/// which is also why two runs that intern in different orders still
/// produce identical text.
///
/// Storage: spellings live in a deque (stable addresses — a string_view
/// returned by name() stays valid for the interner's lifetime), and the
/// lookup index keys string_views into that same storage, so each
/// distinct name is stored exactly once.
class Interner {
 public:
  Interner() {
    names_.emplace_back();  // id 0 = ""
    index_.emplace(std::string_view{names_.front()}, kEmptyId);
  }

  Interner(const Interner&) = delete;
  Interner& operator=(const Interner&) = delete;

  /// Id for `s`, assigning the next dense id on first sight.
  ObjectId intern(std::string_view s) {
    const auto it = index_.find(s);
    if (it != index_.end()) return it->second;
    const auto id = static_cast<ObjectId>(names_.size());
    names_.emplace_back(s);
    index_.emplace(std::string_view{names_.back()}, id);
    return id;
  }

  /// Round-trip: the spelling interned as `id`. The view stays valid for
  /// the interner's lifetime.
  [[nodiscard]] std::string_view name(ObjectId id) const {
    return names_[id];
  }

  /// Id of `s` if already interned, kEmptyId otherwise (kEmptyId is also
  /// the legitimate id of "" — use contains() when that matters).
  [[nodiscard]] ObjectId lookup(std::string_view s) const {
    const auto it = index_.find(s);
    return it == index_.end() ? kEmptyId : it->second;
  }

  [[nodiscard]] bool contains(std::string_view s) const {
    return index_.find(s) != index_.end();
  }

  /// Distinct names interned, including the built-in "".
  [[nodiscard]] std::size_t size() const { return names_.size(); }

 private:
  std::deque<std::string> names_;                    // id -> spelling
  std::unordered_map<std::string_view, ObjectId> index_;  // spelling -> id
};

}  // namespace sf::sim
