#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "sim/interner.hpp"
#include "storage/volume.hpp"

namespace sf::storage {

/// Pegasus-style replica catalog: maps a logical file name to the volumes
/// that hold a physical copy. The planner consults it to decide where
/// stage-in jobs fetch inputs from, and registers workflow outputs back.
///
/// Storage is interned-id keyed and dense (the PR 6 scale regime): the
/// catalog owns a private Interner mapping lfn → dense ObjectId, and the
/// replica lists live in a flat vector indexed by that id. Lookups on the
/// hot planner path are one hash of the lfn plus one vector index instead
/// of a red-black-tree walk over full string comparisons; repeated
/// lookups via id_of()/primary_by_id() skip the hash too.
///
/// Deregistering the last replica of an lfn removes the entry: has()
/// turns false and entry_count() drops. (The id slot itself is retained —
/// interned ids are append-only — but an empty slot is not an entry, so
/// the catalog can never over-report entries or hand out a "present" lfn
/// with no replicas behind it.)
class ReplicaCatalog {
 public:
  void register_replica(const std::string& lfn, Volume& volume);

  /// Removes one volume's replica entry. Returns true iff present.
  bool deregister_replica(const std::string& lfn, const Volume& volume);

  /// All volumes currently holding `lfn` (may be empty).
  [[nodiscard]] std::vector<Volume*> lookup(const std::string& lfn) const;

  /// The first registered replica, or nullptr.
  [[nodiscard]] Volume* primary(const std::string& lfn) const;

  [[nodiscard]] bool has(const std::string& lfn) const {
    return primary(lfn) != nullptr;
  }

  /// Lfns with at least one live replica.
  [[nodiscard]] std::size_t entry_count() const { return non_empty_; }

  // ---- Interned fast path -------------------------------------------

  /// Dense id of `lfn`, or sim::kEmptyId when it was never registered.
  /// Ids are assigned in first-registration order and stay valid for the
  /// catalog's lifetime — cache one and use primary_by_id() to skip the
  /// string hash on repeated lookups.
  [[nodiscard]] sim::ObjectId id_of(std::string_view lfn) const {
    return names_.lookup(lfn);
  }

  [[nodiscard]] Volume* primary_by_id(sim::ObjectId id) const {
    if (id == sim::kEmptyId || id >= replicas_.size()) return nullptr;
    const auto& vols = replicas_[id];
    return vols.empty() ? nullptr : vols.front();
  }

 private:
  sim::Interner names_;                         // lfn → dense id
  std::vector<std::vector<Volume*>> replicas_;  // indexed by ObjectId
  std::size_t non_empty_ = 0;
};

}  // namespace sf::storage
