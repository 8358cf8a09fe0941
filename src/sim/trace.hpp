#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <ostream>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/interner.hpp"
#include "sim/types.hpp"

namespace sf::sim {

/// Fixed-capacity-chunk arena: elements live in stable 4096-item blocks,
/// appending never moves an element, and clear() keeps the blocks for
/// reuse — after the first flush a steady-state recorder allocates
/// nothing. Iteration ("flush walks arenas in order") is index order,
/// which is record order.
template <typename T>
class ChunkArena {
 public:
  static constexpr std::size_t kChunkItems = 4096;

  T& push(T value) {
    const std::size_t chunk = size_ / kChunkItems;
    const std::size_t offset = size_ % kChunkItems;
    if (chunk == chunks_.size()) {
      chunks_.push_back(std::make_unique<T[]>(kChunkItems));
    }
    T& slot = chunks_[chunk][offset];
    slot = value;
    ++size_;
    return slot;
  }

  [[nodiscard]] const T& operator[](std::size_t i) const {
    return chunks_[i / kChunkItems][i % kChunkItems];
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Forgets the contents but pools the chunks.
  void clear() { size_ = 0; }

 private:
  std::vector<std::unique_ptr<T[]>> chunks_;
  std::size_t size_ = 0;
};

/// Bump allocator for attribute-value bytes: 64 KiB chunks, values stay
/// contiguous (a value never spans chunks), clear() rewinds and reuses.
class ByteArena {
 public:
  static constexpr std::size_t kChunkBytes = 64 * 1024;

  /// Copies `s` in and returns a pointer that stays valid until clear().
  const char* append(std::string_view s) {
    if (s.empty()) return "";
    if (s.size() > kChunkBytes) {
      // Pathological value: give it its own allocation (freed on clear).
      overflow_.push_back(std::make_unique<char[]>(s.size()));
      char* dst = overflow_.back().get();
      s.copy(dst, s.size());
      return dst;
    }
    if (chunks_.empty() || used_ + s.size() > kChunkBytes) {
      ++chunk_;
      used_ = 0;
      if (chunk_ >= chunks_.size()) {
        chunks_.push_back(std::make_unique<char[]>(kChunkBytes));
        chunk_ = chunks_.size() - 1;
      }
    }
    char* dst = chunks_[chunk_].get() + used_;
    s.copy(dst, s.size());
    used_ += s.size();
    return dst;
  }

  void clear() {
    chunk_ = 0;
    used_ = 0;
    overflow_.clear();
  }

 private:
  std::vector<std::unique_ptr<char[]>> chunks_;
  std::size_t chunk_ = 0;  ///< chunk currently being filled
  std::size_t used_ = 0;   ///< bytes used in that chunk
  std::vector<std::unique_ptr<char[]>> overflow_;
};

/// Append-only in-memory trace of everything a simulation did. Disabled
/// recorders drop events at argument-evaluation cost (no allocation at
/// all: the attribute list is a borrow of string_views), which is what
/// lets hot paths trace unconditionally.
///
/// Storage is the scale-regime layout: records are 24-byte PODs in a
/// chunked arena (no per-record heap allocation), category / name / attr
/// keys are interned ObjectIds (each distinct spelling stored once), and
/// attr values are bytes in a pooled bump arena. At 10^6+ events a run,
/// recording costs an id lookup and a few word stores; the string side
/// table is only consulted on the (cold) read/flush path, so gated and
/// flushed output is byte-identical to the old string-storing recorder.
class TraceRecorder {
 private:
  struct Record;
  struct AttrRecord;

 public:
  using Attr = std::pair<std::string_view, std::string_view>;

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  void record(SimTime t, std::string_view category, std::string_view name,
              std::initializer_list<Attr> attrs = {}) {
    if (!enabled_) return;
    Record rec;
    rec.time = t;
    rec.category = ids_.intern(category);
    rec.name = ids_.intern(name);
    rec.attr_begin = static_cast<std::uint32_t>(attrs_.size());
    rec.attr_count = static_cast<std::uint32_t>(attrs.size());
    for (const auto& [key, value] : attrs) {
      attrs_.push(AttrRecord{ids_.intern(key),
                             static_cast<std::uint32_t>(value.size()),
                             values_.append(value)});
    }
    records_.push(rec);
  }

  /// Read-side view of one recorded event. Views stay valid until the
  /// recorder is cleared or destroyed.
  class EventView {
   public:
    [[nodiscard]] SimTime time() const { return rec_->time; }
    [[nodiscard]] std::string_view category() const {
      return tr_->ids_.name(rec_->category);
    }
    [[nodiscard]] std::string_view name() const {
      return tr_->ids_.name(rec_->name);
    }
    [[nodiscard]] std::size_t attr_count() const { return rec_->attr_count; }
    /// i-th attribute, in record order.
    [[nodiscard]] Attr attr_at(std::size_t i) const {
      const AttrRecord& a = tr_->attrs_[rec_->attr_begin + i];
      return {tr_->ids_.name(a.key), std::string_view(a.value, a.len)};
    }
    /// Value of attribute `key`, or "" when absent.
    [[nodiscard]] std::string_view attr(std::string_view key) const {
      for (std::size_t i = 0; i < rec_->attr_count; ++i) {
        const auto [k, v] = attr_at(i);
        if (k == key) return v;
      }
      return {};
    }

   private:
    friend class TraceRecorder;
    EventView(const TraceRecorder* tr, std::size_t index)
        : tr_(tr), rec_(&tr->records_[index]) {}
    const TraceRecorder* tr_;
    const Record* rec_;
  };

  [[nodiscard]] std::size_t size() const { return records_.size(); }
  [[nodiscard]] bool empty() const { return records_.empty(); }
  [[nodiscard]] EventView event(std::size_t i) const {
    return EventView(this, i);
  }

  /// Events matching a category (and optionally a name), in record order.
  [[nodiscard]] std::vector<EventView> find(
      std::string_view category, std::string_view name = {}) const;

  /// Number of events matching category/name. Id-compare per record: the
  /// query strings are looked up (never inserted) once.
  [[nodiscard]] std::size_t count(std::string_view category,
                                  std::string_view name = {}) const;

  void clear() {
    records_.clear();
    attrs_.clear();
    values_.clear();
  }

  /// CSV dump: time,category,name,key=value;key=value...
  void write_csv(std::ostream& os) const;

 private:
  struct Record {
    SimTime time = 0;
    ObjectId category = kEmptyId;
    ObjectId name = kEmptyId;
    std::uint32_t attr_begin = 0;
    std::uint32_t attr_count = 0;
  };
  struct AttrRecord {
    ObjectId key = kEmptyId;
    std::uint32_t len = 0;
    const char* value = "";
  };

  bool enabled_ = false;
  ChunkArena<Record> records_;
  ChunkArena<AttrRecord> attrs_;
  ByteArena values_;
  /// The recorder's own id table: categories, event names and attr keys
  /// (low-cardinality, hit constantly) — intentionally separate from the
  /// simulation's object-id table so a bare TraceRecorder works alone.
  Interner ids_;
};

}  // namespace sf::sim
