#pragma once

#include <cstddef>
#include <initializer_list>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/types.hpp"

namespace sf::sim {

/// Append-only in-memory trace of everything a simulation did. Disabled
/// recorders drop events at argument-evaluation cost (one branch, no
/// allocation: the attribute list is a borrow of string_views), which is
/// what lets hot paths trace unconditionally.
///
/// Storage is one vector of events that own their strings: enabled runs
/// record at most a few hundred events (the autoscaling example and the
/// concurrency ablation), so the log stays plain.
class TraceRecorder {
 private:
  struct Event {
    SimTime time = 0;
    std::string category;
    std::string name;
    std::vector<std::pair<std::string, std::string>> attrs;
  };

 public:
  using Attr = std::pair<std::string_view, std::string_view>;

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  void record(SimTime t, std::string_view category, std::string_view name,
              std::initializer_list<Attr> attrs = {}) {
    if (enabled_) append(t, category, name, attrs);
  }

  /// Read-side view of one recorded event. Views stay valid until the
  /// recorder is cleared or destroyed.
  class EventView {
   public:
    [[nodiscard]] SimTime time() const { return event().time; }
    [[nodiscard]] std::string_view category() const {
      return event().category;
    }
    [[nodiscard]] std::string_view name() const { return event().name; }
    [[nodiscard]] std::size_t attr_count() const {
      return event().attrs.size();
    }
    /// i-th attribute, in record order.
    [[nodiscard]] Attr attr_at(std::size_t i) const {
      return event().attrs[i];
    }
    /// Value of attribute `key`, or "" when absent.
    [[nodiscard]] std::string_view attr(std::string_view key) const {
      for (const auto& [k, v] : event().attrs) {
        if (k == key) return v;
      }
      return {};
    }

   private:
    friend class TraceRecorder;
    EventView(const TraceRecorder* tr, std::size_t index)
        : tr_(tr), index_(index) {}
    [[nodiscard]] const Event& event() const { return tr_->events_[index_]; }
    const TraceRecorder* tr_;
    std::size_t index_;
  };

  [[nodiscard]] std::size_t size() const { return events_.size(); }
  [[nodiscard]] bool empty() const { return events_.empty(); }
  [[nodiscard]] EventView event(std::size_t i) const {
    return EventView(this, i);
  }

  /// Events of a category, in record order; an empty `name` matches every
  /// name.
  [[nodiscard]] std::vector<EventView> find(
      std::string_view category, std::string_view name = {}) const;

  /// Number of events find() would return.
  [[nodiscard]] std::size_t count(std::string_view category,
                                  std::string_view name = {}) const {
    return find(category, name).size();
  }

  void clear() { events_.clear(); }

  /// CSV dump: time,category,name,key=value;key=value...
  void write_csv(std::ostream& os) const;

 private:
  void append(SimTime t, std::string_view category, std::string_view name,
              std::initializer_list<Attr> attrs);

  bool enabled_ = false;
  std::vector<Event> events_;
};

}  // namespace sf::sim
