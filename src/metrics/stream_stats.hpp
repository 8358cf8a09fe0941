// Zero-alloc hot-path stats: flat counter slots keyed by interned ids and
// streaming log-linear histograms with fixed bucket arrays (the Envoy
// stats_impl / HdrHistogram shape). Everything is driven by caller-supplied
// sim time — the subsystem schedules no events and draws no randomness, so
// enabling it perturbs neither the event stream nor any fingerprint.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace sf::stats {

/// Streaming log-linear histogram over non-negative integer values
/// (callers typically record latencies in microseconds). Values below 8
/// land in exact unit buckets; above that each power-of-two range splits
/// into 8 sub-buckets, giving <= 12.5% relative error per bucket up to
/// ~2^32 with a fixed 242-slot array and no allocation ever.
class Histogram {
 public:
  static constexpr int kSubBits = 3;                       // 8 sub-buckets
  static constexpr std::size_t kSub = std::size_t{1} << kSubBits;
  static constexpr std::size_t kBuckets = (32 - kSubBits) * kSub + kSub + 1;

  /// Bucket index for a value (last slot is the overflow bucket).
  [[nodiscard]] static std::size_t index_of(std::uint64_t value) noexcept;
  /// Inclusive lower bound of a bucket; used for interpolation.
  [[nodiscard]] static std::uint64_t bucket_floor(std::size_t index) noexcept;

  void record(std::uint64_t value) noexcept;
  /// Convenience: record a duration in seconds as integer microseconds.
  void record_seconds(double seconds) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t sum() const noexcept { return sum_; }
  [[nodiscard]] std::uint64_t min() const noexcept;
  [[nodiscard]] std::uint64_t max() const noexcept { return max_; }
  [[nodiscard]] double mean() const noexcept;

  /// Interpolated value at quantile p in [0, 1]; 0 when empty.
  [[nodiscard]] std::uint64_t percentile(double p) const noexcept;
  [[nodiscard]] double percentile_seconds(double p) const noexcept;

  void merge(const Histogram& other) noexcept;
  void clear() noexcept;

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = ~std::uint64_t{0};
  std::uint64_t max_ = 0;
};

/// Two-bucket rolling histogram: records land in the current interval,
/// reads merge current + previous. Rotation is lazy on the caller-passed
/// sim time (deterministic flush — no scheduled events). Interval 0 means
/// "never rotate" (a plain cumulative histogram).
class RollingHistogram {
 public:
  explicit RollingHistogram(double interval_s = 0.0)
      : interval_s_(interval_s) {}

  void record_seconds(double seconds, double now) noexcept;
  /// Merged view of the current + previous intervals.
  [[nodiscard]] double percentile_seconds(double p, double now) noexcept;
  [[nodiscard]] std::uint64_t window_count(double now) noexcept;
  void clear() noexcept;

 private:
  void rotate(double now) noexcept;

  double interval_s_;
  std::uint64_t epoch_ = 0;  // floor(now / interval)
  Histogram cur_;
  Histogram prev_;
};

/// Handle types: indexes into the store's dense slot vectors. Stable for
/// the life of the store; cheap to copy and to resolve on the hot path.
struct CounterId {
  std::uint32_t slot = ~std::uint32_t{0};
  [[nodiscard]] bool valid() const noexcept { return slot != ~std::uint32_t{0}; }
};
struct HistogramId {
  std::uint32_t slot = ~std::uint32_t{0};
  [[nodiscard]] bool valid() const noexcept { return slot != ~std::uint32_t{0}; }
};

/// Flat stats store: entries are keyed by (scope_id, name_id) pairs of
/// caller-interned 32-bit ids. Creation (`counter()` / `histogram()`) may
/// allocate; the returned handles make the record path — `add()`,
/// `record_seconds()` — a bounds-unchecked vector index with no hashing,
/// no strings, and no allocation. Iteration order is creation order, so
/// dumps are deterministic.
class StatsStore {
 public:
  [[nodiscard]] CounterId counter(std::uint32_t scope_id,
                                  std::uint32_t name_id);
  [[nodiscard]] HistogramId histogram(std::uint32_t scope_id,
                                      std::uint32_t name_id);

  void add(CounterId id, std::uint64_t delta) noexcept {
    counters_[id.slot].value += delta;
  }
  void record_seconds(HistogramId id, double seconds) noexcept {
    histograms_[id.slot].hist.record_seconds(seconds);
  }

  [[nodiscard]] std::uint64_t value(CounterId id) const noexcept {
    return counters_[id.slot].value;
  }
  [[nodiscard]] const Histogram& hist(HistogramId id) const noexcept {
    return histograms_[id.slot].hist;
  }

  /// Lookup without creating; invalid handle when absent.
  [[nodiscard]] CounterId find_counter(std::uint32_t scope_id,
                                       std::uint32_t name_id) const noexcept;

  [[nodiscard]] std::size_t counter_count() const noexcept {
    return counters_.size();
  }
  [[nodiscard]] std::size_t histogram_count() const noexcept {
    return histograms_.size();
  }

  /// Visit every counter in creation order: f(scope_id, name_id, value).
  template <typename F>
  void each_counter(F&& f) const {
    for (const auto& c : counters_) f(c.scope_id, c.name_id, c.value);
  }
  /// Visit every histogram in creation order: f(scope_id, name_id, hist).
  template <typename F>
  void each_histogram(F&& f) const {
    for (const auto& h : histograms_) f(h.scope_id, h.name_id, h.hist);
  }

 private:
  struct CounterSlot {
    std::uint32_t scope_id = 0;
    std::uint32_t name_id = 0;
    std::uint64_t value = 0;
  };
  struct HistogramSlot {
    std::uint32_t scope_id = 0;
    std::uint32_t name_id = 0;
    Histogram hist;
  };
  static std::uint64_t key(std::uint32_t scope, std::uint32_t name) noexcept {
    return (std::uint64_t{scope} << 32) | name;
  }

  std::vector<CounterSlot> counters_;
  std::vector<HistogramSlot> histograms_;
  std::unordered_map<std::uint64_t, std::uint32_t> counter_index_;
  std::unordered_map<std::uint64_t, std::uint32_t> histogram_index_;
};

}  // namespace sf::stats
