#include "metrics/stream_stats.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace sf::stats {

std::size_t Histogram::index_of(std::uint64_t value) noexcept {
  if (value < kSub) return static_cast<std::size_t>(value);
  const int msb = static_cast<int>(std::bit_width(value)) - 1;
  if (msb >= 32) return kBuckets - 1;  // overflow bucket
  const int shift = msb - kSubBits;
  const std::uint64_t sub = value >> shift;  // in [kSub, 2*kSub)
  return static_cast<std::size_t>(shift + 1) * kSub +
         static_cast<std::size_t>(sub - kSub);
}

std::uint64_t Histogram::bucket_floor(std::size_t index) noexcept {
  if (index < kSub) return index;
  const std::size_t shift = index / kSub - 1;
  const std::uint64_t sub = index % kSub + kSub;
  return sub << shift;
}

void Histogram::record(std::uint64_t value) noexcept {
  ++counts_[index_of(value)];
  ++count_;
  sum_ += value;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

void Histogram::record_seconds(double seconds) noexcept {
  record(static_cast<std::uint64_t>(std::max(0.0, seconds) * 1e6));
}

std::uint64_t Histogram::min() const noexcept { return count_ == 0 ? 0 : min_; }

double Histogram::mean() const noexcept {
  return count_ == 0 ? 0.0
                     : static_cast<double>(sum_) / static_cast<double>(count_);
}

std::uint64_t Histogram::percentile(double p) const noexcept {
  if (count_ == 0) return 0;
  p = std::clamp(p, 0.0, 1.0);
  const double target = p * static_cast<double>(count_);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (counts_[i] == 0) continue;
    const std::uint64_t next = seen + counts_[i];
    if (static_cast<double>(next) >= target) {
      // Interpolate within the bucket; clamp to the observed extremes so
      // p=0/p=1 report the true min/max rather than bucket bounds.
      const std::uint64_t lo = bucket_floor(i);
      const std::uint64_t hi = bucket_floor(i + 1);
      const double frac =
          counts_[i] == 0
              ? 0.0
              : (target - static_cast<double>(seen)) /
                    static_cast<double>(counts_[i]);
      const auto v = static_cast<std::uint64_t>(
          static_cast<double>(lo) +
          frac * static_cast<double>(hi - lo));
      return std::clamp(v, min(), max_);
    }
    seen = next;
  }
  return max_;
}

double Histogram::percentile_seconds(double p) const noexcept {
  return static_cast<double>(percentile(p)) * 1e-6;
}

void Histogram::merge(const Histogram& other) noexcept {
  for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
  sum_ += other.sum_;
  if (other.count_ > 0) {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
}

void Histogram::clear() noexcept {
  counts_.fill(0);
  count_ = 0;
  sum_ = 0;
  min_ = ~std::uint64_t{0};
  max_ = 0;
}

void RollingHistogram::rotate(double now) noexcept {
  if (interval_s_ <= 0.0) return;
  const auto epoch = static_cast<std::uint64_t>(now / interval_s_);
  if (epoch == epoch_) return;
  if (epoch == epoch_ + 1) {
    prev_ = cur_;
  } else {
    prev_.clear();  // a whole interval went by with no activity
  }
  cur_.clear();
  epoch_ = epoch;
}

void RollingHistogram::record_seconds(double seconds, double now) noexcept {
  rotate(now);
  cur_.record_seconds(seconds);
}

double RollingHistogram::percentile_seconds(double p, double now) noexcept {
  rotate(now);
  if (prev_.count() == 0) return cur_.percentile_seconds(p);
  Histogram merged = cur_;
  merged.merge(prev_);
  return merged.percentile_seconds(p);
}

std::uint64_t RollingHistogram::window_count(double now) noexcept {
  rotate(now);
  return cur_.count() + prev_.count();
}

void RollingHistogram::clear() noexcept {
  cur_.clear();
  prev_.clear();
  epoch_ = 0;
}

CounterId StatsStore::counter(std::uint32_t scope_id, std::uint32_t name_id) {
  const auto [it, inserted] = counter_index_.try_emplace(
      key(scope_id, name_id), static_cast<std::uint32_t>(counters_.size()));
  if (inserted) counters_.push_back({scope_id, name_id, 0});
  return CounterId{it->second};
}

HistogramId StatsStore::histogram(std::uint32_t scope_id,
                                  std::uint32_t name_id) {
  const auto [it, inserted] = histogram_index_.try_emplace(
      key(scope_id, name_id), static_cast<std::uint32_t>(histograms_.size()));
  if (inserted) histograms_.push_back({scope_id, name_id, Histogram{}});
  return HistogramId{it->second};
}

CounterId StatsStore::find_counter(std::uint32_t scope_id,
                                   std::uint32_t name_id) const noexcept {
  const auto it = counter_index_.find(key(scope_id, name_id));
  return it == counter_index_.end() ? CounterId{} : CounterId{it->second};
}

}  // namespace sf::stats
