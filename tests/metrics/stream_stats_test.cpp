// sf::stats: log-linear bucket math, interpolated percentiles, rolling
// window rotation, flat-store handles — and a direct proof that the hot
// path (record/add through pre-created handles) allocates nothing.

#include "metrics/stream_stats.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

// Global-new instrumentation for the zero-alloc proof below. Counting is
// process-wide; the test only looks at the *delta* across the hot loop.
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}

// Out of line: once inlined into a caller, GCC pairs the std::free with
// the operator new there and reports -Wmismatched-new-delete.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace sf::stats {
namespace {

TEST(Histogram, SmallValuesLandInExactBuckets) {
  for (std::uint64_t v = 0; v < 16; ++v) {
    EXPECT_EQ(Histogram::index_of(v), v) << v;  // sub-buckets keep 8..15 exact
  }
}

TEST(Histogram, BucketFloorInvertsIndexOf) {
  for (std::uint64_t v : {0ull, 7ull, 8ull, 100ull, 1000ull, 123456ull,
                          1ull << 20, (1ull << 31) + 5, (1ull << 32) - 1}) {
    const std::size_t idx = Histogram::index_of(v);
    EXPECT_LE(Histogram::bucket_floor(idx), v) << v;
    EXPECT_GT(Histogram::bucket_floor(idx + 1), v) << v;
  }
}

TEST(Histogram, RelativeErrorBoundedBySubBuckets) {
  for (std::uint64_t v = 8; v < (1u << 20); v = v * 5 / 4 + 1) {
    const std::size_t idx = Histogram::index_of(v);
    const double lo = static_cast<double>(Histogram::bucket_floor(idx));
    const double hi = static_cast<double>(Histogram::bucket_floor(idx + 1));
    EXPECT_LE((hi - lo) / lo, 0.1251) << v;  // 1/8 per power-of-two range
  }
}

TEST(Histogram, OverflowValuesAreCaptured) {
  Histogram h;
  h.record(1ull << 40);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.max(), 1ull << 40);
  EXPECT_GE(h.percentile(0.99), 1ull << 32);
}

TEST(Histogram, PercentilesInterpolateAndStayMonotonic) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v * 100);  // 100..100k
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.min(), 100u);
  EXPECT_EQ(h.max(), 100000u);
  const std::uint64_t p50 = h.percentile(0.50);
  const std::uint64_t p90 = h.percentile(0.90);
  const std::uint64_t p99 = h.percentile(0.99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, h.max());
  // Log-linear resolution: p50 within 12.5% of the true median.
  EXPECT_NEAR(static_cast<double>(p50), 50000.0, 6300.0);
  EXPECT_NEAR(static_cast<double>(p99), 99000.0, 12500.0);
  EXPECT_EQ(h.percentile(0.0), h.min());
  EXPECT_EQ(h.percentile(1.0), h.max());
}

TEST(Histogram, MergeAndClear) {
  Histogram a;
  Histogram b;
  a.record(10);
  b.record(1000);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 1000u);
  EXPECT_EQ(a.sum(), 1010u);
  a.clear();
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.percentile(0.99), 0u);
}

TEST(Histogram, RecordSecondsUsesMicroseconds) {
  Histogram h;
  h.record_seconds(0.250);
  EXPECT_EQ(h.max(), 250000u);
  EXPECT_NEAR(h.percentile_seconds(1.0), 0.250, 1e-9);
}

TEST(RollingHistogram, WindowRotatesOnSimTime) {
  RollingHistogram r{10.0};
  r.record_seconds(1.0, 1.0);
  EXPECT_EQ(r.window_count(5.0), 1u);
  // Next interval: previous window still visible (two-bucket read).
  r.record_seconds(2.0, 12.0);
  EXPECT_EQ(r.window_count(12.0), 2u);
  // Two idle intervals later both buckets have aged out except the newest.
  EXPECT_EQ(r.window_count(35.0), 0u);
}

TEST(RollingHistogram, ZeroIntervalIsCumulative) {
  RollingHistogram r{0.0};
  r.record_seconds(1.0, 0.0);
  r.record_seconds(1.0, 1e9);
  EXPECT_EQ(r.window_count(2e9), 2u);
}

TEST(StatsStore, HandlesAreStableAndDeduplicated) {
  StatsStore store;
  const CounterId a = store.counter(1, 2);
  const CounterId b = store.counter(1, 2);
  const CounterId c = store.counter(1, 3);
  EXPECT_EQ(a.slot, b.slot);
  EXPECT_NE(a.slot, c.slot);
  store.add(a, 5);
  store.add(b, 2);
  EXPECT_EQ(store.value(a), 7u);
  EXPECT_EQ(store.value(c), 0u);
  EXPECT_EQ(store.counter_count(), 2u);
  EXPECT_TRUE(store.find_counter(1, 2).valid());
  EXPECT_FALSE(store.find_counter(9, 9).valid());
}

TEST(StatsStore, HistogramSlotsAndDeterministicIteration) {
  StatsStore store;
  const HistogramId h1 = store.histogram(10, 1);
  const HistogramId h2 = store.histogram(20, 1);
  store.record_seconds(h1, 0.001);
  store.record_seconds(h2, 0.002);
  std::vector<std::uint32_t> scopes;
  store.each_histogram([&](std::uint32_t scope, std::uint32_t, const Histogram& h) {
    scopes.push_back(scope);
    EXPECT_EQ(h.count(), 1u);
  });
  ASSERT_EQ(scopes.size(), 2u);  // creation order, not hash order
  EXPECT_EQ(scopes[0], 10u);
  EXPECT_EQ(scopes[1], 20u);
}

// The claim the micro-benches lean on: once handles exist, recording is
// allocation-free. Count global operator new across 10k records.
TEST(StatsStore, HotPathAllocatesNothing) {
  StatsStore store;
  const CounterId ok = store.counter(1, 1);
  const HistogramId lat = store.histogram(1, 2);
  RollingHistogram rolling{10.0};
  store.add(ok, 1);               // touch everything once before measuring
  store.record_seconds(lat, 0.01);
  rolling.record_seconds(0.01, 0.0);
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 10000; ++i) {
    store.add(ok, 1);
    store.record_seconds(lat, 0.001 * i);
    rolling.record_seconds(0.001 * i, 0.5 * i);  // rotates many times
  }
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u);
  EXPECT_EQ(store.value(ok), 10001u);
}

}  // namespace
}  // namespace sf::stats
