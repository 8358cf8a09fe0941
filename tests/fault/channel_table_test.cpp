// The fault-channel table: the plan it drives is pinned byte for byte,
// each row's events are exactly what zeroing that row's mean removes (the
// property the fuzz shrinker's channel bisection relies on), and the
// settle pad covers every enabled channel's longest window.

#include "fault/injector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <iterator>
#include <vector>

namespace sf::fault {
namespace {

/// Every channel on, dense enough that each lands several arrivals.
FaultConfig all_twelve() {
  FaultConfig cfg;
  cfg.horizon_s = 600;
  cfg.racks = 4;
  cfg.node_crash_mean_s = 60;
  cfg.pull_outage_mean_s = 45;
  cfg.pod_kill_mean_s = 40;
  cfg.degrade_mean_s = 30;
  cfg.partition_mean_s = 50;
  cfg.rack_fail_mean_s = 120;
  cfg.rack_partition_mean_s = 90;
  cfg.deploy_storm_mean_s = 100;
  cfg.cpu_slow_mean_s = 70;
  cfg.flaky_nic_mean_s = 65;
  cfg.oneway_partition_mean_s = 55;
  cfg.catalog_outage_mean_s = 80;
  return cfg;
}

/// Order-sensitive digest of every field of every event.
std::uint64_t digest(const std::vector<FaultEvent>& plan) {
  std::uint64_t h = plan.size();
  auto fold = [&h](std::uint64_t v) { h = SplitMix64::mix(h, v); };
  for (const FaultEvent& ev : plan) {
    fold(std::bit_cast<std::uint64_t>(ev.at));
    fold(static_cast<std::uint64_t>(ev.kind));
    fold(ev.node);
    fold(ev.peer);
    fold(std::bit_cast<std::uint64_t>(ev.duration_s));
    fold(std::bit_cast<std::uint64_t>(ev.factor));
    fold(ev.pick);
    fold(ev.incident);
  }
  return h;
}

/// True when `ev` came from channel `ch`: correlated channels own their
/// incident-id block, independent ones own their kind's zero-incident
/// events.
bool from_channel(const FaultEvent& ev, const Channel& ch) {
  if (ch.incident_base != 0) {
    return ev.incident > ch.incident_base &&
           ev.incident < ch.incident_base + 0x10000;
  }
  return ev.kind == ch.kind && ev.incident == 0;
}

// The plan is part of the determinism contract: every recorded chaos and
// fuzz result depends on these digests, so they never move.
TEST(ChannelTable, PinnedPlanIsByteIdentical) {
  const FaultConfig cfg = all_twelve();
  const auto a = make_fault_plan(1, cfg, 16);
  const auto b = make_fault_plan(7, cfg, 16);
  EXPECT_EQ(a.size(), 169u);
  EXPECT_EQ(digest(a), 0x1c16dd43797e98c5ull);
  EXPECT_EQ(b.size(), 141u);
  EXPECT_EQ(digest(b), 0x2f37e756b2d60df9ull);
}

TEST(ChannelTable, EachRowIsolatesItsChannel) {
  const FaultConfig all = all_twelve();
  for (const std::uint64_t seed : {1u, 7u}) {
    const auto full = make_fault_plan(seed, all, 16);
    for (const Channel& ch : kChannels) {
      std::vector<FaultEvent> minus;
      std::copy_if(full.begin(), full.end(), std::back_inserter(minus),
                   [&ch](const FaultEvent& ev) {
                     return !from_channel(ev, ch);
                   });
      EXPECT_LT(minus.size(), full.size()) << ch.name << " planned nothing";
      FaultConfig off = all;
      off.*ch.mean = 0;
      EXPECT_EQ(minus, make_fault_plan(seed, off, 16)) << ch.name;
    }
  }
}

TEST(ChannelTable, HealWindowCoversTheLongestEnabledWindow) {
  FaultConfig cfg;
  EXPECT_EQ(heal_window_s(cfg, 8), 0.0);  // all channels off
  cfg.pod_kill_mean_s = 10;
  EXPECT_EQ(heal_window_s(cfg, 8), 0.0);  // a kill has no window
  cfg.deploy_storm_mean_s = 10;
  EXPECT_EQ(heal_window_s(cfg, 8),
            cfg.deploy_storm_outage_s + cfg.deploy_storm_spread_s);
  cfg.rack_fail_mean_s = 10;
  EXPECT_EQ(heal_window_s(cfg, 8),
            cfg.rack_fail_downtime_s + cfg.rack_fail_stagger_s * 8);
  cfg.cpu_slow_mean_s = 10;
  cfg.cpu_slow_duration_s = 500;
  EXPECT_EQ(heal_window_s(cfg, 8), 500.0);
}

}  // namespace
}  // namespace sf::fault
