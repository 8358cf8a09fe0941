// The fuzz-repro bank.
//
// When a fuzz sweep fails (scripts/fuzz.sh --sweep, or the nightly
// date-rotated run), the shrinker prints a minimal `TEST(FuzzRegression,
// CaseN)` block. The banking workflow:
//
//   1. Paste the printed test into this file verbatim. If the sweep's
//      base seed was date-derived, keep the printed field values — they
//      pin the case forever; the seed that found it is irrelevant.
//   2. Rename it after the bug, not the sweep index (`Case17` from two
//      different nights will collide): e.g. `ClaimLeakOnRackFailure`.
//   3. Fix the bug. The banked case must pass before the fix lands, and
//      it keeps running in tier-1 forever — a failing sweep becomes a
//      permanent regression test instead of a lost stderr log.
//
// Cases here are exhaustively field-initialized (to_cpp_repro prints
// every field), so they survive future FuzzCase default changes.

#include "check/fuzz.hpp"

#include <gtest/gtest.h>

namespace sf::check {
namespace {

// Bank seed: a representative hard case kept from the sweep that
// validated the open-loop traffic axis — crashes, pod kills and a rack
// partition under ambient serving load plus a half-serverless DAG mix.
// Documents the banked-case shape; it has always passed.
TEST(FuzzRegression, CrashKillRackPartitionUnderOpenLoopLoad) {
  sf::check::FuzzCase c;
  c.id = 0ull;
  c.seed = 0xb4a2c0deull;
  c.fault_seed = 0xc4405eedull;
  c.nodes = 4;
  c.workflows = 2;
  c.tasks = 3;
  c.dag_retries = 4;
  c.serverless_fraction = 0.5;
  c.prestage = true;
  c.min_scale = 1;
  c.request_timeout_s = 30;
  c.outlier_detection = false;
  c.catalog_service = false;
  c.openloop_users = 2;
  c.openloop_rate_hz = 1;
  c.faults.horizon_s = 240;
  c.faults.racks = 2;
  c.faults.node_crash_mean_s = 90;
  c.faults.pull_outage_mean_s = 0;
  c.faults.pod_kill_mean_s = 90;
  c.faults.degrade_mean_s = 0;
  c.faults.partition_mean_s = 0;
  c.faults.rack_fail_mean_s = 0;
  c.faults.rack_partition_mean_s = 150;
  c.faults.deploy_storm_mean_s = 0;
  c.faults.cpu_slow_mean_s = 0;
  c.faults.flaky_nic_mean_s = 0;
  c.faults.oneway_partition_mean_s = 0;
  c.faults.catalog_outage_mean_s = 0;
  const auto out = sf::check::run_case_checked(c);
  EXPECT_TRUE(out.ok) << out.detail;
}

}  // namespace
}  // namespace sf::check
