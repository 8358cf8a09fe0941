// Mutation smoke-check: prove the invariant registry actually detects a
// planted bug. The test-only hook in CondorPool keeps a crashed node's
// claims alive (skipping both the claim drop and the startd reset) —
// the classic "forgot to release on the failure path" leak. With the
// hook on, the registry must fire; with it off, the identical run must
// be spotless. A registry that passes both ways tests nothing.

#include <gtest/gtest.h>

#include "check/fuzz.hpp"

namespace sf::check {
namespace {

/// Crash-heavy all-native case: claims are held for most of the run, so
/// a crash window reliably overlaps held claims. Pinned — the mutation
/// must be caught deterministically, not probabilistically.
FuzzCase leaky_case() {
  FuzzCase c;
  c.nodes = 4;
  c.workflows = 3;
  c.tasks = 5;
  c.serverless_fraction = 0;  // all tasks run on condor claims
  c.faults.node_crash_mean_s = 25;
  c.faults.horizon_s = 300;
  c.plant_claim_leak = true;
  return c;
}

TEST(MutationCheck, RegistryDetectsPlantedClaimLeak) {
  const FuzzOutcome out = run_case(leaky_case());
  EXPECT_FALSE(out.ok);
  EXPECT_GT(out.violation_count, 0u);
  // The leak shows up as claims parked on a crashed (down) node.
  EXPECT_NE(out.detail.find("condor.pool"), std::string::npos) << out.detail;
  EXPECT_NE(out.detail.find("down node"), std::string::npos) << out.detail;
}

TEST(MutationCheck, IdenticalRunWithoutMutationIsClean) {
  FuzzCase c = leaky_case();
  c.plant_claim_leak = false;
  const FuzzOutcome out = run_case(c);
  EXPECT_TRUE(out.ok) << out.detail;
  EXPECT_EQ(out.violation_count, 0u);
}

TEST(MutationCheck, ShrinkerReducesTheLeakCase) {
  // Start from a noisy superset of the failing case: extra channels and
  // a bigger workload. The shrinker must strip the irrelevant channels
  // and still end on a failing case.
  FuzzCase c = leaky_case();
  c.nodes = 5;
  c.faults.racks = 2;
  c.faults.pod_kill_mean_s = 120;
  c.faults.degrade_mean_s = 150;
  c.faults.flaky_nic_mean_s = 200;
  c.faults.horizon_s = 420;

  const ShrinkResult res = shrink(c, 120);
  EXPECT_FALSE(res.outcome.ok);
  EXPECT_GT(res.trials, 1);
  EXPECT_LE(res.trials, 120);

  // The planted bug needs crashes; every other channel is noise.
  EXPECT_GT(res.reduced.faults.node_crash_mean_s, 0.0);
  EXPECT_EQ(res.reduced.faults.pod_kill_mean_s, 0.0);
  EXPECT_EQ(res.reduced.faults.degrade_mean_s, 0.0);
  EXPECT_EQ(res.reduced.faults.flaky_nic_mean_s, 0.0);
  EXPECT_LE(res.reduced.workflows, c.workflows);
  EXPECT_LE(res.reduced.faults.horizon_s, c.faults.horizon_s);

  // And the reduction prints as a pasteable regression test.
  const std::string repro = to_cpp_repro(res.reduced);
  EXPECT_NE(repro.find("TEST(FuzzRegression"), std::string::npos);
  EXPECT_NE(repro.find("c.plant_claim_leak = true;"), std::string::npos);
  EXPECT_NE(repro.find("run_case_checked"), std::string::npos);
}

TEST(MutationCheck, ShrinkOfTheLeakCaseIsPinned) {
  // Every structural reduction applies to this case, so the pinned trial
  // count takes one trial per applicable step of each pass, and the repro
  // pins where the shrink ends.
  FuzzCase c = leaky_case();
  c.nodes = 5;
  c.faults.racks = 2;
  c.min_scale = 1;
  c.prestage = false;
  c.request_timeout_s = 30;
  c.outlier_detection = true;
  c.serverless_fraction = 0.5;
  c.openloop_users = 2;
  c.openloop_rate_hz = 1.0;
  c.catalog_service = true;
  c.faults.degrade_mean_s = 150;

  const ShrinkResult res = shrink(c, 40);
  EXPECT_FALSE(res.outcome.ok);
  EXPECT_EQ(res.trials, 19);
  EXPECT_EQ(to_cpp_repro(res.reduced), R"repro(// Shrunk fuzz failure — paste into tests/check/ and add the
// file to the check_test target. Fields are set exhaustively
// so the case survives future default changes.
TEST(FuzzRegression, Case0) {
  sf::check::FuzzCase c;
  c.id = 0ull;
  c.seed = 0x2aull;
  c.fault_seed = 0xc4405eedull;
  c.nodes = 3;
  c.workflows = 1;
  c.tasks = 2;
  c.dag_retries = 4;
  c.serverless_fraction = 0;
  c.prestage = true;
  c.min_scale = 0;
  c.request_timeout_s = 0;
  c.outlier_detection = false;
  c.catalog_service = false;
  c.openloop_users = 0;
  c.openloop_rate_hz = 0;
  c.faults.horizon_s = 120;
  c.faults.racks = 1;
  c.faults.node_crash_mean_s = 25;
  c.faults.pull_outage_mean_s = 0;
  c.faults.pod_kill_mean_s = 0;
  c.faults.degrade_mean_s = 0;
  c.faults.partition_mean_s = 0;
  c.faults.rack_fail_mean_s = 0;
  c.faults.rack_partition_mean_s = 0;
  c.faults.deploy_storm_mean_s = 0;
  c.faults.cpu_slow_mean_s = 0;
  c.faults.flaky_nic_mean_s = 0;
  c.faults.oneway_partition_mean_s = 0;
  c.faults.catalog_outage_mean_s = 0;
  c.plant_claim_leak = true;
  const auto out = sf::check::run_case_checked(c);
  EXPECT_TRUE(out.ok) << out.detail;
}
)repro");
}

}  // namespace
}  // namespace sf::check
