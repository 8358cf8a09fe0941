// Property-fuzzer harness tests: case derivation is stable, runs are
// deterministic (bit-identical fingerprints on replay), pinned sweep
// points hold all properties, and the repro printer emits every field.

#include "check/fuzz.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace sf::check {
namespace {

// The tier-1 smoke sweep's pinned base seed (bench/fuzz_sim.cpp).
constexpr std::uint64_t kSmokeBase = 0xF0CC5EEDull;

TEST(FuzzCaseDerivation, SameSeedSameCase) {
  const FuzzCase a = random_case(kSmokeBase, 7);
  const FuzzCase b = random_case(kSmokeBase, 7);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.fault_seed, b.fault_seed);
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(a.faults.racks, b.faults.racks);
  EXPECT_EQ(a.workflows, b.workflows);
  EXPECT_EQ(a.tasks, b.tasks);
  EXPECT_EQ(a.serverless_fraction, b.serverless_fraction);
  EXPECT_EQ(a.prestage, b.prestage);
  EXPECT_EQ(a.min_scale, b.min_scale);
  EXPECT_EQ(a.faults.horizon_s, b.faults.horizon_s);
  for (const fault::Channel& ch : fault::kChannels) {
    EXPECT_EQ(a.faults.*ch.mean, b.faults.*ch.mean) << ch.name;
  }
}

TEST(FuzzCaseDerivation, DistinctIndicesDiffer) {
  const FuzzCase a = random_case(kSmokeBase, 0);
  const FuzzCase b = random_case(kSmokeBase, 1);
  EXPECT_NE(a.seed, b.seed);  // forked roots, not sequential draws
}

TEST(FuzzCaseDerivation, FieldsStayInRange) {
  for (std::uint64_t i = 0; i < 64; ++i) {
    const FuzzCase c = random_case(kSmokeBase, i);
    EXPECT_GE(c.nodes, 3);
    EXPECT_LE(c.nodes, 5);
    EXPECT_GE(c.faults.racks, 1u);
    EXPECT_LE(c.faults.racks, 2u);
    EXPECT_GE(c.workflows, 1);
    EXPECT_LE(c.workflows, 3);
    EXPECT_GE(c.tasks, 2);
    EXPECT_LE(c.tasks, 5);
    EXPECT_GE(c.serverless_fraction, 0.0);
    EXPECT_LE(c.serverless_fraction, 1.0);
    EXPECT_GE(c.faults.horizon_s, 240.0);
    EXPECT_LE(c.faults.horizon_s, 420.0);
    for (const fault::Channel& ch : fault::kChannels) {
      const double mean = c.faults.*ch.mean;
      EXPECT_TRUE(mean == 0.0 || mean >= 0.3 * c.faults.horizon_s)
          << ch.name;
    }
  }
}

TEST(FuzzCaseDerivation, OpenLoopFieldsStayInRange) {
  int axis_on = 0;
  for (std::uint64_t i = 0; i < 64; ++i) {
    const FuzzCase c = random_case(kSmokeBase, i);
    if (c.openloop_users == 0) {
      EXPECT_EQ(c.openloop_rate_hz, 0.0);  // both off together
      continue;
    }
    ++axis_on;
    EXPECT_GE(c.openloop_users, 2);
    EXPECT_LE(c.openloop_users, 4);
    EXPECT_GE(c.openloop_rate_hz, 0.5);
    EXPECT_LE(c.openloop_rate_hz, 1.5);
  }
  EXPECT_GT(axis_on, 0);  // ~1/3 of cases carry ambient traffic
  EXPECT_LT(axis_on, 64);
}

TEST(FuzzRun, PinnedSmokePointHoldsAllProperties) {
  const FuzzOutcome out = run_case_checked(random_case(kSmokeBase, 0));
  EXPECT_TRUE(out.ok) << out.detail;
  EXPECT_TRUE(out.finished);
  EXPECT_TRUE(out.replayed);
  EXPECT_TRUE(out.replay_match);
  EXPECT_EQ(out.violation_count, 0u);
  EXPECT_GT(out.slowest, 0.0);
}

TEST(FuzzRun, FingerprintIsReproducible) {
  const FuzzCase c = random_case(kSmokeBase, 3);
  const FuzzOutcome a = run_case(c);
  const FuzzOutcome b = run_case(c);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.slowest, b.slowest);
  EXPECT_EQ(a.violation_count, b.violation_count);
}

TEST(FuzzRun, DifferentSeedsDifferentFingerprints) {
  const FuzzOutcome a = run_case(random_case(kSmokeBase, 1));
  const FuzzOutcome b = run_case(random_case(kSmokeBase, 2));
  EXPECT_NE(a.fingerprint, b.fingerprint);
}

TEST(FuzzRun, OpenLoopAxisIssuesAndDrainsTraffic) {
  FuzzCase c;  // calm defaults; turn only the traffic axis on
  c.openloop_users = 3;
  c.openloop_rate_hz = 1.0;
  const FuzzOutcome out = run_case(c);
  EXPECT_TRUE(out.ok) << out.detail;  // ok requires the engine drained
  EXPECT_GT(out.openloop_issued, 0u);
  // ~3 users x 1 Hz over the min(120, horizon/2) = 120 s arrival window.
  EXPECT_NEAR(static_cast<double>(out.openloop_issued), 360.0, 120.0);
}

// The registry's counters prove each invariant ran against real state:
// a fault-heavy case with serverless tasks, warm pods and ambient
// open-loop traffic must leave no invariant vacuous — every probe armed
// and at least one subject examined. Guards against an invariant
// silently iterating an empty collection forever (e.g. after a rename
// or a store refactor disconnects its accessor).
TEST(FuzzRun, EveryInvariantExercisedNonVacuously) {
  FuzzCase c;
  c.seed = 11;
  c.nodes = 4;
  c.faults.racks = 2;
  c.workflows = 2;
  c.tasks = 3;
  c.serverless_fraction = 0.5;
  c.min_scale = 1;
  c.openloop_users = 2;
  c.openloop_rate_hz = 1.0;
  c.outlier_detection = true;  // arms the ejection-filter invariants
  c.catalog_service = true;    // arms the metadata-tier invariants
  c.faults.horizon_s = 240;
  c.faults.node_crash_mean_s = 60;  // dense enough that faults certainly fire
  c.faults.pod_kill_mean_s = 60;
  const FuzzOutcome out = run_case(c);
  EXPECT_TRUE(out.ok) << out.detail;
  ASSERT_FALSE(out.invariants.empty());
  for (const auto& inv : out.invariants) {
    EXPECT_GT(inv.evaluations, 0u) << inv.name << " was never armed";
    EXPECT_GT(inv.exercised, 0u) << inv.name << " passed vacuously";
  }
}

TEST(FuzzShrink, PassingCaseIsReturnedUntouched) {
  FuzzCase calm;  // defaults: no fault channels, tiny workload
  const ShrinkResult res = shrink(calm, 50);
  EXPECT_TRUE(res.outcome.ok);
  EXPECT_EQ(res.trials, 1);  // one verification run, no search
  EXPECT_EQ(res.reduced.workflows, calm.workflows);
}

TEST(FuzzRepro, PrintsEveryField) {
  const FuzzCase c = random_case(kSmokeBase, 5);
  const std::string repro = to_cpp_repro(c);
  EXPECT_NE(repro.find("TEST(FuzzRegression, Case5)"), std::string::npos);
  EXPECT_NE(repro.find("c.seed = 0x"), std::string::npos);
  EXPECT_NE(repro.find("c.fault_seed = 0x"), std::string::npos);
  EXPECT_NE(repro.find("c.nodes = "), std::string::npos);
  EXPECT_NE(repro.find("c.faults.horizon_s = "), std::string::npos);
  EXPECT_NE(repro.find("c.faults.racks = "), std::string::npos);
  EXPECT_NE(repro.find("c.openloop_users = "), std::string::npos);
  EXPECT_NE(repro.find("c.openloop_rate_hz = "), std::string::npos);
  EXPECT_NE(repro.find("c.outlier_detection = "), std::string::npos);
  for (const fault::Channel& ch : fault::kChannels) {
    EXPECT_NE(repro.find(std::string("c.faults.") + ch.name + " = "),
              std::string::npos)
        << ch.name;
  }
  EXPECT_NE(repro.find("EXPECT_TRUE(out.ok)"), std::string::npos);
}

TEST(FuzzChannels, CoverAllTwelveFaultChannels) {
  static_assert(fault::kChannels.size() == 12);
  std::vector<FuzzCase> cases;
  for (std::uint64_t i = 0; i < 64; ++i) {
    cases.push_back(random_case(kSmokeBase, i));
  }
  // Every channel is drawn on in some smoke cases and off in others.
  for (const fault::Channel& ch : fault::kChannels) {
    int on = 0;
    for (const FuzzCase& c : cases) {
      if (c.faults.*ch.mean > 0) ++on;
    }
    EXPECT_GT(on, 0) << ch.name;
    EXPECT_LT(on, 64) << ch.name;
  }
}

TEST(FuzzCaseDerivation, OutlierAxisFlipsOnSometimes) {
  int axis_on = 0;
  for (std::uint64_t i = 0; i < 64; ++i) {
    if (random_case(kSmokeBase, i).outlier_detection) ++axis_on;
  }
  EXPECT_GT(axis_on, 0);  // ~1/3 of cases exercise the ejection filter
  EXPECT_LT(axis_on, 64);
}

}  // namespace
}  // namespace sf::check
