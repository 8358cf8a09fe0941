// Testbed-level metadata-tier tests: the planner resolving stage-in and
// stage-out through the CatalogService/CatalogClient stack, the
// stale-read-to-dead-node recovery story, and the catalog_outage fault
// channel's applied-vs-skipped contract.

#include <gtest/gtest.h>

#include <string>

#include "core/testbed.hpp"
#include "fault/injector.hpp"
#include "storage/volume.hpp"
#include "workload/generators.hpp"

namespace sf::core {
namespace {

TEST(CatalogTierTest, DisabledByDefault) {
  PaperTestbed tb(42);
  EXPECT_EQ(tb.catalog_service(), nullptr);
  EXPECT_EQ(tb.catalog_client(), nullptr);
}

TEST(CatalogTierTest, WorkflowsResolveThroughTheTier) {
  TestbedOptions opts;
  opts.catalog.enabled = true;
  PaperTestbed tb(42, opts);
  const auto result = tb.run_concurrent_mix(2, 3, metrics::MixPoint{1, 0, 0});
  EXPECT_TRUE(result.all_succeeded);
  ASSERT_NE(tb.catalog_service(), nullptr);
  // Every stage-in resolution and stage-out registration went over the
  // wire (or was answered by the tier's cache) — none bypassed it.
  EXPECT_GT(tb.catalog_service()->served(), 0u);
  EXPECT_GT(tb.catalog_client()->lookups(), 0u);
  EXPECT_EQ(tb.catalog_client()->errors(), 0u);
  // Drained at quiesce.
  EXPECT_EQ(tb.catalog_service()->in_flight(), 0u);
  EXPECT_EQ(tb.catalog_client()->in_flight_keys(), 0u);
}

TEST(CatalogTierTest, CacheAbsorbsRepeatedResolutions) {
  TestbedOptions opts;
  opts.catalog.enabled = true;
  opts.catalog.client.ttl_s = 3600;
  PaperTestbed tb(42, opts);
  const auto first = tb.run_concurrent_mix(1, 3, metrics::MixPoint{1, 0, 0});
  ASSERT_TRUE(first.all_succeeded);
  const auto calls_after_first = tb.catalog_client()->service_calls();
  // Identically shaped second run: different lfns (run prefix), so the
  // cache cannot hide them — but within each run the shared chain inputs
  // are resolved once, not once per consumer.
  const auto second = tb.run_concurrent_mix(1, 3, metrics::MixPoint{1, 0, 0});
  ASSERT_TRUE(second.all_succeeded);
  EXPECT_GT(tb.catalog_client()->service_calls(), calls_after_first);
  EXPECT_LE(tb.catalog_client()->cache_hits() +
                tb.catalog_client()->coalesced(),
            tb.catalog_client()->lookups());
}

// The ISSUE's stale-read hazard, end to end: the client's cached replica
// location points at a node that has since died (and whose authoritative
// entry is gone). The stage-in consulting the stale entry must fail FAST
// — invalidating the entry, not wedging on disk I/O a dead node will
// never complete — so the existing DAG-retry path re-resolves through
// the service and finds the live replica on the submit staging volume.
TEST(CatalogTierTest, StaleReadToDeadNodeRecoveredByDagRetry) {
  TestbedOptions opts;
  opts.catalog.enabled = true;
  opts.catalog.client.ttl_s = 3600;  // entry stays "fresh" — and wrong
  opts.dag_retries = 3;
  PaperTestbed tb(42, opts);

  const auto wf = workload::make_matmul_chain(
      "wf", 2, tb.calibration().matrix_bytes);

  // A replica of the chain's seed input lives on worker node 2, and is
  // registered FIRST, so it is the primary the tier hands out.
  storage::Volume wvol(tb.cluster().node(2), "wdisk");
  wvol.put_instant({"wf.m0", tb.calibration().matrix_bytes});
  tb.replicas().register_replica("wf.m0", wvol);

  // Warm the client cache with that location.
  bool warmed = false;
  tb.catalog_client()->lookup("wf.m0", [&](bool ok, storage::Volume* vol) {
    warmed = true;
    EXPECT_TRUE(ok);
    EXPECT_EQ(vol, &wvol);
  });
  while (!warmed && tb.sim().has_pending_events()) tb.sim().step();
  ASSERT_TRUE(warmed);

  // The node dies and its authoritative entry is cleaned up — but the
  // client's cached entry still steers to it.
  tb.cluster().node(2).fail();
  ASSERT_TRUE(tb.replicas().deregister_replica("wf.m0", wvol));

  const auto result = tb.run_workflows({wf}, {});
  EXPECT_TRUE(result.all_succeeded);
  // The stale hit was detected and dropped, and the re-resolution went
  // back over the wire.
  EXPECT_GE(tb.catalog_client()->service_calls(), 2u);
  EXPECT_EQ(tb.catalog_client()->in_flight_keys(), 0u);
}

TEST(CatalogTierTest, OutageChannelAppliesWithTierOn) {
  TestbedOptions opts;
  opts.catalog.enabled = true;
  PaperTestbed tb(42, opts);
  fault::FaultConfig cfg;
  cfg.horizon_s = 300;
  cfg.catalog_outage_mean_s = 40;
  cfg.catalog_outage_duration_s = 5;
  fault::FaultInjector injector(tb, cfg, /*seed=*/7);
  injector.arm();
  tb.sim().run_until(300.0);
  EXPECT_GT(injector.applied(fault::FaultKind::kCatalogOutage), 0u);
  EXPECT_EQ(injector.skipped(), 0u);
  // Heals: by plan end the service is reachable again.
  EXPECT_TRUE(tb.catalog_service()->available(tb.sim().now() + 5.0));
}

TEST(CatalogTierTest, OutageChannelSkippedWithoutTier) {
  PaperTestbed tb(42);  // no catalog tier
  fault::FaultConfig cfg;
  cfg.horizon_s = 300;
  cfg.catalog_outage_mean_s = 40;
  cfg.catalog_outage_duration_s = 5;
  fault::FaultInjector injector(tb, cfg, /*seed=*/7);
  injector.arm();
  tb.sim().run_until(300.0);
  EXPECT_EQ(injector.applied(fault::FaultKind::kCatalogOutage), 0u);
  EXPECT_GT(injector.skipped(), 0u);
}

// A mid-run outage heals and the workload still completes: the tier
// retries/degrades through the window, and revalidation afterwards
// repopulates the cache from the authoritative catalog.
TEST(CatalogTierTest, OutageMidRunHealsAndWorkloadCompletes) {
  TestbedOptions opts;
  opts.catalog.enabled = true;
  opts.catalog.client.ttl_s = 2.0;  // force revalidations during the run
  // Deterministic 47.5 s retry envelope with the breaker off: every
  // lookup grinds straight through the outage window, no DAG retry
  // needed — the assertion isolates the tier's own ride-through.
  opts.catalog.client.retry =
      fault::RetryPolicy{/*max_attempts=*/10, /*base_s=*/0.5, /*cap_s=*/8.0,
                         /*multiplier=*/2.0, /*jitter_ratio=*/0.0};
  opts.catalog.client.breaker_enabled = false;
  opts.dag_retries = 4;
  PaperTestbed tb(42, opts);
  // The outage covers the first stage-in burst: the first DAG nodes
  // execute after a DAGMan scan plus a 10 s negotiation cycle, so a
  // window reaching 25 s is guaranteed to overlap them.
  tb.catalog_service()->set_outage_until(tb.sim().now() + 25.0);
  const auto result = tb.run_concurrent_mix(2, 3, metrics::MixPoint{1, 0, 0});
  EXPECT_TRUE(result.all_succeeded);
  EXPECT_GT(tb.catalog_service()->outage_rejects(), 0u);
  EXPECT_GT(tb.catalog_client()->retries(), 0u);
  EXPECT_EQ(tb.catalog_service()->in_flight(), 0u);
}

}  // namespace
}  // namespace sf::core
