#include "catalog/catalog.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "sim/simulation.hpp"
#include "storage/replica_catalog.hpp"
#include "storage/volume.hpp"

namespace sf::catalog {
namespace {

/// Service on node 0, client on node 1: every fetch pays two real network
/// hops plus the service time, so async ordering is exercised for real.
class CatalogTest : public ::testing::Test {
 protected:
  sim::Simulation sim{42};
  std::unique_ptr<cluster::Cluster> cl = cluster::make_paper_testbed(sim);
  storage::Volume disk{cl->node(1), "disk"};
  storage::Volume other{cl->node(2), "other"};
  storage::ReplicaCatalog rc;
  CatalogServiceConfig scfg;

  std::unique_ptr<CatalogService> service;
  std::unique_ptr<CatalogClient> client;

  void build(CatalogClientConfig ccfg = {}) {
    service = std::make_unique<CatalogService>(
        sim, cl->network(), cl->node(0).net_id(), rc, scfg);
    client = std::make_unique<CatalogClient>(sim, *service,
                                             cl->node(1).net_id(), ccfg);
  }

  /// resolve("k<i>"). Appends rather than writing "k" + std::to_string(i),
  /// which GCC 12 flags with a false -Wrestrict at -O3.
  std::pair<bool, storage::Volume*> resolve_key(int i) {
    std::string lfn = "k";
    lfn += std::to_string(i);
    return resolve(lfn);
  }

  /// One lookup driven to completion; returns (ok, volume).
  std::pair<bool, storage::Volume*> resolve(const std::string& lfn) {
    bool done = false;
    bool ok = false;
    storage::Volume* vol = nullptr;
    client->lookup(lfn, [&](bool k, storage::Volume* v) {
      done = true;
      ok = k;
      vol = v;
    });
    while (!done && sim.has_pending_events()) sim.step();
    EXPECT_TRUE(done);
    return {ok, vol};
  }

  void advance_to(double t) {
    if (t > sim.now()) sim.run_until(t);
  }
};

// ---- Service --------------------------------------------------------

TEST_F(CatalogTest, ServiceResolvesRegisteredReplica) {
  rc.register_replica("f", disk);
  build();
  const auto [ok, vol] = resolve("f");
  EXPECT_TRUE(ok);
  EXPECT_EQ(vol, &disk);
  EXPECT_EQ(service->requests(), 1u);
  EXPECT_EQ(service->served(), 1u);
  EXPECT_EQ(client->service_calls(), 1u);
  // The answer took real time: two hops plus the service slot.
  EXPECT_GT(sim.now(), 0.0);
}

TEST_F(CatalogTest, ServiceAnswersAuthoritativeNegative) {
  build();
  const auto [ok, vol] = resolve("missing");
  // "No such entry" is a successful answer, not a failure.
  EXPECT_TRUE(ok);
  EXPECT_EQ(vol, nullptr);
  EXPECT_EQ(client->errors(), 0u);
}

TEST_F(CatalogTest, ServiceOutageRefusesUntilHeal) {
  rc.register_replica("f", disk);
  // Deterministic ladder (0.5/1/2/4 s, no jitter) reaches past the 3 s
  // outage, and the breaker is off so nothing cuts the ladder short.
  CatalogClientConfig ccfg;
  ccfg.retry = fault::RetryPolicy{/*max_attempts=*/8, /*base_s=*/0.5,
                                  /*cap_s=*/8.0, /*multiplier=*/2.0,
                                  /*jitter_ratio=*/0.0};
  ccfg.breaker_enabled = false;
  build(ccfg);
  service->set_outage_until(sim.now() + 3.0);
  EXPECT_FALSE(service->available(sim.now()));
  const auto [ok, vol] = resolve("f");
  EXPECT_TRUE(ok);
  EXPECT_EQ(vol, &disk);
  EXPECT_GT(client->retries(), 0u);
  EXPECT_GT(service->outage_rejects(), 0u);
  EXPECT_TRUE(service->available(sim.now()));
}

TEST_F(CatalogTest, ServiceOutageExtendsNeverShrinks) {
  build();
  service->set_outage_until(10.0);
  service->set_outage_until(5.0);  // ignored: monotonic
  EXPECT_FALSE(service->available(9.9));
  EXPECT_TRUE(service->available(10.0));
}

TEST_F(CatalogTest, ServiceShedsPastBoundedQueue) {
  scfg.max_connections = 1;
  scfg.max_queue = 1;
  rc.register_replica("f", disk);
  build();
  int ok_count = 0;
  int shed_count = 0;
  for (int i = 0; i < 4; ++i) {
    service->lookup_replica(cl->node(1).net_id(), "f",
                            [&](CatalogReply reply) {
                              if (reply.ok) ++ok_count;
                              if (reply.overloaded) ++shed_count;
                            });
  }
  sim.run();
  // One in service, one queued, two shed at the bound.
  EXPECT_EQ(ok_count, 2);
  EXPECT_EQ(shed_count, 2);
  EXPECT_EQ(service->overload_sheds(), 2u);
  EXPECT_EQ(service->queued(), 1u);
  EXPECT_EQ(service->peak_queue_depth(), 1u);
  EXPECT_EQ(service->in_flight(), 0u);
}

// ---- Client cache ---------------------------------------------------

TEST_F(CatalogTest, FreshEntryAnswersLocally) {
  rc.register_replica("f", disk);
  build();
  resolve("f");
  const auto [ok, vol] = resolve("f");
  EXPECT_TRUE(ok);
  EXPECT_EQ(vol, &disk);
  EXPECT_EQ(client->service_calls(), 1u);
  EXPECT_EQ(client->cache_hits(), 1u);
}

TEST_F(CatalogTest, TtlExpiryRevalidatesAgainstSimTime) {
  rc.register_replica("f", disk);
  CatalogClientConfig ccfg;
  ccfg.ttl_s = 10.0;
  build(ccfg);
  resolve("f");
  // One tick short of expiry: still a local hit.
  advance_to(sim.now() + 9.0);
  resolve("f");
  EXPECT_EQ(client->service_calls(), 1u);
  // Past expiry: the entry is revalidated over the wire.
  advance_to(sim.now() + 2.0);
  const auto [ok, vol] = resolve("f");
  EXPECT_TRUE(ok);
  EXPECT_EQ(vol, &disk);
  EXPECT_EQ(client->service_calls(), 2u);
  EXPECT_EQ(client->cache_hits(), 1u);
}

TEST_F(CatalogTest, NegativeEntriesCachedBriefly) {
  CatalogClientConfig ccfg;
  ccfg.negative_ttl_s = 2.0;
  build(ccfg);
  resolve("missing");
  resolve("missing");
  EXPECT_EQ(client->service_calls(), 1u);
  EXPECT_EQ(client->negative_hits(), 1u);
  // Negative entries expire on their own (shorter) clock.
  advance_to(sim.now() + 3.0);
  resolve("missing");
  EXPECT_EQ(client->service_calls(), 2u);
}

TEST_F(CatalogTest, InvalidateDropsEntry) {
  rc.register_replica("f", disk);
  build();
  resolve("f");
  EXPECT_EQ(client->cache_size(), 1u);
  client->invalidate("f");
  EXPECT_EQ(client->cache_size(), 0u);
  resolve("f");
  EXPECT_EQ(client->service_calls(), 2u);
}

// ---- Single-flight --------------------------------------------------

TEST_F(CatalogTest, ColdStampedeCoalescesToOneFetch) {
  rc.register_replica("f", disk);
  build();
  int done = 0;
  std::vector<storage::Volume*> answers;
  for (int i = 0; i < 8; ++i) {
    client->lookup("f", [&](bool ok, storage::Volume* vol) {
      EXPECT_TRUE(ok);
      answers.push_back(vol);
      ++done;
    });
  }
  EXPECT_EQ(client->in_flight_keys(), 1u);
  while (done < 8 && sim.has_pending_events()) sim.step();
  ASSERT_EQ(done, 8);
  for (storage::Volume* vol : answers) EXPECT_EQ(vol, &disk);
  EXPECT_EQ(client->service_calls(), 1u);
  EXPECT_EQ(client->coalesced(), 7u);
  EXPECT_EQ(service->requests(), 1u);
  EXPECT_EQ(client->in_flight_keys(), 0u);
}

TEST_F(CatalogTest, NaiveArmSendsEveryLookup) {
  rc.register_replica("f", disk);
  CatalogClientConfig ccfg;
  ccfg.cache_enabled = false;
  build(ccfg);
  int done = 0;
  for (int i = 0; i < 3; ++i) {
    client->lookup("f", [&](bool ok, storage::Volume*) {
      EXPECT_TRUE(ok);
      ++done;
    });
  }
  while (done < 3 && sim.has_pending_events()) sim.step();
  EXPECT_EQ(client->service_calls(), 3u);
  EXPECT_EQ(client->coalesced(), 0u);
  EXPECT_EQ(service->requests(), 3u);
}

// ---- Circuit breaker ------------------------------------------------

/// Breaker config where every lookup is exactly one failed service call
/// (no retries), so trip points are easy to count.
CatalogClientConfig one_shot_breaker() {
  CatalogClientConfig ccfg;
  ccfg.retry = fault::RetryPolicy{/*max_attempts=*/1, 0.2, 5.0, 2.0, 0.0};
  ccfg.breaker_failures = 3;
  ccfg.breaker_open_s = 10.0;
  return ccfg;
}

TEST_F(CatalogTest, BreakerOpensAfterConsecutiveFailures) {
  build(one_shot_breaker());
  service->set_outage_until(sim.now() + 1000.0);
  for (int i = 0; i < 3; ++i) {
    const auto [ok, vol] = resolve_key(i);
    EXPECT_FALSE(ok);
    EXPECT_EQ(vol, nullptr);
  }
  EXPECT_EQ(client->breaker_state(), BreakerState::kOpen);
  EXPECT_EQ(client->breaker_opens(), 1u);
  EXPECT_EQ(client->service_calls(), 3u);
  // With the breaker open, lookups fail fast without touching the wire.
  const auto [ok, vol] = resolve("k3");
  EXPECT_FALSE(ok);
  EXPECT_EQ(vol, nullptr);
  EXPECT_EQ(client->service_calls(), 3u);
  EXPECT_EQ(client->calls_while_open(), 0u);
}

TEST_F(CatalogTest, HalfOpenProbeClosesOnHealthyService) {
  rc.register_replica("f", disk);
  build(one_shot_breaker());
  service->set_outage_until(sim.now() + 5.0);
  for (int i = 0; i < 3; ++i) resolve_key(i);
  ASSERT_EQ(client->breaker_state(), BreakerState::kOpen);
  // Open window (10 s) outlasts the outage (5 s): the probe finds the
  // service healthy and the breaker snaps closed.
  advance_to(sim.now() + 11.0);
  const auto [ok, vol] = resolve("f");
  EXPECT_TRUE(ok);
  EXPECT_EQ(vol, &disk);
  EXPECT_EQ(client->breaker_state(), BreakerState::kClosed);
  EXPECT_EQ(client->calls_while_open(), 0u);
}

TEST_F(CatalogTest, HalfOpenProbeFailureReopens) {
  build(one_shot_breaker());
  service->set_outage_until(sim.now() + 1000.0);
  for (int i = 0; i < 3; ++i) resolve_key(i);
  ASSERT_EQ(client->breaker_state(), BreakerState::kOpen);
  advance_to(sim.now() + 11.0);
  // Window elapsed, outage persists: the probe fails and re-arms a full
  // open window.
  const auto [ok, vol] = resolve("probe");
  EXPECT_FALSE(ok);
  EXPECT_EQ(vol, nullptr);
  EXPECT_EQ(client->breaker_state(), BreakerState::kOpen);
  EXPECT_EQ(client->breaker_opens(), 2u);
  EXPECT_EQ(client->calls_while_open(), 0u);
}

// ---- Stale-while-revalidate -----------------------------------------

TEST_F(CatalogTest, StaleEntryStandsInWhileBreakerOpen) {
  rc.register_replica("f", disk);
  CatalogClientConfig ccfg = one_shot_breaker();
  ccfg.ttl_s = 5.0;
  build(ccfg);
  resolve("f");  // warm the entry
  advance_to(sim.now() + 6.0);  // let it expire
  service->set_outage_until(sim.now() + 1000.0);
  for (int i = 0; i < 3; ++i) resolve_key(i);
  ASSERT_EQ(client->breaker_state(), BreakerState::kOpen);
  // Expired entry + open breaker: the stale location is served rather
  // than failing the caller.
  const auto [ok, vol] = resolve("f");
  EXPECT_TRUE(ok);
  EXPECT_EQ(vol, &disk);
  EXPECT_EQ(client->stale_served(), 1u);
}

TEST_F(CatalogTest, StaleReadDisabledFailsInstead) {
  rc.register_replica("f", disk);
  CatalogClientConfig ccfg = one_shot_breaker();
  ccfg.ttl_s = 5.0;
  ccfg.stale_while_revalidate = false;
  build(ccfg);
  resolve("f");
  advance_to(sim.now() + 6.0);
  service->set_outage_until(sim.now() + 1000.0);
  for (int i = 0; i < 3; ++i) resolve_key(i);
  const auto [ok, vol] = resolve("f");
  EXPECT_FALSE(ok);
  EXPECT_EQ(vol, nullptr);
  EXPECT_EQ(client->stale_served(), 0u);
}

TEST_F(CatalogTest, StaleServeDoesNotExtendExpiry) {
  rc.register_replica("f", disk);
  CatalogClientConfig ccfg = one_shot_breaker();
  ccfg.ttl_s = 5.0;
  ccfg.breaker_open_s = 3.0;
  build(ccfg);
  resolve("f");
  advance_to(sim.now() + 6.0);
  service->set_outage_until(sim.now() + 2.0);  // short outage
  for (int i = 0; i < 3; ++i) resolve_key(i);
  resolve("f");  // stale served while open
  EXPECT_EQ(client->stale_served(), 1u);
  const auto calls_before = client->service_calls();
  // Outage healed and open window elapsed: the next miss revalidates over
  // the wire instead of serving stale forever.
  advance_to(sim.now() + 4.0);
  const auto [ok, vol] = resolve("f");
  EXPECT_TRUE(ok);
  EXPECT_EQ(vol, &disk);
  EXPECT_EQ(client->service_calls(), calls_before + 1);
  EXPECT_EQ(client->breaker_state(), BreakerState::kClosed);
  EXPECT_EQ(client->stale_served(), 1u);
}

TEST_F(CatalogTest, RetryExhaustDegradesWithoutBreaker) {
  rc.register_replica("f", disk);
  CatalogClientConfig ccfg;
  ccfg.breaker_enabled = false;
  ccfg.ttl_s = 5.0;
  ccfg.retry = fault::RetryPolicy{/*max_attempts=*/2, 0.1, 1.0, 2.0, 0.0};
  build(ccfg);
  resolve("f");
  advance_to(sim.now() + 6.0);
  service->set_outage_until(sim.now() + 1000.0);
  // Two attempts (0.1 s apart) both land inside the outage; exhaustion
  // degrades to the stale entry.
  const auto [ok, vol] = resolve("f");
  EXPECT_TRUE(ok);
  EXPECT_EQ(vol, &disk);
  EXPECT_EQ(client->retries(), 1u);
  EXPECT_EQ(client->stale_served(), 1u);
}

// ---- Write-through registration -------------------------------------

TEST_F(CatalogTest, RegisterWritesThroughServiceAndCache) {
  build();
  bool done = false;
  bool ok = false;
  client->register_replica("out", disk, [&](bool k) {
    done = true;
    ok = k;
  });
  while (!done && sim.has_pending_events()) sim.step();
  ASSERT_TRUE(done);
  EXPECT_TRUE(ok);
  // Authoritative catalog updated over the wire...
  EXPECT_EQ(rc.primary("out"), &disk);
  // ...and the local entry is immediately fresh: no wire traffic to read
  // back what we just wrote.
  const auto calls = client->service_calls();
  const auto [rok, vol] = resolve("out");
  EXPECT_TRUE(rok);
  EXPECT_EQ(vol, &disk);
  EXPECT_EQ(client->service_calls(), calls);
  EXPECT_EQ(client->cache_hits(), 1u);
}

TEST_F(CatalogTest, RegisterFailsFastWithBreakerOpen) {
  build(one_shot_breaker());
  service->set_outage_until(sim.now() + 1000.0);
  for (int i = 0; i < 3; ++i) resolve_key(i);
  ASSERT_EQ(client->breaker_state(), BreakerState::kOpen);
  bool done = false;
  bool ok = true;
  client->register_replica("out", disk, [&](bool k) {
    done = true;
    ok = k;
  });
  // Fails synchronously: no wire call while open.
  EXPECT_TRUE(done);
  EXPECT_FALSE(ok);
  EXPECT_FALSE(rc.has("out"));
  EXPECT_EQ(client->calls_while_open(), 0u);
}

}  // namespace
}  // namespace sf::catalog
