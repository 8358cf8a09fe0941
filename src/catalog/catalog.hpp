#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "fault/retry.hpp"
#include "net/flow_network.hpp"
#include "sim/simulation.hpp"
#include "storage/replica_catalog.hpp"

namespace sf::catalog {

// ---------------------------------------------------------------------
// CatalogService — the metadata tier as a networked service.
// ---------------------------------------------------------------------

/// Server-side knobs.
struct CatalogServiceConfig {
  /// Per-request processing time once a connection slot is held.
  double service_time_s = 0.002;
  /// Concurrent requests the service processes; excess waits in line.
  int max_connections = 16;
  /// Bounded wait queue behind the connection limit; arrivals past this
  /// are shed immediately (fast overload error, no retry-after hint).
  int max_queue = 64;
};

/// What a catalog request resolved to. `ok == false` means the service
/// could not answer (outage or overload) — distinct from a successful
/// "no such entry" answer, which is `ok == true, volume == nullptr` and
/// is negative-cacheable on the client.
struct CatalogReply {
  bool ok = false;
  bool overloaded = false;       ///< shed at the connection limit
  storage::Volume* volume = nullptr;  ///< primary replica (lookups)
};

/// The Pegasus replica/transformation catalogs as a *service*: requests
/// travel the FlowNetwork (zero-byte control messages — they pay latency
/// and squeeze through bandwidth faults, like every other control-plane
/// message in the stack), wait for one of `max_connections` slots with a
/// bounded queue behind them, pay a processing delay, and only then
/// touch the in-process ReplicaCatalog. An outage window (the
/// catalog_outage fault channel) makes the service refuse requests until
/// a heal time, same shape as the registry's pull outages.
///
/// One service instance fronts the testbed's catalogs from the head
/// node; CatalogClient owns the resilience story (cache, retry, breaker).
class CatalogService {
 public:
  CatalogService(sim::Simulation& sim, net::FlowNetwork& network,
                 net::NodeId service_net, storage::ReplicaCatalog& replicas,
                 CatalogServiceConfig cfg = {});

  CatalogService(const CatalogService&) = delete;
  CatalogService& operator=(const CatalogService&) = delete;

  using ReplyCallback = std::function<void(CatalogReply)>;

  /// Resolves the primary replica location of `lfn` for a client at
  /// `client` — request over the wire, service time, reply over the wire.
  void lookup_replica(net::NodeId client, const std::string& lfn,
                      ReplyCallback on_reply);

  /// Write-through registration of a new replica (stage-out path).
  void register_replica(net::NodeId client, const std::string& lfn,
                        storage::Volume& volume, ReplyCallback on_reply);

  // ---- Fault injection ----------------------------------------------

  /// Refuses requests until sim time `t` (outages extend, never shrink) —
  /// the catalog_outage fault channel's hook, mirroring
  /// Registry::set_outage_until.
  void set_outage_until(double t) {
    if (t > outage_until_) outage_until_ = t;
  }
  [[nodiscard]] bool available(double now) const {
    return now >= outage_until_;
  }

  // ---- Observability -------------------------------------------------

  [[nodiscard]] std::uint64_t requests() const { return requests_; }
  [[nodiscard]] std::uint64_t served() const { return served_; }
  [[nodiscard]] std::uint64_t outage_rejects() const {
    return outage_rejects_;
  }
  [[nodiscard]] std::uint64_t overload_sheds() const {
    return overload_sheds_;
  }
  [[nodiscard]] std::uint64_t queued() const { return queued_; }
  [[nodiscard]] std::size_t peak_queue_depth() const {
    return peak_queue_depth_;
  }
  /// Requests currently holding a connection slot or waiting in line —
  /// zero at quiesce (the catalog.drained invariant).
  [[nodiscard]] std::size_t in_flight() const {
    return static_cast<std::size_t>(in_service_) + queue_.size();
  }

  [[nodiscard]] const CatalogServiceConfig& config() const { return cfg_; }
  [[nodiscard]] net::NodeId net_id() const { return service_net_; }

 private:
  struct Op {
    bool is_register = false;
    std::string lfn;
    storage::Volume* volume = nullptr;  // register payload
    net::NodeId client = 0;
    ReplyCallback on_reply;
  };

  void admit(Op op);
  void process(Op op);
  void finish(Op op, CatalogReply reply);

  sim::Simulation& sim_;
  net::FlowNetwork& network_;
  net::NodeId service_net_;
  storage::ReplicaCatalog& replicas_;
  CatalogServiceConfig cfg_;

  int in_service_ = 0;
  std::deque<Op> queue_;
  double outage_until_ = 0;

  std::uint64_t requests_ = 0;
  std::uint64_t served_ = 0;
  std::uint64_t outage_rejects_ = 0;
  std::uint64_t overload_sheds_ = 0;
  std::uint64_t queued_ = 0;
  std::size_t peak_queue_depth_ = 0;
};

// ---------------------------------------------------------------------
// CatalogClient — cache, single-flight, retry, breaker, staleness.
// ---------------------------------------------------------------------

/// Client-side knobs. The default posture is the resilient one; the
/// chaos ablation's "off" arm disables cache and breaker to model the
/// naive client that hits the service for every resolution.
struct CatalogClientConfig {
  bool cache_enabled = true;
  double ttl_s = 60;           ///< positive entries stay fresh this long
  double negative_ttl_s = 5;   ///< "no such entry" answers cached briefly

  /// Retry/backoff for failed service calls; jitter draws from the
  /// engine RNG (seed-pure, consumed only on actual retries).
  fault::RetryPolicy retry{/*max_attempts=*/4, /*base_s=*/0.2,
                           /*cap_s=*/5.0, /*multiplier=*/2.0,
                           /*jitter_ratio=*/0.5};

  bool breaker_enabled = true;
  int breaker_failures = 3;    ///< consecutive failures that trip it
  double breaker_open_s = 10;  ///< open window before the half-open probe

  /// Serve expired cache entries while the service is unreachable
  /// (breaker open or retries exhausted) instead of failing the caller.
  bool stale_while_revalidate = true;
};

/// Circuit-breaker state (Envoy/Hystrix taxonomy).
enum class BreakerState : std::uint8_t { kClosed, kOpen, kHalfOpen };

const char* to_string(BreakerState state);

/// Per-client catalog stub layering, in order:
///
///  1. TTL cache with negative-entry caching — a fresh entry (positive
///     or negative) answers locally, no wire traffic;
///  2. single-flight coalescing — concurrent misses on one key share one
///     fetch (a cold-start burst of N pods issues 1 service call, not N);
///  3. seed-pure jittered retry/backoff via the shared RetryPolicy;
///  4. a circuit breaker: after `breaker_failures` consecutive fetch
///     failures the client stops calling the service for
///     `breaker_open_s`, then lets a single half-open probe through;
///  5. stale-while-revalidate degradation — with the breaker open (or
///     retries exhausted) an *expired* entry is served rather than
///     failing, so the planner keeps scheduling stage-in from cached
///     (possibly stale) replica locations through an outage. A stale
///     location pointing at a dead node is the caller's problem by
///     design: the stage-in job fails fast and the DAG retry path
///     re-resolves — see Planner::add_stage_in.
///
/// Invariant hooks: calls_while_open() must stay 0 (breaker-open ⇒ no
/// direct service calls), cache_hits ≤ lookups, and in_flight_keys()
/// must be empty at quiesce.
class CatalogClient {
 public:
  CatalogClient(sim::Simulation& sim, CatalogService& service,
                net::NodeId client_net, CatalogClientConfig cfg = {});

  CatalogClient(const CatalogClient&) = delete;
  CatalogClient& operator=(const CatalogClient&) = delete;

  /// Resolves `lfn` to its primary replica. `on_done(ok, volume)`:
  /// ok=false only when the service was unreachable and no (stale)
  /// cache entry could stand in; ok=true with volume == nullptr is an
  /// authoritative "no replica registered".
  using LookupCallback = std::function<void(bool ok, storage::Volume* vol)>;
  void lookup(const std::string& lfn, LookupCallback on_done);

  /// Write-through replica registration: updates the service (and the
  /// local cache on success). `on_done(ok)`.
  void register_replica(const std::string& lfn, storage::Volume& volume,
                        std::function<void(bool ok)> on_done);

  /// Drops the cache entry for `lfn` — the stale-read recovery hook: a
  /// caller that was steered to a dead replica invalidates before its
  /// retry so the re-resolution goes back to the service.
  void invalidate(const std::string& lfn);

  // ---- Observability -------------------------------------------------

  [[nodiscard]] std::uint64_t lookups() const { return lookups_; }
  [[nodiscard]] std::uint64_t cache_hits() const { return cache_hits_; }
  [[nodiscard]] std::uint64_t negative_hits() const { return negative_hits_; }
  [[nodiscard]] std::uint64_t stale_served() const { return stale_served_; }
  [[nodiscard]] std::uint64_t coalesced() const { return coalesced_; }
  [[nodiscard]] std::uint64_t service_calls() const { return service_calls_; }
  [[nodiscard]] std::uint64_t retries() const { return retries_; }
  [[nodiscard]] std::uint64_t breaker_opens() const { return breaker_opens_; }
  [[nodiscard]] std::uint64_t errors() const { return errors_; }
  /// Service calls issued while the breaker was open — must stay 0
  /// (the catalog.breaker invariant).
  [[nodiscard]] std::uint64_t calls_while_open() const {
    return calls_while_open_;
  }

  [[nodiscard]] BreakerState breaker_state() const { return breaker_; }
  /// Keys with a fetch outstanding (single-flight table size) — zero at
  /// quiesce.
  [[nodiscard]] std::size_t in_flight_keys() const {
    return in_flight_.size();
  }
  [[nodiscard]] std::size_t cache_size() const { return cache_.size(); }

  [[nodiscard]] const CatalogClientConfig& config() const { return cfg_; }

 private:
  struct Entry {
    storage::Volume* volume = nullptr;  // nullptr = negative entry
    double expires_at = 0;
  };
  struct Flight {
    std::vector<LookupCallback> waiters;
  };

  /// True while the breaker refuses service traffic (open, window not
  /// yet elapsed). Once the window elapses the next fetch is the
  /// half-open probe.
  [[nodiscard]] bool breaker_blocking() const;
  void breaker_on_success();
  void breaker_on_failure();

  /// What one guarded call sends: a lookup of `lfn`, or a registration
  /// of `lfn` at `volume` when it is set.
  struct Request {
    std::string lfn;
    storage::Volume* volume = nullptr;
  };
  /// One guarded service call: the breaker gate and half-open promotion,
  /// the service-call accounting and the jittered retry ladder. `done`
  /// gets the reply that ended it — ok, or not ok once the breaker
  /// refused or the retries ran out.
  void call(Request request, CatalogService::ReplyCallback done,
            int attempt = 0);
  /// Fetch answered: caches the entry and releases the waiters.
  void settle(const std::string& lfn, storage::Volume* vol);
  /// Degraded completion: serve a stale entry when allowed, else error.
  void degrade(const std::string& lfn);

  sim::Simulation& sim_;
  CatalogService& service_;
  net::NodeId client_net_;
  CatalogClientConfig cfg_;

  std::map<std::string, Entry> cache_;
  std::map<std::string, Flight> in_flight_;

  BreakerState breaker_ = BreakerState::kClosed;
  int consecutive_failures_ = 0;
  double breaker_open_until_ = 0;
  bool half_open_probe_out_ = false;

  std::uint64_t lookups_ = 0;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t negative_hits_ = 0;
  std::uint64_t stale_served_ = 0;
  std::uint64_t coalesced_ = 0;
  std::uint64_t service_calls_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t breaker_opens_ = 0;
  std::uint64_t errors_ = 0;
  std::uint64_t calls_while_open_ = 0;
};

/// Bundled testbed-level switch: when enabled, PaperTestbed stands up
/// one CatalogService on the head node plus one shared CatalogClient,
/// and the planner resolves stage-in/stage-out through them instead of
/// in-process pointer lookups.
struct CatalogTierConfig {
  bool enabled = false;
  CatalogServiceConfig service{};
  CatalogClientConfig client{};
};

}  // namespace sf::catalog
