#include "catalog/catalog.hpp"

#include <utility>
#include <vector>

namespace sf::catalog {

const char* to_string(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half-open";
  }
  return "unknown";
}

CatalogClient::CatalogClient(sim::Simulation& sim, CatalogService& service,
                             net::NodeId client_net, CatalogClientConfig cfg)
    : sim_(sim), service_(service), client_net_(client_net), cfg_(cfg) {}

void CatalogClient::lookup(const std::string& lfn, LookupCallback on_done) {
  ++lookups_;
  if (!cfg_.cache_enabled) {
    // Naive arm: every resolution is its own service call — no cache, no
    // coalescing. Retry and breaker still apply.
    call({lfn}, [this, on_done = std::move(on_done)](CatalogReply reply) {
      if (!reply.ok) ++errors_;
      on_done(reply.ok, reply.volume);
    });
    return;
  }
  const double now = sim_.now();
  auto cached = cache_.find(lfn);
  if (cached != cache_.end() && now < cached->second.expires_at) {
    // Fresh entry (positive or negative): answer locally, synchronously.
    if (cached->second.volume != nullptr) {
      ++cache_hits_;
    } else {
      ++negative_hits_;
    }
    on_done(true, cached->second.volume);
    return;
  }
  // Single-flight: a fetch already out for this key absorbs the miss.
  auto flight = in_flight_.find(lfn);
  if (flight != in_flight_.end()) {
    ++coalesced_;
    flight->second.waiters.push_back(std::move(on_done));
    return;
  }
  in_flight_[lfn].waiters.push_back(std::move(on_done));
  call({lfn}, [this, lfn](CatalogReply reply) {
    if (reply.ok) {
      settle(lfn, reply.volume);
    } else {
      degrade(lfn);
    }
  });
}

void CatalogClient::register_replica(const std::string& lfn,
                                     storage::Volume& volume,
                                     std::function<void(bool ok)> on_done) {
  call({lfn, &volume}, [this, lfn, &volume, on_done = std::move(on_done)](
                           CatalogReply reply) {
    if (!reply.ok) {
      ++errors_;
      on_done(false);
      return;
    }
    if (cfg_.cache_enabled) {
      // Write-through: the registered replica is immediately fresh.
      cache_[lfn] = Entry{&volume, sim_.now() + cfg_.ttl_s};
    }
    on_done(true);
  });
}

void CatalogClient::invalidate(const std::string& lfn) {
  cache_.erase(lfn);
}

bool CatalogClient::breaker_blocking() const {
  if (!cfg_.breaker_enabled) return false;
  if (breaker_ == BreakerState::kHalfOpen) return half_open_probe_out_;
  if (breaker_ == BreakerState::kOpen) {
    return sim_.now() < breaker_open_until_;
  }
  return false;
}

void CatalogClient::breaker_on_success() {
  consecutive_failures_ = 0;
  if (breaker_ != BreakerState::kClosed) {
    // The half-open probe came back: service is healthy again.
    breaker_ = BreakerState::kClosed;
    half_open_probe_out_ = false;
  }
}

void CatalogClient::breaker_on_failure() {
  ++consecutive_failures_;
  if (!cfg_.breaker_enabled) return;
  if (breaker_ == BreakerState::kHalfOpen) {
    // Probe failed: back to open for another full window.
    breaker_ = BreakerState::kOpen;
    half_open_probe_out_ = false;
    breaker_open_until_ = sim_.now() + cfg_.breaker_open_s;
    ++breaker_opens_;
    return;
  }
  if (breaker_ == BreakerState::kClosed &&
      consecutive_failures_ >= cfg_.breaker_failures) {
    breaker_ = BreakerState::kOpen;
    breaker_open_until_ = sim_.now() + cfg_.breaker_open_s;
    ++breaker_opens_;
  }
}

void CatalogClient::call(Request request, CatalogService::ReplyCallback done,
                         int attempt) {
  if (breaker_blocking()) {
    done(CatalogReply{});
    return;
  }
  if (cfg_.breaker_enabled && breaker_ == BreakerState::kOpen) {
    // Open window elapsed: promote this call to the half-open probe.
    breaker_ = BreakerState::kHalfOpen;
    half_open_probe_out_ = true;
  }
  if (breaker_ == BreakerState::kOpen) ++calls_while_open_;
  ++service_calls_;
  auto on_reply = [this, request, done = std::move(done),
                   attempt](CatalogReply reply) mutable {
    if (reply.ok) {
      breaker_on_success();
      done(reply);
      return;
    }
    breaker_on_failure();
    if (breaker_blocking() || cfg_.retry.exhausted(attempt)) {
      done(reply);
      return;
    }
    ++retries_;
    const double delay = cfg_.retry.backoff_jittered(attempt, sim_.rng());
    sim_.call_in(delay, [this, request = std::move(request),
                         done = std::move(done), attempt]() mutable {
      call(std::move(request), std::move(done), attempt + 1);
    });
  };
  if (request.volume != nullptr) {
    service_.register_replica(client_net_, request.lfn, *request.volume,
                              std::move(on_reply));
  } else {
    service_.lookup_replica(client_net_, request.lfn, std::move(on_reply));
  }
}

void CatalogClient::settle(const std::string& lfn, storage::Volume* vol) {
  cache_[lfn] = Entry{
      vol, sim_.now() + (vol != nullptr ? cfg_.ttl_s : cfg_.negative_ttl_s)};
  auto flight = in_flight_.find(lfn);
  if (flight == in_flight_.end()) return;
  std::vector<LookupCallback> waiters = std::move(flight->second.waiters);
  in_flight_.erase(flight);
  for (auto& waiter : waiters) waiter(true, vol);
}

void CatalogClient::degrade(const std::string& lfn) {
  // Stale-while-revalidate: an expired positive entry stands in for the
  // unreachable service. Its expiry is NOT extended — the next miss on
  // this key tries the service again (the revalidation).
  storage::Volume* stale = nullptr;
  if (cfg_.stale_while_revalidate) {
    auto cached = cache_.find(lfn);
    if (cached != cache_.end() && cached->second.volume != nullptr) {
      stale = cached->second.volume;
    }
  }
  auto flight = in_flight_.find(lfn);
  if (flight == in_flight_.end()) return;
  std::vector<LookupCallback> waiters = std::move(flight->second.waiters);
  in_flight_.erase(flight);
  for (auto& waiter : waiters) {
    if (stale != nullptr) {
      ++stale_served_;
      waiter(true, stale);
    } else {
      ++errors_;
      waiter(false, nullptr);
    }
  }
}

}  // namespace sf::catalog
