#include "knative/queue_proxy.hpp"

#include <algorithm>
#include <utility>

namespace sf::knative {

QueueProxy::QueueProxy(sim::Simulation& sim, net::HttpFabric& http,
                       FunctionContext context, FunctionHandler handler,
                       int container_concurrency, double request_timeout_s)
    : sim_(sim),
      http_(http),
      context_(std::move(context)),
      handler_(std::move(handler)),
      container_concurrency_(container_concurrency),
      request_timeout_s_(request_timeout_s) {}

QueueProxy::~QueueProxy() {
  if (installed_) http_.close(context_.node, port_);
  // Outstanding deadline events capture `this`; cancel them so an abrupt
  // teardown (pod deleted with work still queued) cannot fire into a
  // destroyed proxy.
  for (const Pending& p : slots_) {
    if (p.timeout_event != sim::kNoEvent) sim_.cancel(p.timeout_event);
  }
}

void QueueProxy::install(net::Port port) {
  port_ = port;
  installed_ = true;
  http_.listen(context_.node, port_,
               [this](const net::HttpRequest& req, net::Responder respond) {
                 on_request(req, std::move(respond));
               });
}

void QueueProxy::on_request(const net::HttpRequest& req,
                            net::Responder respond) {
  if (draining_) {
    net::HttpResponse resp;
    resp.status = net::kStatusServiceUnavailable;
    resp.headers[net::kReasonHeader] = "draining";
    respond(std::move(resp));
    return;
  }
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Pending& p = slots_[slot];
  p = Pending{req, std::move(respond), ++next_token_, sim::kNoEvent,
              sim_.now()};
  if (request_timeout_s_ > 0) {
    p.timeout_event = sim_.call_in(
        request_timeout_s_,
        [this, slot, token = p.token] { on_timeout(slot, token); });
  }
  queue_.push_back(slot);
  peak_queued_ = std::max(peak_queued_, ++queued_);
  maybe_dispatch();
}

void QueueProxy::on_timeout(std::uint32_t slot, std::uint64_t token) {
  Pending& p = slots_[slot];
  if (p.token != token || !p.respond) return;
  ++timeouts_;
  record_outcome(p, /*timed_out=*/true);
  auto respond = std::move(p.respond);
  p.respond = nullptr;
  p.timeout_event = sim::kNoEvent;
  // Still queued: it never reaches the container. Executing: the
  // handler's eventual response is dropped (finish_slot sees the consumed
  // responder) but still frees the slot.
  const bool was_queued = !p.executing;
  if (was_queued) --queued_;
  net::HttpResponse resp;
  resp.status = net::kStatusGatewayTimeout;
  resp.headers[net::kReasonHeader] = "timeout";
  respond(std::move(resp));
  if (was_queued) check_drain_done();
}

void QueueProxy::record_outcome(const Pending& p, bool timed_out,
                                int status) {
  if (!stats_.enabled()) return;
  stats_.store->record_seconds(stats_.latency, sim_.now() - p.accepted_at);
  if (timed_out) {
    stats_.store->add(stats_.timeout, 1);
  } else {
    stats_.store->add(status >= 500 ? stats_.err : stats_.ok, 1);
  }
}

void QueueProxy::release(std::uint32_t slot) {
  slots_[slot] = Pending{};
  free_.push_back(slot);
}

void QueueProxy::maybe_dispatch() {
  while (!queue_.empty() && (container_concurrency_ <= 0 ||
                             executing_ < container_concurrency_)) {
    const std::uint32_t slot = queue_.front();
    queue_.pop_front();
    Pending& p = slots_[slot];
    if (!p.respond) {  // its deadline answered it while queued
      release(slot);
      continue;
    }
    p.executing = true;
    --queued_;
    ++executing_;
    // The handler responds through a wrapper that updates bookkeeping
    // before the response leaves the pod.
    handler_(p.req, context_, [this, slot](net::HttpResponse resp) {
      finish_slot(slot, std::move(resp));
    });
  }
}

void QueueProxy::finish_slot(std::uint32_t slot, net::HttpResponse resp) {
  // Move the request out before responding: the responder may re-enter
  // maybe_dispatch (synchronous handlers), which can reuse the slot.
  Pending done = std::move(slots_[slot]);
  release(slot);
  if (done.timeout_event != sim::kNoEvent) sim_.cancel(done.timeout_event);
  // An empty responder means the deadline already answered 504 for this
  // request; the handler's late response is discarded (and was already
  // recorded as a timeout).
  if (done.respond) {
    record_outcome(done, /*timed_out=*/false, resp.status);
    done.respond(std::move(resp));
  }
  --executing_;
  ++served_;
  maybe_dispatch();
  check_drain_done();
}

void QueueProxy::check_drain_done() {
  if (draining_ && executing_ == 0 && queued_ == 0 && drain_done_) {
    auto done = std::move(drain_done_);
    drain_done_ = nullptr;
    done();
  }
}

void QueueProxy::drain(std::function<void()> done) {
  draining_ = true;
  if (installed_) {
    http_.close(context_.node, port_);
    installed_ = false;
  }
  if (executing_ == 0 && queued_ == 0) {
    sim_.call_in(0, std::move(done));
    return;
  }
  drain_done_ = std::move(done);
}

}  // namespace sf::knative
