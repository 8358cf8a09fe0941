#include "knative/eventing.hpp"

#include <memory>
#include <utility>

#include "fault/retry.hpp"

namespace sf::knative {

namespace {
/// Per-trigger delivery: three tries, 0.2 s then 0.4 s apart.
constexpr fault::RetryPolicy kDeliveryRetry{/*max_attempts=*/3,
                                            /*base_s=*/0.2, /*cap_s=*/0.4};
}  // namespace

const CloudEvent& event_from_request(const net::HttpRequest& req) {
  return std::any_cast<const CloudEvent&>(req.body);
}

Broker::Broker(KnativeServing& serving, cluster::Node& host,
               std::string name)
    : serving_(serving), host_(host), name_(std::move(name)) {
  // Broker ingress: accepts CloudEvents over HTTP, fans out to matching
  // triggers, and acknowledges once every delivery settled.
  serving_.kube().cluster().http().listen(
      host_.net_id(), kIngressPort,
      [this](const net::HttpRequest& req, net::Responder respond) {
        CloudEvent event = std::any_cast<CloudEvent>(req.body);
        fanout(std::move(event),
               [respond = std::move(respond)](bool delivered_all) mutable {
                 net::HttpResponse resp;
                 resp.status = 202;
                 // A string temporary: assigning the bare literal trips a
                 // false -Wrestrict in GCC 12 at -O3.
                 resp.headers["delivered-all"] =
                     std::string(delivered_all ? "1" : "0");
                 respond(std::move(resp));
               });
      });
}

net::NodeId Broker::ingress_net_id() const { return host_.net_id(); }

void Broker::add_trigger(const std::string& trigger_name,
                         const std::string& event_type,
                         const std::string& service,
                         std::map<std::string, std::string> extension_filter) {
  triggers_[trigger_name] =
      Trigger{event_type, service, std::move(extension_filter)};
}

bool Broker::remove_trigger(const std::string& trigger_name) {
  return triggers_.erase(trigger_name) > 0;
}

bool Broker::matches(const Trigger& trigger,
                     const CloudEvent& event) const {
  if (!trigger.event_type.empty() && trigger.event_type != event.type) {
    return false;
  }
  for (const auto& [key, value] : trigger.extension_filter) {
    auto it = event.extensions.find(key);
    if (it == event.extensions.end() || it->second != value) return false;
  }
  return true;
}

void Broker::publish(net::NodeId from, CloudEvent event,
                     std::function<void(bool)> on_done) {
  net::HttpRequest req;
  req.path = "/" + name_;
  req.body_bytes = event.data_bytes + 512;  // event envelope
  req.body = std::move(event);
  serving_.kube().cluster().http().request(
      from, host_.net_id(), kIngressPort, std::move(req),
      [on_done = std::move(on_done)](net::HttpResponse resp) {
        if (!on_done) return;
        auto it = resp.headers.find("delivered-all");
        on_done(resp.status == 202 && it != resp.headers.end() &&
                it->second == "1");
      });
}

void Broker::fanout(const CloudEvent& event,
                    std::function<void(bool)> on_done) {
  ++events_received_;
  std::vector<const Trigger*> matching;
  for (const auto& [tname, trigger] : triggers_) {
    if (matches(trigger, event)) matching.push_back(&trigger);
  }
  if (matching.empty()) {
    serving_.kube().cluster().sim().call_in(
        0, [on_done = std::move(on_done)] {
          if (on_done) on_done(true);
        });
    return;
  }
  auto remaining = std::make_shared<std::size_t>(matching.size());
  auto all_ok = std::make_shared<bool>(true);
  auto done_cb =
      std::make_shared<std::function<void(bool)>>(std::move(on_done));
  for (const Trigger* trigger : matching) {
    deliver(*trigger, event, 0,
            [remaining, all_ok, done_cb](bool ok) {
              *all_ok = *all_ok && ok;
              if (--*remaining == 0 && *done_cb) (*done_cb)(*all_ok);
            });
  }
}

void Broker::deliver(Trigger trigger, const CloudEvent& event,
                     int attempt, std::function<void(bool)> on_done) {
  net::HttpRequest req;  // path "/" by default
  req.headers["ce-type"] = event.type;
  req.body = event;
  req.body_bytes = event.data_bytes + 512;
  serving_.invoke(
      host_.net_id(), trigger.service, std::move(req),
      [this, trigger, event, attempt,
       on_done = std::move(on_done)](net::HttpResponse resp) mutable {
        if (resp.ok()) {
          ++deliveries_;
          on_done(true);
          return;
        }
        if (!kDeliveryRetry.exhausted(attempt)) {
          serving_.kube().cluster().sim().call_in(
              kDeliveryRetry.backoff_s(attempt),
              [this, trigger, event = std::move(event), attempt,
               on_done = std::move(on_done)]() mutable {
                deliver(trigger, event, attempt + 1, std::move(on_done));
              });
          return;
        }
        ++failed_deliveries_;
        dead_letters_.push_back(std::move(event));
        on_done(false);
      });
}

}  // namespace sf::knative
