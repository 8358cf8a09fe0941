#pragma once

#include <any>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "knative/serving.hpp"

namespace sf::knative {

/// A CloudEvent: typed, sourced, with filterable extension attributes and
/// an opaque payload whose wire size drives transfer cost.
struct CloudEvent {
  std::string type;    ///< e.g. "dev.serverflow.task.done"
  std::string source;  ///< producing component URI
  std::map<std::string, std::string> extensions;
  std::any data;
  double data_bytes = 0;
};

/// Knative Eventing broker: receives CloudEvents on its ingress and fans
/// them out to every matching Trigger's subscriber service, with
/// per-delivery retry and a dead-letter queue — the "Eventing" half of
/// the platform the paper's background section describes, and the
/// substrate for event-driven (dynamic) workflow orchestration.
class Broker {
 public:
  static constexpr net::Port kIngressPort = 8081;

  Broker(KnativeServing& serving, cluster::Node& host,
         std::string name = "default");

  Broker(const Broker&) = delete;
  Broker& operator=(const Broker&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] net::NodeId ingress_net_id() const;

  /// Subscribes `service` to events of `event_type` (empty = all types)
  /// whose extensions contain every entry of `extension_filter`.
  void add_trigger(const std::string& trigger_name,
                   const std::string& event_type,
                   const std::string& service,
                   std::map<std::string, std::string> extension_filter = {});

  bool remove_trigger(const std::string& trigger_name);
  [[nodiscard]] std::size_t trigger_count() const { return triggers_.size(); }

  /// Publishes an event from `from`; `on_done(delivered_all)` fires after
  /// every matching trigger either succeeded or exhausted its retries
  /// (immediately with true when nothing matches).
  void publish(net::NodeId from, CloudEvent event,
               std::function<void(bool delivered_all)> on_done = {});

  /// Deliveries that exhausted retries, kept for inspection/replay.
  [[nodiscard]] const std::deque<CloudEvent>& dead_letters() const {
    return dead_letters_;
  }

  [[nodiscard]] std::uint64_t events_received() const {
    return events_received_;
  }
  [[nodiscard]] std::uint64_t deliveries() const { return deliveries_; }
  [[nodiscard]] std::uint64_t failed_deliveries() const {
    return failed_deliveries_;
  }

 private:
  struct Trigger {
    std::string event_type;  // "" = match all
    std::string service;
    std::map<std::string, std::string> extension_filter;
  };

  [[nodiscard]] bool matches(const Trigger& trigger,
                             const CloudEvent& event) const;
  void deliver(Trigger trigger, const CloudEvent& event, int attempt,
               std::function<void(bool)> on_done);
  void fanout(const CloudEvent& event,
              std::function<void(bool)> on_done);

  KnativeServing& serving_;
  cluster::Node& host_;
  std::string name_;
  std::map<std::string, Trigger> triggers_;
  std::deque<CloudEvent> dead_letters_;
  std::uint64_t events_received_ = 0;
  std::uint64_t deliveries_ = 0;
  std::uint64_t failed_deliveries_ = 0;
};

/// Extracts the CloudEvent a Broker delivered inside an HTTP request
/// (throws std::bad_any_cast when the request is not an event delivery).
const CloudEvent& event_from_request(const net::HttpRequest& req);

}  // namespace sf::knative
