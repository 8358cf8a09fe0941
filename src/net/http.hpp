#pragma once

#include <any>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/flow_network.hpp"
#include "sim/simulation.hpp"

namespace sf::net {

using Port = std::uint16_t;

/// In-simulation HTTP message. `body` carries typed in-memory content (the
/// simulation never serializes for real); `body_bytes` is the wire size
/// that drives transfer cost — for the paper's pass-by-value strategy this
/// is the full input-matrix payload.
struct HttpRequest {
  std::string method = "POST";
  std::string path = "/";
  std::map<std::string, std::string> headers;
  std::any body;
  double body_bytes = 0;
};

struct HttpResponse {
  int status = 200;
  std::map<std::string, std::string> headers;
  std::any body;
  double body_bytes = 0;

  [[nodiscard]] bool ok() const { return status >= 200 && status < 300; }
};

/// HTTP status codes the fabric itself produces.
inline constexpr int kStatusTooManyRequests = 429;
inline constexpr int kStatusConnectionRefused = 502;
inline constexpr int kStatusServiceUnavailable = 503;
inline constexpr int kStatusGatewayTimeout = 504;

/// Response header carrying the machine-readable failure reason tagged by
/// the data plane: "timeout" (queue-proxy deadline), "draining" (pod
/// shutting down), "rejected" (admission control), "unresponsive" (router
/// per-attempt deadline — the reply never came back, e.g. a one-way
/// partition). 502s carry no tag: the connection itself was refused.
inline constexpr const char* kReasonHeader = "x-sf-reason";

/// A handler receives the request and a one-shot responder. Responding may
/// happen immediately or after arbitrarily many simulated events (the
/// queue-proxy holds requests while the autoscaler brings up pods).
using Responder = std::function<void(HttpResponse)>;
using HttpHandler = std::function<void(const HttpRequest&, Responder)>;

/// Simulated HTTP transport: listeners bound to (node, port), requests that
/// pay per-request overhead plus body transfer each way on the flow
/// network. Equivalent of the Flask servers + `requests` calls the paper's
/// prototype uses.
class HttpFabric {
 public:
  HttpFabric(sim::Simulation& sim, FlowNetwork& network)
      : sim_(sim), net_(network) {}

  HttpFabric(const HttpFabric&) = delete;
  HttpFabric& operator=(const HttpFabric&) = delete;

  /// Binds a handler; replaces any previous listener on that (node, port).
  void listen(NodeId node, Port port, HttpHandler handler);

  /// Removes a listener. In-flight requests already dispatched to the old
  /// handler still complete; new ones get 502.
  void close(NodeId node, Port port);

  [[nodiscard]] bool is_listening(NodeId node, Port port) const;

  /// Issues a request from `src`. The response callback always fires —
  /// with 502 when nothing listens at dispatch time.
  void request(NodeId src, NodeId dst, Port port, HttpRequest req,
               std::function<void(HttpResponse)> on_response);

  /// Fixed per-request protocol overhead (connection setup, headers),
  /// applied once per request and once per response.
  void set_request_overhead(double seconds) { request_overhead_ = seconds; }

  [[nodiscard]] std::uint64_t requests_sent() const { return requests_sent_; }

 private:
  struct Listener {
    Port port = 0;
    /// Heap-held so a dispatch can pin the handler alive across reentrant
    /// listen()/close() calls that mutate the table mid-request.
    std::shared_ptr<HttpHandler> handler;
  };

  [[nodiscard]] std::shared_ptr<HttpHandler> find_handler(NodeId node,
                                                          Port port) const;

  sim::Simulation& sim_;
  FlowNetwork& net_;
  /// Flat per-node listener table, indexed by NodeId (the hottest lookup
  /// on the request path — every routed invocation resolves a listener
  /// here). Each node serves a handful of ports, so the inner list is a
  /// short vector scanned linearly; allocation happens on listen(), never
  /// per request.
  std::vector<std::vector<Listener>> listeners_;
  double request_overhead_ = 0.5e-3;  // 0.5 ms per hop
  std::uint64_t requests_sent_ = 0;
};

}  // namespace sf::net
