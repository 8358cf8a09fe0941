#include "workload/open_loop.hpp"

#include <algorithm>
#include <any>
#include <bit>
#include <istream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "fault/splitmix.hpp"

namespace sf::workload {

std::vector<Arrival> load_arrival_trace(std::istream& in) {
  std::vector<Arrival> out;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    std::istringstream fields(line);
    Arrival a;
    if (!(fields >> a.time >> a.user >> a.service)) {
      throw std::invalid_argument("arrival trace line " +
                                  std::to_string(lineno) +
                                  ": expected 'time user service'");
    }
    if (a.time < 0) {
      throw std::invalid_argument("arrival trace line " +
                                  std::to_string(lineno) + ": negative time");
    }
    if (!out.empty() && a.time < out.back().time) {
      throw std::invalid_argument("arrival trace line " +
                                  std::to_string(lineno) +
                                  ": times must be non-decreasing");
    }
    out.push_back(std::move(a));
  }
  return out;
}

knative::KnServiceSpec compute_service(const std::string& name) {
  knative::KnServiceSpec spec;
  spec.name = name;
  spec.container.name = name;
  spec.container.image = name + ":latest";
  spec.container.memory_bytes = 512e6;
  spec.container.boot_s = 0.6;
  spec.container.cpu_limit = 1.0;
  spec.handler = [](const net::HttpRequest& req, knative::FunctionContext& ctx,
                    net::Responder respond) {
    const double work =
        req.body.has_value() ? std::any_cast<double>(req.body) : 0.01;
    ctx.exec(work, [respond = std::move(respond),
                    bytes = req.body_bytes](bool ok) mutable {
      net::HttpResponse resp;
      resp.status = ok ? 200 : 500;
      resp.body_bytes = bytes;
      respond(std::move(resp));
    });
  };
  return spec;
}

OpenLoopEngine::OpenLoopEngine(knative::KnativeServing& serving,
                               net::NodeId client, OpenLoopConfig config)
    : serving_(serving),
      sim_(serving.kube().cluster().sim()),
      client_(client),
      config_(std::move(config)) {
  if (config_.trace.empty()) {
    if (config_.users <= 0) {
      throw std::invalid_argument("OpenLoopEngine: users must be positive");
    }
    if (config_.rate_hz <= 0) {
      throw std::invalid_argument("OpenLoopEngine: rate_hz must be positive");
    }
    if (config_.services.empty()) {
      throw std::invalid_argument(
          "OpenLoopEngine: Poisson mode needs at least one service");
    }
  }
  int streams = config_.users;
  if (!config_.trace.empty()) {
    int max_user = 0;
    for (const Arrival& a : config_.trace) {
      if (a.user < 0) {
        throw std::invalid_argument("OpenLoopEngine: negative trace user");
      }
      max_user = std::max(max_user, a.user);
    }
    streams = max_user + 1;
  }
  users_.resize(static_cast<std::size_t>(std::max(streams, 1)));
  // Per-user streams forked from the base seed: user k's draws are a pure
  // function of (seed, k), untouched by other users or by service timing.
  for (std::size_t k = 0; k < users_.size(); ++k) {
    users_[k].rng.reseed(fault::SplitMix64::mix(config_.seed, k));
  }
}

void OpenLoopEngine::start() {
  if (started_) throw std::logic_error("OpenLoopEngine: already started");
  started_ = true;
  start_time_ = sim_.now();
  if (config_.record_requests) {
    issued_log_.reserve(config_.max_requests != 0
                            ? config_.max_requests
                            : config_.trace.size());
    latencies_.reserve(issued_log_.capacity());
  }
  if (!config_.trace.empty()) {
    schedule_trace_replay(0);
    return;
  }
  for (int u = 0; u < config_.users; ++u) schedule_next_poisson(u);
}

void OpenLoopEngine::schedule_next_poisson(int user) {
  auto& u = users_[static_cast<std::size_t>(user)];
  const double gap = u.rng.exponential(1.0 / config_.rate_hz);
  const double next_rel = (sim_.now() - start_time_) + gap;
  if (next_rel > config_.horizon_s) return;  // open loop ends at the horizon
  ++pending_arrivals_;
  sim_.call_in(gap, [this, user] {
    --pending_arrivals_;
    Arrival a;
    a.time = sim_.now() - start_time_;
    a.user = user;
    a.service = config_.services.size() == 1
                    ? config_.services.front()
                    : users_[static_cast<std::size_t>(user)].rng.pick(
                          config_.services);
    if (!under_cap()) return;  // cap reached: this user's stream ends
    issue(a);
    schedule_next_poisson(user);
  });
}

void OpenLoopEngine::schedule_trace_replay(std::size_t index) {
  if (index >= config_.trace.size()) return;
  const Arrival& next = config_.trace[index];
  const double at = start_time_ + next.time;
  ++pending_arrivals_;
  sim_.call_in(std::max(0.0, at - sim_.now()), [this, index] {
    --pending_arrivals_;
    if (under_cap()) {
      Arrival a = config_.trace[index];
      a.time = sim_.now() - start_time_;
      issue(a);
    }
    schedule_trace_replay(index + 1);
  });
}

void OpenLoopEngine::issue(const Arrival& arrival) {
  auto& user = users_[static_cast<std::size_t>(
      std::min<int>(arrival.user, static_cast<int>(users_.size()) - 1))];
  net::HttpRequest req;
  if (config_.request_factory) {
    req = config_.request_factory(arrival, user.rng);
  } else {
    req.path = "/invoke";
    req.body = config_.work_s;  // compute-handler convention: body = work
    req.body_bytes = config_.payload_bytes;
  }
  ++stats_.issued;
  ++user.issued;
  if (config_.record_requests) {
    Arrival logged = arrival;
    logged.time = sim_.now();  // absolute in the log
    issued_log_.push_back(std::move(logged));
  }
  const double issued_at = sim_.now();
  std::weak_ptr<bool> alive = alive_;
  serving_.invoke(client_, arrival.service, std::move(req),
                  [this, issued_at, alive](net::HttpResponse resp) {
                    if (alive.expired()) return;  // engine destroyed
                    const double latency = sim_.now() - issued_at;
                    ++stats_.completed;
                    if (resp.ok()) {
                      ++stats_.ok;
                    } else {
                      ++stats_.errors;
                    }
                    stats_.latency_sum_s += latency;
                    stats_.latency_max_s =
                        std::max(stats_.latency_max_s, latency);
                    stats_.last_completion_time = sim_.now();
                    if (config_.record_requests) {
                      latencies_.push_back(latency);
                    }
                  });
}

std::vector<double> OpenLoopEngine::sorted_latencies() const {
  std::vector<double> out = latencies_;
  std::sort(out.begin(), out.end());
  return out;
}

std::uint64_t OpenLoopEngine::fingerprint() const {
  std::uint64_t fp = 0x09E210CCull;  // "open loop"
  const auto fold = [&fp](std::uint64_t v) {
    fp = fault::SplitMix64::mix(fp, v);
  };
  fold(stats_.issued);
  fold(stats_.completed);
  fold(stats_.ok);
  fold(stats_.errors);
  fold(std::bit_cast<std::uint64_t>(stats_.latency_sum_s));
  fold(std::bit_cast<std::uint64_t>(stats_.latency_max_s));
  fold(std::bit_cast<std::uint64_t>(stats_.last_completion_time));
  return fp;
}

}  // namespace sf::workload
