#include "check/invariants.hpp"

#include <set>
#include <sstream>
#include <utility>

#include "k8s/objects.hpp"

namespace sf::check {

namespace {

// Resource-accounting slop: memory is tracked in exact bytes but summed
// across many allocations (1 byte absorbs double rounding); CPU
// utilization is a PS-resource rate sum.
constexpr double kByteEps = 1.0;
constexpr double kCpuEps = 1e-6;

}  // namespace

InvariantChecker::InvariantChecker(core::PaperTestbed& testbed,
                                   CheckConfig config)
    : tb_(testbed), config_(config) {
  register_builtins();
}

void InvariantChecker::add_invariant(std::string name, Probe probe,
                                     bool quiesce_only) {
  add_counted_invariant(
      std::move(name),
      [probe = std::move(probe)](std::vector<std::string>& out) {
        probe(out);
        return std::uint64_t{1};  // plain probes count as one subject
      },
      quiesce_only);
}

void InvariantChecker::add_counted_invariant(std::string name,
                                             CountingProbe probe,
                                             bool quiesce_only) {
  Entry entry;
  entry.name = std::move(name);
  entry.probe = std::move(probe);
  entry.quiesce_only = quiesce_only;
  entries_.push_back(std::move(entry));
}

void InvariantChecker::attach_injector(const fault::FaultInjector& injector) {
  injector_ = &injector;
  add_counted_invariant(
      "fault.healed",
      [this](std::vector<std::string>& out) -> std::uint64_t {
        if (injector_->residual_depth() != 0) {
          out.push_back("injector residual depth " +
                        std::to_string(injector_->residual_depth()) +
                        " after all windows should have healed");
        }
        return injector_->applied_total();
      },
      /*quiesce_only=*/true);
}

void InvariantChecker::register_builtins() {
  // Every builtin is a counting probe: alongside violations it reports
  // how many subjects it examined, so per_invariant() can prove each law
  // was exercised against real state rather than passing over nothing.

  // -- sim: the event queue's buckets, tombstones and live slots agree, --
  // -- and nothing pending precedes the clock. ----------------------------
  add_counted_invariant("sim.event_queue",
                        [this](std::vector<std::string>& out) -> std::uint64_t {
    for (auto& msg : tb_.sim().self_check()) out.push_back(std::move(msg));
    return tb_.sim().pending_events();
  });

  // -- condor: pool-internal conservation (claims, slots, job states). ---
  add_counted_invariant("condor.pool",
                        [this](std::vector<std::string>& out) -> std::uint64_t {
    for (auto& msg : tb_.condor().self_check()) out.push_back(std::move(msg));
    return tb_.condor().worker_count();
  });

  // -- condor: claims never exceed live startds' dynamic slots, and ------
  // -- every DAG's node states tally. ------------------------------------
  add_counted_invariant("condor.claims",
                        [this](std::vector<std::string>& out) -> std::uint64_t {
    std::size_t live_slots = 0;
    std::uint64_t examined = 0;
    for (const condor::Startd* sd : tb_.condor().workers()) {
      ++examined;
      if (sd->node().up()) live_slots += sd->dynamic_slots();
    }
    if (tb_.condor().active_claims() > live_slots) {
      out.push_back("pool holds " +
                    std::to_string(tb_.condor().active_claims()) +
                    " claims but live startds expose only " +
                    std::to_string(live_slots) + " dynamic slots");
    }
    return examined;
  });
  add_counted_invariant("condor.dag",
                        [this](std::vector<std::string>& out) -> std::uint64_t {
    for (const auto& dag : tb_.active_dags()) {
      for (auto& msg : dag->self_check()) out.push_back(std::move(msg));
    }
    return tb_.active_dags().size();
  });

  // -- nodes: RAM/CPU ledgers stay within hardware capacity. -------------
  add_counted_invariant("node.accounting",
                        [this](std::vector<std::string>& out) -> std::uint64_t {
    auto& cl = tb_.cluster();
    for (std::size_t i = 0; i < cl.size(); ++i) {
      const auto& node = cl.node(i);
      const auto& spec = node.spec();
      if (node.memory_used() < -kByteEps ||
          node.memory_used() > spec.memory_bytes + kByteEps) {
        std::ostringstream os;
        os << node.name() << ": memory ledger " << node.memory_used()
           << " outside [0, " << spec.memory_bytes << "]";
        out.push_back(os.str());
      }
      // cpu_slowdown pins capacity below nominal; utilization is reported
      // against nominal cores, so the nominal bound always applies.
      if (node.cpu_utilization() > spec.cores + kCpuEps) {
        std::ostringstream os;
        os << node.name() << ": CPU utilization " << node.cpu_utilization()
           << " exceeds " << spec.cores << " cores";
        out.push_back(os.str());
      }
    }
    return cl.size();
  });

  // -- network: flow conservation (bytes in == bytes out + in flight). ---
  add_counted_invariant("net.flows",
                        [this](std::vector<std::string>& out) -> std::uint64_t {
    for (auto& msg : tb_.cluster().network().self_check()) {
      out.push_back(std::move(msg));
    }
    return tb_.cluster().network().node_count();
  });

  // -- knative: the KPA clamps desired into [min_scale, max_scale] at ----
  // -- every evaluation, so it must hold at every instant. ---------------
  add_counted_invariant("knative.scale",
                        [this](std::vector<std::string>& out) -> std::uint64_t {
    std::uint64_t examined = 0;
    for (const auto& svc : tb_.serving().service_names()) {
      const auto* ann = tb_.serving().service_annotations(svc);
      if (ann == nullptr) continue;
      ++examined;
      const int desired = tb_.serving().desired_replicas(svc);
      if (desired < ann->min_scale ||
          (ann->max_scale > 0 && desired > ann->max_scale)) {
        out.push_back(svc + ": desired " + std::to_string(desired) +
                      " outside [" + std::to_string(ann->min_scale) + ", " +
                      (ann->max_scale > 0 ? std::to_string(ann->max_scale)
                                          : std::string("inf")) +
                      "]");
      }
    }
    return examined;
  });

  // -- k8s: endpoints lists never contain the same pod twice, and a ------
  // -- pod marked ready is a running pod. --------------------------------
  add_counted_invariant("k8s.endpoints",
                        [this](std::vector<std::string>& out) -> std::uint64_t {
    std::uint64_t examined = 0;
    tb_.kube().api().for_each_service([&](const k8s::Service& svc) {
      const auto* eps = tb_.kube().api().get_endpoints(svc.name);
      if (eps == nullptr) return;
      std::set<std::string> seen;
      for (const auto& ep : eps->ready) {
        ++examined;
        if (!seen.insert(ep.pod_name).second) {
          out.push_back(svc.name + ": pod " + ep.pod_name +
                        " listed twice in ready endpoints");
        }
      }
    });
    return examined;
  });
  add_counted_invariant("k8s.pods",
                        [this](std::vector<std::string>& out) -> std::uint64_t {
    std::uint64_t examined = 0;
    tb_.kube().api().for_each_pod([&](const k8s::Pod& pod) {
      ++examined;
      if (pod.ready && pod.phase != k8s::PodPhase::kRunning) {
        out.push_back(pod.name + ": ready but phase " +
                      std::string(k8s::to_string(pod.phase)));
      }
    });
    return examined;
  });

  // -- k8s: the scheduler's placement index equals a rescan of the nodes:
  // -- each ready registered node once, under its allocatable CPU, keyed
  // -- by its current used CPU, in (used CPU, name) order. ----------------
  add_counted_invariant("k8s.placement_index",
                        [this](std::vector<std::string>& out) -> std::uint64_t {
    const k8s::ApiServer& api = tb_.kube().api();
    std::vector<std::uint32_t> seen;  // index entries per node slot
    std::uint64_t examined = 0;
    for (const auto& cls : api.cpu_classes()) {
      const k8s::ApiServer::PlacedNode* prev = nullptr;
      for (const auto& entry : cls.nodes) {
        ++examined;
        if (entry.slot >= seen.size()) seen.resize(entry.slot + 1, 0);
        ++seen[entry.slot];
        const k8s::NodeObject& node = api.node_at(entry.slot);
        if (node.allocatable_cpu != cls.allocatable_cpu ||
            entry.cpu != api.usage_at(entry.slot).cpu) {
          std::ostringstream os;
          os << node.name << ": indexed at (" << entry.cpu << " used, "
             << cls.allocatable_cpu << " cores) but has ("
             << api.usage_at(entry.slot).cpu << ", " << node.allocatable_cpu
             << ")";
          out.push_back(os.str());
        }
        if (prev != nullptr &&
            (prev->cpu > entry.cpu ||
             (prev->cpu == entry.cpu &&
              api.node_at(prev->slot).name >= node.name))) {
          out.push_back(node.name + ": out of (used CPU, name) order after " +
                        api.node_at(prev->slot).name);
        }
        prev = &entry;
      }
    }
    api.for_each_node([&](std::uint32_t slot, const k8s::NodeObject& node,
                          const k8s::ApiServer::NodeUsage&) {
      const std::uint32_t n = slot < seen.size() ? seen[slot] : 0;
      if (n != (node.ready ? 1u : 0u)) {
        out.push_back(node.name + (node.ready ? " (Ready)" : " (NotReady)") +
                      " is in the placement index " + std::to_string(n) +
                      " times");
      }
    });
    return examined;
  });

  // -- knative: the ejection filter never steers traffic onto an ---------
  // -- ejected backend while a healthy alternative exists (panic picks ----
  // -- are counted separately and are legal). -----------------------------
  add_counted_invariant("knative.ejection.traffic",
                        [this](std::vector<std::string>& out) -> std::uint64_t {
    const auto misrouted = tb_.serving().outlier_misrouted();
    if (misrouted != 0) {
      out.push_back(std::to_string(misrouted) +
                    " picks landed on an ejected backend despite a healthy "
                    "alternative");
    }
    return tb_.serving().outlier_guarded_picks();
  });

  // -- knative: ejections never exceed the max_ejection_percent ----------
  // -- allowance (Envoy's cluster-wide ejection cap). ---------------------
  add_counted_invariant("knative.ejection.cap",
                        [this](std::vector<std::string>& out) -> std::uint64_t {
    std::uint64_t examined = 0;
    for (const auto& svc : tb_.serving().service_names()) {
      const auto snap = tb_.serving().outlier_snapshot(svc);
      if (!snap.enabled) continue;
      ++examined;
      if (snap.ejected > snap.allowance) {
        out.push_back(svc + ": " + std::to_string(snap.ejected) +
                      " backends ejected but max_ejection_percent allows " +
                      std::to_string(snap.allowance));
      }
    }
    return examined;
  });

  // -- k8s: each object event schedules exactly one watch batch; a -------
  // -- batch delivered twice (or a delivery without a schedule) drifts ----
  // -- the counters. ------------------------------------------------------
  add_counted_invariant("k8s.watch",
                        [this](std::vector<std::string>& out) -> std::uint64_t {
    const auto scheduled = tb_.kube().api().watch_batches_scheduled();
    const auto delivered = tb_.kube().api().watch_batches_delivered();
    if (delivered > scheduled) {
      out.push_back("watch batches delivered " + std::to_string(delivered) +
                    " > scheduled " + std::to_string(scheduled) +
                    " (an event delivered twice)");
    }
    return scheduled != 0 ? 1 : 0;
  });

  // ---- Quiesce-only: must hold once the workload is done, every fault
  // ---- window has healed and the control loops have settled.

  add_counted_invariant(
      "k8s.watch.drained",
      [this](std::vector<std::string>& out) -> std::uint64_t {
        const auto scheduled = tb_.kube().api().watch_batches_scheduled();
        const auto delivered = tb_.kube().api().watch_batches_delivered();
        if (delivered != scheduled) {
          out.push_back("watch batches delivered " +
                        std::to_string(delivered) + " != scheduled " +
                        std::to_string(scheduled) + " at quiesce");
        }
        return scheduled != 0 ? 1 : 0;
      },
      /*quiesce_only=*/true);

  add_counted_invariant(
      "knative.settled",
      [this](std::vector<std::string>& out) -> std::uint64_t {
        std::uint64_t examined = 0;
        for (const auto& svc : tb_.serving().service_names()) {
          ++examined;
          const auto* ann = tb_.serving().service_annotations(svc);
          const int desired = tb_.serving().desired_replicas(svc);
          const int ready = tb_.serving().ready_replicas(svc);
          if (ready != desired) {
            out.push_back(svc + ": " + std::to_string(ready) +
                          " ready pods vs " + std::to_string(desired) +
                          " desired at quiesce");
          }
          if (ann != nullptr && ready < ann->min_scale) {
            out.push_back(svc + ": " + std::to_string(ready) +
                          " ready pods below min-scale " +
                          std::to_string(ann->min_scale) + " at quiesce");
          }
        }
        return examined;
      },
      /*quiesce_only=*/true);

  add_counted_invariant(
      "cluster.healed",
      [this](std::vector<std::string>& out) -> std::uint64_t {
        auto& cl = tb_.cluster();
        for (std::size_t i = 0; i < cl.size(); ++i) {
          if (!cl.node(i).up()) {
            out.push_back(cl.node(i).name() + ": still down at quiesce");
          }
        }
        auto& net = cl.network();
        if (net.blocked_pair_count() != 0) {
          out.push_back(std::to_string(net.blocked_pair_count()) +
                        " node pairs still partitioned at quiesce");
        }
        if (net.blocked_oneway_count() != 0) {
          out.push_back(std::to_string(net.blocked_oneway_count()) +
                        " directed links still one-way blocked at quiesce");
        }
        for (std::size_t i = 0; i < net.node_count(); ++i) {
          const auto id = static_cast<net::NodeId>(i);
          if (net.node_bandwidth_factor(id) != 1.0) {
            out.push_back("net node " + std::to_string(i) +
                          ": NIC still degraded at factor " +
                          std::to_string(net.node_bandwidth_factor(id)));
          }
          if (net.node_flaky_every(id) != 0) {
            out.push_back("net node " + std::to_string(i) +
                          ": NIC still flaky at quiesce");
          }
        }
        if (!tb_.registry().available(tb_.sim().now())) {
          out.push_back("image registry still in outage at quiesce");
        }
        return cl.size();
      },
      /*quiesce_only=*/true);

  add_counted_invariant(
      "condor.drained",
      [this](std::vector<std::string>& out) -> std::uint64_t {
        if (tb_.condor().running_jobs() != 0) {
          out.push_back(std::to_string(tb_.condor().running_jobs()) +
                        " condor jobs still running at quiesce");
        }
        if (tb_.condor().idle_jobs() != 0) {
          out.push_back(std::to_string(tb_.condor().idle_jobs()) +
                        " condor jobs still idle at quiesce");
        }
        return tb_.condor().worker_count();
      },
      /*quiesce_only=*/true);

  // -- catalog: client/service ledgers tally — local answers never --------
  // -- exceed the lookups that could have produced them, and the service --
  // -- never resolves more requests than arrived. -------------------------
  add_counted_invariant("catalog.cache",
                        [this](std::vector<std::string>& out) -> std::uint64_t {
    const auto* client = tb_.catalog_client();
    const auto* service = tb_.catalog_service();
    if (client == nullptr || service == nullptr) return 0;
    const auto local = client->cache_hits() + client->negative_hits() +
                       client->coalesced();
    if (local > client->lookups()) {
      out.push_back("catalog client answered " + std::to_string(local) +
                    " lookups locally out of only " +
                    std::to_string(client->lookups()) + " issued");
    }
    const auto resolved = service->served() + service->outage_rejects() +
                          service->overload_sheds();
    if (resolved > service->requests()) {
      out.push_back("catalog service resolved " + std::to_string(resolved) +
                    " requests but only " +
                    std::to_string(service->requests()) + " arrived");
    }
    return client->lookups();
  });

  // -- catalog: an open breaker means NO direct service calls — the -------
  // -- whole point of tripping it. ----------------------------------------
  add_counted_invariant("catalog.breaker",
                        [this](std::vector<std::string>& out) -> std::uint64_t {
    const auto* client = tb_.catalog_client();
    if (client == nullptr) return 0;
    if (client->calls_while_open() != 0) {
      out.push_back(std::to_string(client->calls_while_open()) +
                    " service calls issued while the breaker was open");
    }
    return client->service_calls();
  });

  add_counted_invariant(
      "catalog.drained",
      [this](std::vector<std::string>& out) -> std::uint64_t {
        const auto* client = tb_.catalog_client();
        const auto* service = tb_.catalog_service();
        if (client == nullptr || service == nullptr) return 0;
        if (service->in_flight() != 0) {
          out.push_back(std::to_string(service->in_flight()) +
                        " catalog requests still in service at quiesce");
        }
        if (client->in_flight_keys() != 0) {
          out.push_back(std::to_string(client->in_flight_keys()) +
                        " single-flight catalog fetches still out at quiesce");
        }
        if (!service->available(tb_.sim().now())) {
          out.push_back("catalog service still in outage at quiesce");
        }
        return 1;
      },
      /*quiesce_only=*/true);
}

void InvariantChecker::arm() {
  if (armed_) return;
  armed_ = true;
  // The testbed probe fires the instant the workload completes — before
  // pods drain, watches flush, or fault windows heal — so it sweeps the
  // always-on invariants only. check_quiesce() is for the caller, once
  // the simulation has actually settled.
  tb_.set_quiesce_probe([this] { check_now(); });
  chain_cadence();
}

void InvariantChecker::chain_cadence() {
  if (config_.interval_s <= 0) return;
  tb_.sim().call_in(config_.interval_s, [this] {
    check_now();
    if (tb_.sim().now() < config_.horizon_s) chain_cadence();
  });
}

void InvariantChecker::check_now() { sweep(/*quiesce=*/false); }

void InvariantChecker::check_quiesce() { sweep(/*quiesce=*/true); }

void InvariantChecker::sweep(bool quiesce) {
  ++sweeps_;
  std::vector<std::string> messages;
  for (auto& entry : entries_) {
    if (entry.quiesce_only && !quiesce) continue;
    ++evaluations_;
    ++entry.evaluations;
    messages.clear();
    entry.exercised += entry.probe(messages);
    entry.violations += messages.size();
    for (auto& msg : messages) {
      if (violations_.size() >= config_.max_violations) return;
      violations_.push_back(
          Violation{tb_.sim().now(), entry.name, std::move(msg)});
      if (config_.throw_on_violation) {
        const auto& v = violations_.back();
        std::ostringstream os;
        os << "invariant " << v.invariant << " violated at t=" << v.time
           << ": " << v.detail;
        throw CheckFailure(os.str());
      }
    }
  }
}

std::vector<InvariantChecker::InvariantStats> InvariantChecker::per_invariant()
    const {
  std::vector<InvariantStats> out;
  out.reserve(entries_.size());
  for (const auto& entry : entries_) {
    out.push_back(InvariantStats{entry.name, entry.quiesce_only,
                                 entry.evaluations, entry.exercised,
                                 entry.violations});
  }
  return out;
}

std::string InvariantChecker::report() const {
  std::ostringstream os;
  for (const auto& v : violations_) {
    os << "[t=" << v.time << "] " << v.invariant << ": " << v.detail << "\n";
  }
  return os.str();
}

}  // namespace sf::check
