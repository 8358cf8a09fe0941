// Chaos sweep — recovery under structured failure injection, two sweeps:
//
//  1. Intensity sweep: makespan vs fault intensity for a fig6-style
//     concurrent workflow set (half native / half Knative) under every
//     sf::fault channel — independent crashes / outages / kills /
//     degradation / partitions PLUS correlated incidents (rack PDU trips,
//     rack cut-set partitions, deploy storms) and gray failures (CPU
//     stragglers, flaky NICs) on a 2-rack layout of the 4-node testbed.
//
//  2. Autoscale chaos: KPA burst workload (scale-from-zero, concurrency-1
//     pods) with the same structured injector running underneath, so
//     scale-up races eviction: the node-lifecycle controller evicts pods
//     off crashed/partitioned nodes while the autoscaler is still adding
//     them, and queue-proxy deadlines + router retries + a driver-level
//     retry loop absorb the requests caught in between.
//
// Recovery = DAGMan retries, node-lifecycle eviction, negotiator
// reachability gating, queue-proxy deadlines, router + driver retries.
//
// Determinism contract: each sweep point builds its own testbed +
// injector from fixed seeds, points run across a SweepRunner pool, and
// rows print in sweep order — stdout is bit-identical at any
// SF_SWEEP_THREADS (asserted by tests/fault/injector_test.cpp and the
// scripts/tier1.sh --chaos golden diff).
//
// SF_CHAOS_SMOKE=1 shrinks both sweeps (fewer levels, smaller workloads)
// for the tier-1 smoke leg; the output format is unchanged.

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/testbed.hpp"
#include "fault/injector.hpp"
#include "pegasus/abstract_workflow.hpp"
#include "sim/sweep_runner.hpp"

namespace {

using namespace sf;
using namespace sf::core;

bool smoke_mode() {
  const char* env = std::getenv("SF_CHAOS_SMOKE");
  return env != nullptr && env[0] == '1';
}

struct Level {
  const char* label;
  double intensity;  ///< fault arrival-rate multiplier (0 = no faults)
};

fault::FaultConfig chaos_config(double intensity) {
  fault::FaultConfig cfg;
  cfg.horizon_s = 2400;
  cfg.racks = 2;  // nodes {0,1} | {2,3}
  if (intensity <= 0) return cfg;  // all channels off
  // Independent fail-stop channels.
  cfg.node_crash_mean_s = 240 / intensity;
  cfg.node_downtime_s = 25;
  cfg.pull_outage_mean_s = 180 / intensity;
  cfg.pull_outage_duration_s = 6;
  cfg.pod_kill_mean_s = 150 / intensity;
  cfg.degrade_mean_s = 120 / intensity;
  cfg.degrade_duration_s = 20;
  cfg.degrade_factor = 0.25;
  cfg.partition_mean_s = 200 / intensity;
  cfg.partition_duration_s = 12;
  // Correlated incidents.
  cfg.rack_fail_mean_s = 600 / intensity;
  cfg.rack_fail_downtime_s = 30;
  cfg.rack_partition_mean_s = 400 / intensity;
  cfg.rack_partition_duration_s = 18;
  cfg.deploy_storm_mean_s = 300 / intensity;
  cfg.deploy_storm_outage_s = 8;
  cfg.deploy_storm_kills = 3;
  // Gray failures.
  cfg.cpu_slow_mean_s = 150 / intensity;
  cfg.cpu_slow_duration_s = 25;
  cfg.cpu_slow_factor = 0.2;
  cfg.flaky_nic_mean_s = 130 / intensity;
  cfg.flaky_nic_duration_s = 25;
  cfg.flaky_nic_every = 4;
  cfg.flaky_nic_stall_s = 1.5;
  return cfg;
}

/// Gray-only fault plan for the ejection ablation: CPU stragglers, flaky
/// NICs and one-way partitions — the failures heartbeats cannot see (the
/// node keeps renewing its lease while its pods limp or their replies
/// vanish). Fail-stop channels stay off so the comparison isolates the
/// data plane's passive health checking.
fault::FaultConfig gray_config(double intensity) {
  fault::FaultConfig cfg;
  cfg.horizon_s = 2400;
  cfg.racks = 2;
  if (intensity <= 0) return cfg;
  // Deep stragglers: a 0.45 s task takes ~9 s at factor 0.05 — past the
  // 4 s per-attempt deadline, so a slowed pod answers with 504s instead
  // of merely lagging.
  cfg.cpu_slow_mean_s = 120 / intensity;
  cfg.cpu_slow_duration_s = 35;
  cfg.cpu_slow_factor = 0.05;
  cfg.flaky_nic_mean_s = 120 / intensity;
  cfg.flaky_nic_duration_s = 25;
  cfg.flaky_nic_every = 3;
  cfg.flaky_nic_stall_s = 2.0;
  cfg.oneway_partition_mean_s = 140 / intensity;
  cfg.oneway_partition_duration_s = 30;
  return cfg;
}

// ---- Sweep 1: fig6 mix vs intensity ----------------------------------

struct PointResult {
  double makespan_s = 0;
  bool ok = false;
  std::uint64_t crashes = 0;
  std::uint64_t pod_kills = 0;
  std::uint64_t outages = 0;
  std::uint64_t degrades = 0;
  std::uint64_t partitions = 0;
  std::uint64_t rack_cuts = 0;
  std::uint64_t cpu_slows = 0;
  std::uint64_t flaky = 0;
  std::uint64_t condor_aborts = 0;
  std::uint64_t pods_replaced = 0;
};

PointResult run_point(double intensity, int n_workflows, int tasks_each) {
  TestbedOptions opts;
  // Cold pulls on every scale-up so the registry-outage channel has a
  // real pull path to break; retries absorb crashed attempts.
  opts.prestage_images = false;
  opts.dag_retries = 4;
  opts.provisioning.request_timeout_s = 45;
  PaperTestbed tb(42, opts);
  tb.register_matmul_function();

  fault::FaultInjector injector(tb, chaos_config(intensity),
                                /*seed=*/0xC4405EEDull);
  injector.arm();

  const auto result = tb.run_concurrent_mix(n_workflows, tasks_each,
                                            metrics::MixPoint{0.5, 0.0, 0.5});

  PointResult r;
  r.makespan_s = result.slowest;
  r.ok = result.all_succeeded;
  r.crashes = injector.applied(fault::FaultKind::kNodeCrash);
  r.pod_kills = injector.applied(fault::FaultKind::kPodKill);
  r.outages = injector.applied(fault::FaultKind::kRegistryOutage);
  r.degrades = injector.applied(fault::FaultKind::kLinkDegrade);
  r.partitions = injector.applied(fault::FaultKind::kPartition);
  r.rack_cuts = injector.applied(fault::FaultKind::kRackPartition);
  r.cpu_slows = injector.applied(fault::FaultKind::kCpuSlow);
  r.flaky = injector.applied(fault::FaultKind::kFlakyNic);
  r.condor_aborts = tb.condor().jobs_aborted();
  r.pods_replaced = tb.kube().controller_pods_replaced();
  return r;
}

// ---- Sweep 2: chaos under autoscaling --------------------------------

struct AutoscaleResult {
  double makespan_s = 0;
  bool ok = false;
  std::uint64_t crashes = 0;
  std::uint64_t pod_kills = 0;
  std::uint64_t rack_cuts = 0;
  std::uint64_t cold_starts = 0;
  std::uint64_t route_retries = 0;
  std::uint64_t driver_retries = 0;
  std::uint64_t pods_replaced = 0;
};

/// Scale-from-zero bursts racing the injector: `bursts` waves of
/// `burst_size` concurrent invocations, one wave every `spacing_s`.
/// Failed responses (the router's retry budget exhausted mid-incident)
/// are re-driven by the client after a 1 s backoff — the outermost retry
/// loop a real workflow wrapper would run.
AutoscaleResult run_autoscale_point(double intensity, int bursts,
                                    int burst_size) {
  constexpr int kMaxDriverAttempts = 12;
  constexpr double kBurstSpacing = 90.0;

  TestbedOptions opts;
  opts.prestage_images = false;  // every scale-up pulls through the chaos
  ProvisioningPolicy policy = ProvisioningPolicy::deferred();
  policy.container_concurrency = 1;
  policy.request_timeout_s = 30;
  opts.provisioning = policy;
  PaperTestbed tb(42, opts);
  tb.register_matmul_function();

  fault::FaultConfig cfg = chaos_config(intensity);
  // Bias toward the channels that fight the autoscaler: kills and rack
  // incidents evict pods the KPA just brought up.
  if (intensity > 0) {
    cfg.pod_kill_mean_s = 80 / intensity;
    cfg.rack_fail_mean_s = 400 / intensity;
  }
  fault::FaultInjector injector(tb, cfg, /*seed=*/0xC4A0C4A0ull);
  injector.arm();

  const int total = bursts * burst_size;
  int done = 0;
  std::uint64_t driver_retries = 0;
  std::function<void(int)> send = [&](int attempt) {
    net::HttpRequest req;
    TaskPayload payload;
    payload.work_coreseconds = tb.calibration().matmul_work_s;
    payload.output_bytes = 64;
    req.body = payload;
    req.body_bytes = 128;
    tb.serving().invoke(tb.cluster().node(0).net_id(), "fn-matmul",
                        std::move(req), [&, attempt](net::HttpResponse resp) {
                          if (resp.ok()) {
                            ++done;
                            return;
                          }
                          if (attempt >= kMaxDriverAttempts) return;  // lost
                          ++driver_retries;
                          tb.sim().call_in(1.0,
                                           [&, attempt] { send(attempt + 1); });
                        });
  };
  const double t0 = tb.sim().now();
  for (int b = 0; b < bursts; ++b) {
    tb.sim().call_in(b * kBurstSpacing, [&, burst_size] {
      for (int i = 0; i < burst_size; ++i) send(1);
    });
  }
  // Heartbeats keep the event queue non-empty forever, so the drive loop
  // needs a wall: if any request exhausts its driver retries (it never
  // should), stop at the deadline and report the loss instead of spinning.
  const double deadline = t0 + 3600;
  while (done < total && tb.sim().has_pending_events() &&
         tb.sim().now() < deadline) {
    tb.sim().step();
  }

  AutoscaleResult r;
  r.makespan_s = tb.sim().now() - t0;
  r.ok = done == total;
  r.crashes = injector.applied(fault::FaultKind::kNodeCrash);
  r.pod_kills = injector.applied(fault::FaultKind::kPodKill);
  r.rack_cuts = injector.applied(fault::FaultKind::kRackPartition);
  r.cold_starts = tb.serving().cold_start_requests("fn-matmul");
  r.route_retries = tb.serving().route_retries("fn-matmul");
  r.driver_retries = driver_retries;
  r.pods_replaced = tb.kube().controller_pods_replaced();
  return r;
}

// ---- Sweep 3: gray failures, outlier ejection on/off ------------------

struct GrayResult {
  double makespan_s = 0;
  bool ok = false;
  std::uint64_t cpu_slows = 0;
  std::uint64_t flaky = 0;
  std::uint64_t oneway = 0;
  std::uint64_t ejections = 0;
  std::uint64_t readmissions = 0;
  std::uint64_t route_retries = 0;
  std::uint64_t unresponsive = 0;
};

/// Fixed warm fleet (3 concurrency-1 pods, no autoscaling, prestaged
/// images) running a fully-serverless DAG mix through gray failures.
/// The two arms share every knob — queue-proxy deadline, router
/// per-attempt deadline, retry budget — and differ ONLY in
/// outlier.enabled, so the makespan gap is the ejection filter's payoff:
/// with it off, round-robin keeps feeding the straggler and every visit
/// pays a deadline; with it on, the detector exiles the backend after a
/// short burst of gateway failures and only probation probes pay.
GrayResult run_gray_point(double intensity, bool ejection, int n_workflows,
                          int tasks_each) {
  TestbedOptions opts;
  opts.prestage_images = true;
  opts.dag_retries = 4;
  ProvisioningPolicy policy = ProvisioningPolicy::prestaged(3);
  policy.max_scale = 3;
  policy.container_concurrency = 1;
  policy.request_timeout_s = 10;
  policy.route_timeout_s = 4;
  if (ejection) {
    policy.outlier.enabled = true;
    policy.outlier.consecutive_gateway = 3;
    // Windows tuned to the gray fault durations (25-35 s): long enough
    // to stop feeding a limping backend, short enough that probation
    // re-admits it within one window of healing.
    policy.outlier.base_ejection_s = 10;
    policy.outlier.max_ejection_s = 40;
  }
  opts.provisioning = policy;
  PaperTestbed tb(42, opts);
  tb.register_matmul_function();

  fault::FaultInjector injector(tb, gray_config(intensity),
                                /*seed=*/0x6EA45EEDull);
  injector.arm();

  const auto result = tb.run_concurrent_mix(n_workflows, tasks_each,
                                            metrics::MixPoint{0.0, 0.0, 1.0});

  GrayResult r;
  r.makespan_s = result.slowest;
  r.ok = result.all_succeeded;
  r.cpu_slows = injector.applied(fault::FaultKind::kCpuSlow);
  r.flaky = injector.applied(fault::FaultKind::kFlakyNic);
  r.oneway = injector.applied(fault::FaultKind::kOnewayPartition);
  r.ejections = tb.serving().ejections("fn-matmul");
  r.readmissions = tb.serving().readmissions("fn-matmul");
  r.route_retries = tb.serving().route_retries("fn-matmul");
  r.unresponsive = tb.serving().route_failures("fn-matmul").unresponsive;
  return r;
}

// ---- Sweep 4: admission control under a synchronized burst ------------

struct AdmissionResult {
  double drain_s = 0;  ///< time until every request is answered
  bool ok = false;     ///< every request answered (200 or shed 429)
  std::uint64_t r200 = 0;
  std::uint64_t r429 = 0;
  std::uint64_t other = 0;
  std::uint64_t rejections = 0;  ///< router admission counter
  std::size_t peak_queue = 0;    ///< deepest backend queue observed
};

/// One synchronized burst against the same fixed 3-pod fleet, admission
/// token bucket on/off. Off: every request queues and the per-pod
/// backlog grows unbounded with burst size. On: the bucket sheds the
/// excess with fast 429s after the router's jittered in-flight retries,
/// keeping backend queues near the bucket burst size.
AdmissionResult run_admission_point(bool admission, int burst) {
  TestbedOptions opts;
  opts.prestage_images = true;
  ProvisioningPolicy policy = ProvisioningPolicy::prestaged(3);
  policy.max_scale = 3;
  policy.container_concurrency = 1;
  if (admission) {
    policy.admission.fill_rate_hz = 2.0;
    policy.admission.burst = 6.0;
  }
  opts.provisioning = policy;
  PaperTestbed tb(42, opts);
  tb.register_matmul_function();

  AdmissionResult r;
  std::uint64_t answered = 0;
  const double t0 = tb.sim().now();
  for (int i = 0; i < burst; ++i) {
    net::HttpRequest req;
    TaskPayload payload;
    payload.work_coreseconds = tb.calibration().matmul_work_s;
    payload.output_bytes = 64;
    req.body = payload;
    req.body_bytes = 128;
    tb.serving().invoke(tb.cluster().node(0).net_id(), "fn-matmul",
                        std::move(req), [&](net::HttpResponse resp) {
                          ++answered;
                          if (resp.status == 200) {
                            ++r.r200;
                          } else if (resp.status == 429) {
                            ++r.r429;
                          } else {
                            ++r.other;
                          }
                        });
  }
  const double deadline = t0 + 3600;
  while (answered < static_cast<std::uint64_t>(burst) &&
         tb.sim().has_pending_events() && tb.sim().now() < deadline) {
    tb.sim().step();
  }

  r.drain_s = tb.sim().now() - t0;
  r.ok = answered == static_cast<std::uint64_t>(burst);
  r.rejections = tb.serving().admission_rejections("fn-matmul");
  r.peak_queue = tb.serving().peak_backend_queue("fn-matmul");
  return r;
}

// ---- Sweep 5: catalog outages, metadata-tier resilience on/off --------

/// A matmul chain whose workflow-initial inputs are the SAME shared lfns
/// for every workflow and every wave ("catshared.in0..inN"), so each new
/// wave re-resolves keys the previous wave already looked up — the access
/// pattern that gives a TTL cache and stale-while-revalidate something to
/// do. Intermediate and final files stay wave-unique.
pegasus::AbstractWorkflow make_shared_input_chain(const std::string& name,
                                                  int n_tasks,
                                                  double matrix_bytes) {
  pegasus::AbstractWorkflow wf(name);
  for (int i = 0; i <= n_tasks; ++i) {
    wf.declare_file("catshared.in" + std::to_string(i), matrix_bytes);
  }
  for (int i = 0; i < n_tasks; ++i) {
    const std::string out = name + ".m" + std::to_string(i + 1);
    wf.declare_file(out, matrix_bytes);
    pegasus::AbstractJob job;
    job.id = name + ".t" + std::to_string(i);
    job.transformation = "matmul";
    const std::string prev =
        i == 0 ? "catshared.in0" : name + ".m" + std::to_string(i);
    job.uses = {{prev, pegasus::LinkType::kInput},
                {"catshared.in" + std::to_string(i + 1),
                 pegasus::LinkType::kInput},
                {out, pegasus::LinkType::kOutput}};
    wf.add_job(std::move(job));
  }
  return wf;
}

struct CatalogResult {
  double makespan_s = 0;
  bool ok = false;
  std::uint64_t outages = 0;
  std::uint64_t lookups = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t stale = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t service_calls = 0;
  std::uint64_t retries = 0;
  std::uint64_t breaker_opens = 0;
  std::uint64_t errors = 0;
};

/// Sequential waves of shared-input chains resolved through the catalog
/// tier while the injector blacks the service out. Both arms share the
/// service (50 ms ops, 8 connections), the retry envelope (6 attempts,
/// ~15 s worst case — longer than one 10 s outage, so a naive lookup can
/// always grind through) and the DAG retry budget; they differ ONLY in
/// cache + breaker + stale-while-revalidate. The resilient arm answers
/// repeat keys locally (fresh hits) or degrades to stale reads a beat
/// after the breaker trips; the naive arm pays the full backoff ladder
/// for every lookup an outage window catches.
CatalogResult run_catalog_point(double intensity, bool resilient, int waves,
                                int wave_width, int tasks_each) {
  TestbedOptions opts;
  opts.dag_retries = 6;
  opts.catalog.enabled = true;
  opts.catalog.service.service_time_s = 0.05;
  opts.catalog.service.max_connections = 8;
  catalog::CatalogClientConfig& cc = opts.catalog.client;
  cc.retry = fault::RetryPolicy{6, 0.5, 8.0, 2.0, 0.5};
  // TTL shorter than a wave: every wave revalidates, so outage windows
  // exercise the stale path instead of hiding behind fresh entries.
  cc.ttl_s = 6;
  cc.breaker_failures = 3;
  cc.breaker_open_s = 12;
  cc.cache_enabled = resilient;
  cc.breaker_enabled = resilient;
  cc.stale_while_revalidate = resilient;
  PaperTestbed tb(42, opts);

  fault::FaultConfig cfg;
  cfg.horizon_s = 2400;
  if (intensity > 0) {
    cfg.catalog_outage_mean_s = 45 / intensity;
    cfg.catalog_outage_duration_s = 10;
  }
  fault::FaultInjector injector(tb, cfg, /*seed=*/0xCA7A9065ull);
  injector.arm();

  const double t0 = tb.sim().now();
  bool all_ok = true;
  for (int wave = 0; wave < waves; ++wave) {
    std::vector<pegasus::AbstractWorkflow> wfs;
    wfs.reserve(static_cast<std::size_t>(wave_width));
    for (int w = 0; w < wave_width; ++w) {
      wfs.push_back(make_shared_input_chain(
          "catv" + std::to_string(wave) + ".wf" + std::to_string(w),
          tasks_each, tb.calibration().matrix_bytes));
    }
    const auto res = tb.run_workflows(wfs, {});
    all_ok = all_ok && res.all_succeeded;
  }

  CatalogResult r;
  r.makespan_s = tb.sim().now() - t0;
  r.ok = all_ok;
  r.outages = injector.applied(fault::FaultKind::kCatalogOutage);
  const catalog::CatalogClient& client = *tb.catalog_client();
  r.lookups = client.lookups();
  r.cache_hits = client.cache_hits();
  r.stale = client.stale_served();
  r.coalesced = client.coalesced();
  r.service_calls = client.service_calls();
  r.retries = client.retries();
  r.breaker_opens = client.breaker_opens();
  r.errors = client.errors();
  return r;
}

struct StampedeResult {
  double drain_s = 0;
  bool ok = false;
  std::uint64_t lookups = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t service_calls = 0;
};

/// Cold-start stampede: `clients` simultaneous lookups of ONE hot key
/// against an empty cache. Single-flight coalescing folds them into one
/// wire fetch whose reply fans out to every waiter; the naive arm sends
/// them all.
StampedeResult run_stampede_point(bool coalescing, int clients) {
  TestbedOptions opts;
  opts.catalog.enabled = true;
  // Slow-ish service with few slots so the stampede's cost is visible:
  // the naive arm serializes clients/connections batches of 50 ms ops.
  opts.catalog.service.service_time_s = 0.05;
  opts.catalog.service.max_connections = 4;
  opts.catalog.client.cache_enabled = coalescing;
  PaperTestbed tb(42, opts);
  tb.replicas().register_replica("catshared.dataset",
                                 tb.condor().submit_staging());

  int done = 0;
  bool all_ok = true;
  for (int i = 0; i < clients; ++i) {
    tb.catalog_client()->lookup(
        "catshared.dataset", [&done, &all_ok](bool ok, storage::Volume*) {
          ++done;
          all_ok = all_ok && ok;
        });
  }
  const double t0 = tb.sim().now();
  const double deadline = t0 + 600;
  while (done < clients && tb.sim().has_pending_events() &&
         tb.sim().now() < deadline) {
    tb.sim().step();
  }

  StampedeResult r;
  r.drain_s = tb.sim().now() - t0;
  r.ok = all_ok && done == clients;
  const catalog::CatalogClient& client = *tb.catalog_client();
  r.lookups = client.lookups();
  r.coalesced = client.coalesced();
  r.service_calls = client.service_calls();
  return r;
}

}  // namespace

int main() {
  const bool smoke = smoke_mode();

  sf::bench::banner(
      "Chaos sweep: makespan vs fault intensity",
      "fig6-style mix under crashes / outages / kills / partitions plus "
      "correlated rack incidents, deploy storms and gray failures "
      "(CPU stragglers, flaky NICs) on a 2-rack layout");

  std::vector<Level> levels{{"none", 0.0},
                            {"light", 1.0},
                            {"moderate", 2.0},
                            {"heavy", 4.0},
                            {"extreme", 8.0}};
  int n_workflows = 10;
  int tasks_each = 10;
  if (smoke) {
    levels = {{"none", 0.0}, {"moderate", 2.0}};
    n_workflows = 4;
    tasks_each = 6;
  }

  sf::sim::SweepRunner runner;
  const std::vector<PointResult> results = runner.run(
      levels.size(), [&levels, n_workflows, tasks_each](std::size_t i) {
        return run_point(levels[i].intensity, n_workflows, tasks_each);
      });

  sf::metrics::Table table(
      {"level", "crashes", "pod_kills", "outages", "degrades", "partitions",
       "rack_cuts", "cpu_slow", "flaky", "condor_aborts", "pods_replaced",
       "makespan_s", "ok"},
      2);
  for (std::size_t i = 0; i < levels.size(); ++i) {
    const PointResult& r = results[i];
    table.add_row({std::string(levels[i].label),
                   static_cast<std::int64_t>(r.crashes),
                   static_cast<std::int64_t>(r.pod_kills),
                   static_cast<std::int64_t>(r.outages),
                   static_cast<std::int64_t>(r.degrades),
                   static_cast<std::int64_t>(r.partitions),
                   static_cast<std::int64_t>(r.rack_cuts),
                   static_cast<std::int64_t>(r.cpu_slows),
                   static_cast<std::int64_t>(r.flaky),
                   static_cast<std::int64_t>(r.condor_aborts),
                   static_cast<std::int64_t>(r.pods_replaced), r.makespan_s,
                   std::string(r.ok ? "yes" : "NO")});
  }
  table.print_text(std::cout);
  std::cout << "\nall points recover within the retry budget; makespan "
               "grows with fault intensity\n";

  sf::bench::banner(
      "Autoscale chaos: scale-from-zero bursts racing eviction",
      "KPA bursts (concurrency-1 pods, deferred pull) while the injector "
      "kills pods, trips racks and cuts the fabric; queue-proxy 504s + "
      "router and driver retries recover every request");

  std::vector<Level> auto_levels{
      {"calm", 0.0}, {"stormy", 1.0}, {"violent", 2.0}};
  int bursts = 4;
  int burst_size = 24;
  if (smoke) {
    auto_levels = {{"calm", 0.0}, {"stormy", 1.0}};
    bursts = 2;
    burst_size = 8;
  }

  const std::vector<AutoscaleResult> auto_results = runner.run(
      auto_levels.size(), [&auto_levels, bursts, burst_size](std::size_t i) {
        return run_autoscale_point(auto_levels[i].intensity, bursts,
                                   burst_size);
      });

  sf::metrics::Table auto_table(
      {"level", "crashes", "pod_kills", "rack_cuts", "cold_starts",
       "route_retries", "driver_retries", "pods_replaced", "makespan_s",
       "ok"},
      2);
  for (std::size_t i = 0; i < auto_levels.size(); ++i) {
    const AutoscaleResult& r = auto_results[i];
    auto_table.add_row({std::string(auto_levels[i].label),
                        static_cast<std::int64_t>(r.crashes),
                        static_cast<std::int64_t>(r.pod_kills),
                        static_cast<std::int64_t>(r.rack_cuts),
                        static_cast<std::int64_t>(r.cold_starts),
                        static_cast<std::int64_t>(r.route_retries),
                        static_cast<std::int64_t>(r.driver_retries),
                        static_cast<std::int64_t>(r.pods_replaced),
                        r.makespan_s,
                        std::string(r.ok ? "yes" : "NO")});
  }
  auto_table.print_text(std::cout);
  std::cout << "\nevery burst request completes: the autoscaler re-adds "
               "capacity faster than the injector evicts it\n";

  sf::bench::banner(
      "Gray chaos: outlier ejection ablation",
      "fixed 3-pod fleet under heartbeat-invisible failures (CPU "
      "stragglers, flaky NICs, one-way partitions); both arms share every "
      "deadline and retry knob and differ only in outlier ejection");

  std::vector<Level> gray_levels{
      {"light", 1.0}, {"moderate", 2.0}, {"heavy", 4.0}};
  // Keep offered load below fleet capacity (3 concurrency-1 pods): the
  // ablation measures routing quality, not queueing at saturation —
  // saturated fleets make every exclusion a capacity loss and bury the
  // steering signal.
  int gray_workflows = 4;
  int gray_tasks = 12;
  if (smoke) {
    gray_levels = {{"moderate", 2.0}};
    gray_workflows = 3;
    gray_tasks = 5;
  }

  const std::size_t gray_points = gray_levels.size() * 2;
  const std::vector<GrayResult> gray_results = runner.run(
      gray_points, [&gray_levels, gray_workflows, gray_tasks](std::size_t i) {
        const bool ejection = (i % 2) == 1;
        return run_gray_point(gray_levels[i / 2].intensity, ejection,
                              gray_workflows, gray_tasks);
      });

  sf::metrics::Table gray_table(
      {"level", "ejection", "cpu_slow", "flaky", "oneway", "ejections",
       "readmits", "route_retries", "unresponsive", "makespan_s", "ok"},
      2);
  for (std::size_t i = 0; i < gray_points; ++i) {
    const GrayResult& r = gray_results[i];
    gray_table.add_row({std::string(gray_levels[i / 2].label),
                        std::string((i % 2) == 1 ? "on" : "off"),
                        static_cast<std::int64_t>(r.cpu_slows),
                        static_cast<std::int64_t>(r.flaky),
                        static_cast<std::int64_t>(r.oneway),
                        static_cast<std::int64_t>(r.ejections),
                        static_cast<std::int64_t>(r.readmissions),
                        static_cast<std::int64_t>(r.route_retries),
                        static_cast<std::int64_t>(r.unresponsive),
                        r.makespan_s, std::string(r.ok ? "yes" : "NO")});
  }
  gray_table.print_text(std::cout);
  std::cout << "\nejection-on exiles the straggler after a short burst of "
               "gateway failures, so only probation probes pay deadlines "
               "and the makespan gap closes\n";

  sf::bench::banner(
      "Admission control: synchronized burst, token bucket on/off",
      "one burst against the fixed 3-pod concurrency-1 fleet; the bucket "
      "sheds the excess with fast 429s and bounds backend queues");

  int adm_burst = 48;
  if (smoke) adm_burst = 16;

  const std::vector<AdmissionResult> adm_results =
      runner.run(2, [adm_burst](std::size_t i) {
        return run_admission_point(/*admission=*/i == 1, adm_burst);
      });

  sf::metrics::Table adm_table({"admission", "burst", "r200", "r429", "other",
                                "rejections", "peak_queue", "drain_s", "ok"},
                               2);
  for (std::size_t i = 0; i < 2; ++i) {
    const AdmissionResult& r = adm_results[i];
    adm_table.add_row({std::string(i == 1 ? "on" : "off"),
                       static_cast<std::int64_t>(adm_burst),
                       static_cast<std::int64_t>(r.r200),
                       static_cast<std::int64_t>(r.r429),
                       static_cast<std::int64_t>(r.other),
                       static_cast<std::int64_t>(r.rejections),
                       static_cast<std::int64_t>(r.peak_queue), r.drain_s,
                       std::string(r.ok ? "yes" : "NO")});
  }
  adm_table.print_text(std::cout);
  std::cout << "\nwith the bucket on, backend queues stay near the bucket "
               "burst while the excess fails fast instead of waiting\n";

  sf::bench::banner(
      "Catalog ablation: metadata-tier outages, resilience on/off",
      "sequential waves of shared-input chains resolve stage-in through "
      "the catalog service while the injector blacks it out; both arms "
      "share the retry envelope and differ only in TTL cache + breaker + "
      "stale-while-revalidate");

  std::vector<Level> cat_levels{
      {"none", 0.0}, {"light", 1.0}, {"moderate", 2.0}, {"heavy", 4.0}};
  int cat_waves = 3;
  int cat_width = 4;
  int cat_tasks = 6;
  if (smoke) {
    cat_levels = {{"none", 0.0}, {"moderate", 2.0}};
    cat_waves = 2;
    cat_width = 2;
    cat_tasks = 4;
  }

  const std::size_t cat_points = cat_levels.size() * 2;
  const std::vector<CatalogResult> cat_results = runner.run(
      cat_points, [&cat_levels, cat_waves, cat_width, cat_tasks](std::size_t i) {
        const bool resilient = (i % 2) == 1;
        return run_catalog_point(cat_levels[i / 2].intensity, resilient,
                                 cat_waves, cat_width, cat_tasks);
      });

  sf::metrics::Table cat_table(
      {"level", "resilience", "outages", "lookups", "cache_hits", "stale",
       "coalesced", "svc_calls", "retries", "breaker_opens", "errors",
       "makespan_s", "ok"},
      2);
  for (std::size_t i = 0; i < cat_points; ++i) {
    const CatalogResult& r = cat_results[i];
    cat_table.add_row({std::string(cat_levels[i / 2].label),
                       std::string((i % 2) == 1 ? "on" : "off"),
                       static_cast<std::int64_t>(r.outages),
                       static_cast<std::int64_t>(r.lookups),
                       static_cast<std::int64_t>(r.cache_hits),
                       static_cast<std::int64_t>(r.stale),
                       static_cast<std::int64_t>(r.coalesced),
                       static_cast<std::int64_t>(r.service_calls),
                       static_cast<std::int64_t>(r.retries),
                       static_cast<std::int64_t>(r.breaker_opens),
                       static_cast<std::int64_t>(r.errors), r.makespan_s,
                       std::string(r.ok ? "yes" : "NO")});
  }
  cat_table.print_text(std::cout);
  std::cout << "\nresilience-on answers repeat keys from the cache and "
               "degrades to stale reads once the breaker trips; the naive "
               "arm pays the full backoff ladder inside every outage\n";

  int stampede_clients = 32;
  if (smoke) stampede_clients = 16;

  const std::vector<StampedeResult> stampede_results =
      runner.run(2, [stampede_clients](std::size_t i) {
        return run_stampede_point(/*coalescing=*/i == 1, stampede_clients);
      });

  sf::metrics::Table stampede_table(
      {"coalescing", "clients", "lookups", "coalesced", "svc_calls",
       "drain_s", "ok"},
      2);
  for (std::size_t i = 0; i < 2; ++i) {
    const StampedeResult& r = stampede_results[i];
    stampede_table.add_row({std::string(i == 1 ? "on" : "off"),
                            static_cast<std::int64_t>(stampede_clients),
                            static_cast<std::int64_t>(r.lookups),
                            static_cast<std::int64_t>(r.coalesced),
                            static_cast<std::int64_t>(r.service_calls),
                            r.drain_s, std::string(r.ok ? "yes" : "NO")});
  }
  std::cout << "\ncold-start stampede: one hot key, all clients at once\n";
  stampede_table.print_text(std::cout);
  std::cout << "\nsingle-flight folds the stampede into one wire fetch "
               "whose reply fans out to every waiter\n";
  return 0;
}
