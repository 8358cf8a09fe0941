// Scale sweep — the planet-scale regime curve: control-plane and serving
// behaviour as the cluster grows past the paper's 4-VM testbed, three
// sweeps:
//
//  1. Open-loop serving: N independent users fire Poisson request streams
//     at a warm KService on clusters from 64 to 10240 nodes
//     (RackMap::blocks topology). Arrivals never wait for completions, so
//     queues genuinely build while the KPA scales out — the sweep reports
//     what the sharded watch index, per-node usage aggregates and O(1)
//     store lookups buy at 10^5 requests over 10^4 nodes. The 4096- and
//     10240-node points run with node lifecycle enabled: the shared
//     heartbeat wheel renews every lease each second and the deadline-
//     ordered sweep pops nothing, so the control plane's per-tick cost
//     stays O(changed) while serving. Each point runs to quiesce: every
//     issued request answered.
//
//  2. Layered DAGs: matmul stencil workflows (workload::make_layered_
//     matmuls) from 10^2 to 10^4 tasks through the full Pegasus → HTCondor
//     path on a 16-node testbed — the 10k-task regime the paper's 10-task
//     chains only gesture at.
//
//  3. Mixed traffic: open-loop Poisson users against a warm KService
//     WHILE a layered-DAG campaign runs through Pegasus/HTCondor on the
//     same testbed — the KPA and the condor negotiator contend for the
//     same nodes, with the node-lifecycle loop (heartbeat wheel + lease
//     sweep) live underneath.
//
// Determinism contract: each sweep point builds its own Simulation from
// fixed seeds, points run across a SweepRunner pool, rows print in sweep
// order — stdout is bit-identical at any SF_SWEEP_THREADS (enforced by the
// scripts/tier1.sh --scale golden diff). Wall-clock is measured per point
// but NEVER printed to stdout; set SF_SCALE_JSON=<path> to write it (plus
// the deterministic metrics) as JSON — bench/run_bench.sh merges that into
// BENCH_scale.json.
//
// SF_SCALE_SMOKE=1 shrinks both sweeps for the tier-1 golden leg; the
// output format is unchanged.

#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "container/image.hpp"
#include "core/testbed.hpp"
#include "fault/splitmix.hpp"
#include "k8s/kube_cluster.hpp"
#include "knative/serving.hpp"
#include "sim/sweep_runner.hpp"
#include "workload/generators.hpp"
#include "workload/open_loop.hpp"
#include "workload/scale.hpp"

namespace {

using namespace sf;

bool smoke_mode() {
  const char* env = std::getenv("SF_SCALE_SMOKE");
  return env != nullptr && env[0] == '1';
}

double wall_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// ---- Sweep 1: open-loop serving at cluster scale ---------------------

struct ServingPoint {
  const char* label;
  std::uint32_t nodes;
  std::uint32_t racks;
  int users;
  double rate_hz;    ///< per-user
  double work_s;     ///< per-request core-seconds
  double horizon_s;  ///< arrival window (cap binds before it closes)
  std::uint64_t requests;  ///< exact issued count (open-loop cap)
  int min_scale;
  /// Run with node lifecycle on: the heartbeat wheel renews every lease
  /// each second and the deadline-ordered sweep runs with nothing expired
  /// — the steady-state control-plane load the 10k-node regime is about.
  bool lifecycle = false;
};

struct ServingResult {
  std::uint64_t issued = 0;
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double drain_s = 0;  ///< last response − first arrival window start
  int pods = 0;
  std::uint64_t cold_starts = 0;
  bool quiesced = false;
  std::uint64_t fingerprint = 0;
  double wall_s = 0;  ///< JSON only — never printed to stdout
};

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

ServingResult run_serving_point(const ServingPoint& p) {
  const auto wall0 = std::chrono::steady_clock::now();
  sim::Simulation sim;
  auto topo = workload::make_scaled_topology(sim, p.nodes, p.racks);
  cluster::Node& head = topo.cluster->node(0);
  container::Registry hub{head};
  const container::Image image = container::make_task_image("fn");
  hub.push(image);
  k8s::KubeCluster kube{*topo.cluster, hub, topo.workers};
  kube.seed_image_everywhere(image);  // control-plane scale, not pull cost
  if (p.lifecycle) kube.enable_node_lifecycle();
  knative::KnativeServing serving{kube, head};

  knative::KnServiceSpec spec = workload::compute_service("fn");
  spec.annotations.min_scale = p.min_scale;
  spec.annotations.container_concurrency = 1;  // the paper's configuration
  serving.create_service(std::move(spec));
  sim.run_until(30.0);  // warm pods ready, autoscaler settled

  workload::OpenLoopConfig cfg;
  cfg.users = p.users;
  cfg.rate_hz = p.rate_hz;
  cfg.horizon_s = p.horizon_s;
  cfg.max_requests = p.requests;
  cfg.services = {"fn"};
  cfg.work_s = p.work_s;
  cfg.payload_bytes = 10000;
  cfg.seed = fault::SplitMix64::mix(0x5CA1E000ull, p.nodes);
  cfg.record_requests = true;
  workload::OpenLoopEngine engine(serving, head.net_id(), cfg);

  const double t0 = sim.now();
  engine.start();
  const double deadline = t0 + p.horizon_s + 3600.0;
  while (!engine.quiesced() && sim.has_pending_events() &&
         sim.now() < deadline) {
    sim.step();
  }

  const auto& s = engine.stats();
  const auto latencies = engine.sorted_latencies();
  ServingResult r;
  r.issued = s.issued;
  r.ok = s.ok;
  r.errors = s.errors;
  r.p50_ms = percentile(latencies, 0.50) * 1e3;
  r.p99_ms = percentile(latencies, 0.99) * 1e3;
  r.drain_s = s.last_completion_time - t0;
  r.pods = serving.ready_replicas("fn");
  r.cold_starts = serving.cold_start_requests("fn");
  r.quiesced = engine.quiesced();
  r.fingerprint = engine.fingerprint();
  r.wall_s = wall_since(wall0);
  return r;
}

// ---- Sweep 2: layered DAGs through Pegasus/HTCondor ------------------

struct DagPoint {
  const char* label;
  int layers;
  int width;
  std::size_t node_count;
};

struct DagResult {
  int tasks = 0;
  double makespan_s = 0;
  bool ok = false;
  double wall_s = 0;  ///< JSON only
};

// ---- Sweep 3: mixed traffic — serving and DAGs contending ------------

struct MixedPoint {
  const char* label;
  std::size_t node_count;
  int workflows;  ///< layered DAGs started at the same instant
  int layers;
  int width;
  double serverless_fraction;  ///< of DAG tasks, through fn-matmul
  int users;
  double rate_hz;
  double horizon_s;
  std::uint64_t requests;  ///< open-loop cap
};

struct MixedResult {
  std::uint64_t issued = 0;
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;
  double p99_ms = 0;
  int dags_finished = 0;
  bool dags_ok = false;
  double makespan_s = 0;
  bool quiesced = false;
  std::uint64_t fingerprint = 0;
  double wall_s = 0;  ///< JSON only
};

MixedResult run_mixed_point(const MixedPoint& p) {
  const auto wall0 = std::chrono::steady_clock::now();
  core::TestbedOptions opts;
  opts.node_count = p.node_count;
  core::PaperTestbed tb(42, opts);
  core::ProvisioningPolicy policy = core::ProvisioningPolicy::prestaged(2);
  policy.container_concurrency = 1;
  tb.register_matmul_function(policy);
  // The lifecycle loop runs underneath the contention: every kubelet on
  // the shared heartbeat wheel, the deadline-ordered sweep popping nothing.
  tb.kube().enable_node_lifecycle();

  // Dedicated warm KService absorbing the open-loop streams while the
  // DAG campaign runs (the fuzz harness's ambient-traffic pattern).
  const container::Image image = container::make_task_image("fn-open");
  tb.registry().push(image);
  tb.kube().seed_image_everywhere(image);
  knative::KnServiceSpec spec = workload::compute_service("fn-open");
  spec.annotations.min_scale = 2;
  spec.annotations.container_concurrency = 1;
  spec.annotations.request_timeout_s = 60;
  tb.serving().create_service(std::move(spec));

  workload::OpenLoopConfig cfg;
  cfg.users = p.users;
  cfg.rate_hz = p.rate_hz;
  cfg.horizon_s = p.horizon_s;
  cfg.max_requests = p.requests;
  cfg.services = {"fn-open"};
  cfg.work_s = 0.05;
  cfg.payload_bytes = 10000;
  cfg.seed = fault::SplitMix64::mix(0x313ED, p.node_count);
  cfg.record_requests = true;
  workload::OpenLoopEngine engine(tb.serving(), tb.cluster().node(0).net_id(),
                                  cfg);
  engine.start();

  // The layered campaign, planned with a random native/serverless split —
  // serverless tasks route through fn-matmul, so the KPA scales that
  // service while the negotiator places the native tasks.
  std::vector<pegasus::AbstractWorkflow> workflows;
  workflows.reserve(p.workflows);
  for (int w = 0; w < p.workflows; ++w) {
    workflows.push_back(workload::make_layered_matmuls(
        "mix.wf" + std::to_string(w), p.layers, p.width,
        tb.calibration().matrix_bytes));
  }
  std::vector<const pegasus::AbstractWorkflow*> ptrs;
  for (const auto& wf : workflows) ptrs.push_back(&wf);
  metrics::MixPoint mix;
  mix.native = 1.0 - p.serverless_fraction;
  mix.serverless = p.serverless_fraction;
  const auto modes = workload::assign_modes(ptrs, mix, tb.sim().rng());
  const auto result = tb.run_workflows(workflows, modes);

  // Drain the ambient traffic: arrivals may outlive the campaign, and
  // every issued request must be answered.
  const double drain_wall = tb.sim().now() + 7200.0;
  while (!engine.quiesced() && tb.sim().has_pending_events() &&
         tb.sim().now() < drain_wall) {
    tb.sim().step();
  }

  const auto& s = engine.stats();
  const auto latencies = engine.sorted_latencies();
  MixedResult r;
  r.issued = s.issued;
  r.ok = s.ok;
  r.errors = s.errors;
  r.p99_ms = percentile(latencies, 0.99) * 1e3;
  r.dags_finished = result.finished;
  r.dags_ok = result.all_succeeded;
  r.makespan_s = result.slowest;
  r.quiesced = engine.quiesced();
  r.fingerprint = fault::SplitMix64::mix(
      engine.fingerprint(), std::bit_cast<std::uint64_t>(result.slowest));
  r.wall_s = wall_since(wall0);
  return r;
}

DagResult run_dag_point(const DagPoint& p) {
  const auto wall0 = std::chrono::steady_clock::now();
  core::TestbedOptions opts;
  opts.node_count = p.node_count;
  core::PaperTestbed tb(42, opts);
  const auto wf = workload::make_layered_matmuls(
      "scale", p.layers, p.width, tb.calibration().matrix_bytes);
  const auto result = tb.run_workflows({wf}, {});
  DagResult r;
  r.tasks = p.layers * p.width;
  r.makespan_s = result.slowest;
  r.ok = result.all_succeeded;
  r.wall_s = wall_since(wall0);
  return r;
}

}  // namespace

int main() {
  const bool smoke = smoke_mode();

  sf::bench::banner(
      "Scale sweep: open-loop users vs cluster size",
      "N independent Poisson users against a warm concurrency-1 KService; "
      "node-sharded watches + incremental usage aggregates keep the "
      "control plane O(changed) as nodes and requests grow");

  std::vector<ServingPoint> serving_points{
      {"64n", 64, 4, 32, 4.0, 0.10, 120.0, 10000, 8, false},
      {"256n", 256, 8, 96, 4.0, 0.25, 120.0, 30000, 16, false},
      {"1024n", 1024, 32, 256, 5.0, 0.40, 120.0, 100000, 32, false},
      {"4096n", 4096, 64, 512, 5.0, 0.40, 120.0, 100000, 48, true},
      {"10240n", 10240, 160, 1024, 5.0, 0.40, 120.0, 100000, 64, true},
  };
  if (smoke) {
    serving_points = {
        {"16n", 16, 2, 4, 2.0, 0.05, 60.0, 300, 2, false},
        {"48n", 48, 4, 8, 2.0, 0.10, 60.0, 800, 4, false},
        {"96n", 96, 8, 8, 2.0, 0.10, 60.0, 1200, 4, true},
    };
  }

  sf::sim::SweepRunner runner;
  const std::vector<ServingResult> serving_results =
      runner.run(serving_points.size(), [&serving_points](std::size_t i) {
        return run_serving_point(serving_points[i]);
      });

  sf::metrics::Table serving_table(
      {"point", "nodes", "racks", "users", "requests", "ok", "errors",
       "p50_ms", "p99_ms", "drain_s", "pods", "cold_starts", "quiesced"},
      2);
  std::uint64_t digest = 0x5CA1Eull;
  for (std::size_t i = 0; i < serving_points.size(); ++i) {
    const ServingPoint& p = serving_points[i];
    const ServingResult& r = serving_results[i];
    serving_table.add_row({std::string(p.label),
                           static_cast<std::int64_t>(p.nodes),
                           static_cast<std::int64_t>(p.racks),
                           static_cast<std::int64_t>(p.users),
                           static_cast<std::int64_t>(r.issued),
                           static_cast<std::int64_t>(r.ok),
                           static_cast<std::int64_t>(r.errors), r.p50_ms,
                           r.p99_ms, r.drain_s,
                           static_cast<std::int64_t>(r.pods),
                           static_cast<std::int64_t>(r.cold_starts),
                           std::string(r.quiesced ? "yes" : "NO")});
    digest = sf::fault::SplitMix64::mix(digest, r.fingerprint);
  }
  serving_table.print_text(std::cout);
  std::cout << "\nevery issued request is answered; the autoscaler absorbs "
               "the open-loop queue\n";

  sf::bench::banner(
      "Scale sweep: layered DAGs past the paper constants",
      "matmul stencil workflows (layers x width) through Pegasus planning "
      "and HTCondor execution; 10k tasks where the paper ran 10-task "
      "chains");

  std::vector<DagPoint> dag_points{
      {"100t", 10, 10, 16},
      {"1000t", 40, 25, 16},
      {"10000t", 100, 100, 16},
  };
  if (smoke) {
    dag_points = {
        {"20t", 5, 4, 4},
        {"60t", 10, 6, 4},
    };
  }

  const std::vector<DagResult> dag_results =
      runner.run(dag_points.size(), [&dag_points](std::size_t i) {
        return run_dag_point(dag_points[i]);
      });

  sf::metrics::Table dag_table(
      {"point", "tasks", "layers", "width", "nodes", "makespan_s", "ok"}, 2);
  for (std::size_t i = 0; i < dag_points.size(); ++i) {
    const DagPoint& p = dag_points[i];
    const DagResult& r = dag_results[i];
    dag_table.add_row({std::string(p.label),
                       static_cast<std::int64_t>(r.tasks),
                       static_cast<std::int64_t>(p.layers),
                       static_cast<std::int64_t>(p.width),
                       static_cast<std::int64_t>(p.node_count), r.makespan_s,
                       std::string(r.ok ? "yes" : "NO")});
    digest = sf::fault::SplitMix64::mix(
        digest, std::bit_cast<std::uint64_t>(r.makespan_s));
  }
  dag_table.print_text(std::cout);
  std::cout << "\nmakespan grows sub-linearly in tasks while per-layer "
               "parallelism fits the pool\n";

  sf::bench::banner(
      "Scale sweep: mixed traffic — KPA vs condor negotiator",
      "open-loop users against a warm KService while a layered-DAG "
      "campaign runs concurrently; the autoscaler and the negotiator "
      "contend for the same nodes with the lifecycle loop (heartbeat "
      "wheel + deadline-ordered lease sweep) live underneath");

  std::vector<MixedPoint> mixed_points{
      {"mix-64n", 64, 6, 8, 12, 0.5, 48, 4.0, 120.0, 12000},
  };
  if (smoke) {
    mixed_points = {
        {"mix-8n", 8, 2, 3, 4, 0.5, 4, 2.0, 30.0, 200},
    };
  }

  const std::vector<MixedResult> mixed_results =
      runner.run(mixed_points.size(), [&mixed_points](std::size_t i) {
        return run_mixed_point(mixed_points[i]);
      });

  sf::metrics::Table mixed_table(
      {"point", "nodes", "wfs", "tasks", "requests", "ok", "errors", "p99_ms",
       "dag_makespan_s", "dags_ok", "quiesced"},
      2);
  for (std::size_t i = 0; i < mixed_points.size(); ++i) {
    const MixedPoint& p = mixed_points[i];
    const MixedResult& r = mixed_results[i];
    mixed_table.add_row(
        {std::string(p.label), static_cast<std::int64_t>(p.node_count),
         static_cast<std::int64_t>(p.workflows),
         static_cast<std::int64_t>(p.workflows * p.layers * p.width),
         static_cast<std::int64_t>(r.issued), static_cast<std::int64_t>(r.ok),
         static_cast<std::int64_t>(r.errors), r.p99_ms, r.makespan_s,
         std::string(r.dags_ok ? "yes" : "NO"),
         std::string(r.quiesced ? "yes" : "NO")});
    digest = sf::fault::SplitMix64::mix(digest, r.fingerprint);
  }
  mixed_table.print_text(std::cout);
  std::cout << "\nboth planes finish: every DAG completes and every "
               "open-loop request is answered under contention\n";

  std::cout << "\nscale digest 0x" << std::hex << digest << std::dec << "\n";

  // Wall-clock (nondeterministic) goes ONLY to the JSON side channel.
  if (const char* json_path = std::getenv("SF_SCALE_JSON");
      json_path != nullptr && json_path[0] != '\0') {
    std::ofstream out(json_path);
    out << "{\n  \"serving\": [\n";
    for (std::size_t i = 0; i < serving_points.size(); ++i) {
      const ServingPoint& p = serving_points[i];
      const ServingResult& r = serving_results[i];
      out << "    {\"point\": \"" << p.label << "\", \"nodes\": " << p.nodes
          << ", \"racks\": " << p.racks << ", \"users\": " << p.users
          << ", \"requests\": " << r.issued << ", \"p50_ms\": " << r.p50_ms
          << ", \"p99_ms\": " << r.p99_ms << ", \"drain_s\": " << r.drain_s
          << ", \"pods\": " << r.pods << ", \"wall_s\": " << r.wall_s << "}"
          << (i + 1 < serving_points.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"dag\": [\n";
    for (std::size_t i = 0; i < dag_points.size(); ++i) {
      const DagPoint& p = dag_points[i];
      const DagResult& r = dag_results[i];
      out << "    {\"point\": \"" << p.label << "\", \"tasks\": " << r.tasks
          << ", \"nodes\": " << p.node_count
          << ", \"makespan_s\": " << r.makespan_s
          << ", \"wall_s\": " << r.wall_s << "}"
          << (i + 1 < dag_points.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"mixed\": [\n";
    for (std::size_t i = 0; i < mixed_points.size(); ++i) {
      const MixedPoint& p = mixed_points[i];
      const MixedResult& r = mixed_results[i];
      out << "    {\"point\": \"" << p.label << "\", \"nodes\": "
          << p.node_count << ", \"workflows\": " << p.workflows
          << ", \"tasks\": " << p.workflows * p.layers * p.width
          << ", \"requests\": " << r.issued << ", \"p99_ms\": " << r.p99_ms
          << ", \"dag_makespan_s\": " << r.makespan_s
          << ", \"wall_s\": " << r.wall_s << "}"
          << (i + 1 < mixed_points.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
  }
  return 0;
}
