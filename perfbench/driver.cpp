// ServerFlow benchmark driver: one repetition of one workload per process.
//
//   perfbench_driver --workload <serve-scale|dag-layered|churn-mixed>
//                    --seed <n> [--trace 0|1] [--size full|tiny]
//                    [--trace-out <file>]
//
// Each repetition builds its stack through the public API (set-up), then
// drives it from the first arrival or DAG submit until the workload
// quiesces (drive; Pegasus planning counts as drive). It prints ONE JSON
// line on stdout: wall times, deterministic simulated results, the
// per-layer counters read from each module's public getters, and a digest
// of the simulated outcome. perfbench/run.py repeats this process, checks
// the digests and reports the statistics.
//
// --trace 1 adds per-step wall timing around Simulation::step with
// counter-delta attribution (a step's time is charged to every layer whose
// counter moved during it) and writes the in-memory spans to --trace-out
// at exit. It only reads clocks and counters, so the simulated outcome and
// the digest are identical with and without it.

#include <algorithm>
#include <any>
#include <bit>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "container/image.hpp"
#include "core/testbed.hpp"
#include "fault/injector.hpp"
#include "fault/splitmix.hpp"
#include "k8s/kube_cluster.hpp"
#include "knative/serving.hpp"
#include "metrics/stream_stats.hpp"
#include "workload/generators.hpp"
#include "workload/open_loop.hpp"
#include "workload/scale.hpp"

namespace {

using namespace sf;
using Clock = std::chrono::steady_clock;
using fault::SplitMix64;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---- Spans ------------------------------------------------------------

/// In-memory span log around the benchmark's own calls into each layer
/// (constructors, create_service, Planner::plan, the drive loop). Spans
/// nest by scope; the log is written out only when the process ends.
class SpanLog {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double start_s = 0;  ///< from process start
    double end_s = 0;
  };

  class Scope {
   public:
    Scope(SpanLog& log, std::string name) : log_(log), index_(log.open(name)) {}
    ~Scope() { log_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    int index_;
  };

  /// Summed duration of every span with this name.
  [[nodiscard]] double total(const std::string& name) const {
    double sum = 0;
    for (const Span& s : spans_) {
      if (s.name == name) sum += s.end_s - s.start_s;
    }
    return sum;
  }

  void write_json(std::ostream& out) const {
    out << "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "" : ",") << "\n  {\"id\": " << i << ", \"name\": \""
          << s.name << "\", \"parent\": " << s.parent
          << ", \"start_s\": " << s.start_s << ", \"end_s\": " << s.end_s
          << "}";
    }
    out << "\n]";
  }

 private:
  int open(const std::string& name) {
    spans_.push_back({name, stack_.empty() ? -1 : stack_.back(), now(), 0});
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }
  void close(int index) {
    spans_[static_cast<std::size_t>(index)].end_s = now();
    stack_.pop_back();
  }
  [[nodiscard]] double now() const { return seconds_between(t0_, Clock::now()); }

  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// ---- Counters ---------------------------------------------------------

/// The per-layer counters, read through public getters. A drive's counts
/// are the difference of two snapshots, so set-up work is excluded.
struct Counters {
  std::uint64_t events = 0;
  std::uint64_t watch_batches = 0;
  std::uint64_t endpoint_refreshes = 0;
  std::uint64_t binds = 0;
  std::uint64_t pods_created = 0;
  std::uint64_t pods_replaced = 0;
  std::uint64_t evictions = 0;
  std::uint64_t sweep_probes = 0;
  std::uint64_t cold_starts = 0;
  std::uint64_t route_retries = 0;
  std::uint64_t ejections = 0;
  std::uint64_t pulls = 0;
  std::uint64_t pull_retries = 0;
  std::uint64_t containers_created = 0;
  double bytes_delivered = 0;
  std::uint64_t negotiation_cycles = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t jobs_aborted = 0;
  std::uint64_t catalog_lookups = 0;
  std::uint64_t catalog_hits = 0;
  std::uint64_t catalog_service_calls = 0;
  std::uint64_t catalog_retries = 0;
  std::uint64_t catalog_stale = 0;
  std::uint64_t catalog_breaker_opens = 0;
  std::uint64_t faults_applied = 0;
  std::uint64_t faults_skipped = 0;
};

/// What one workload exposes to the measurement code. Pointers a workload
/// does not have stay null and read as zero.
struct Stack {
  sim::Simulation* sim = nullptr;
  cluster::Cluster* cluster = nullptr;
  k8s::KubeCluster* kube = nullptr;
  knative::KnativeServing* serving = nullptr;
  condor::CondorPool* condor = nullptr;
  catalog::CatalogClient* catalog = nullptr;
  fault::FaultInjector* injector = nullptr;
};

Counters read_counters(const Stack& s) {
  Counters c;
  c.events = s.sim->events_processed();
  c.bytes_delivered = s.cluster->network().total_bytes_delivered();
  if (s.kube != nullptr) {
    k8s::KubeCluster& kube = *s.kube;
    c.watch_batches = kube.api().watch_batches_delivered();
    c.endpoint_refreshes = kube.endpoints_refreshes();
    c.binds = kube.scheduler().binds();
    c.pods_created = kube.controller_pods_created();
    c.pods_replaced = kube.controller_pods_replaced();
    if (const auto* lc = kube.lifecycle_controller(); lc != nullptr) {
      c.evictions = lc->evictions();
      c.sweep_probes = lc->sweep_probes();
    }
    for (const std::string& name : kube.worker_names()) {
      k8s::WorkerNode& w = kube.worker(name);
      c.pulls += w.cache->pulls_started();
      c.pull_retries += w.cache->pull_retries();
      c.containers_created += w.runtime->containers_created();
    }
  }
  if (s.serving != nullptr) {
    for (const std::string& svc : s.serving->service_names()) {
      c.cold_starts += s.serving->cold_start_requests(svc);
      c.route_retries += s.serving->route_retries(svc);
      c.ejections += s.serving->ejections(svc);
    }
  }
  if (s.condor != nullptr) {
    c.negotiation_cycles = s.condor->negotiation_cycles();
    c.jobs_completed = s.condor->completed_jobs();
    c.jobs_aborted = s.condor->jobs_aborted();
  }
  if (s.catalog != nullptr) {
    c.catalog_lookups = s.catalog->lookups();
    c.catalog_hits = s.catalog->cache_hits();
    c.catalog_service_calls = s.catalog->service_calls();
    c.catalog_retries = s.catalog->retries();
    c.catalog_stale = s.catalog->stale_served();
    c.catalog_breaker_opens = s.catalog->breaker_opens();
  }
  if (s.injector != nullptr) {
    c.faults_applied = s.injector->applied_total();
    c.faults_skipped = s.injector->skipped();
  }
  return c;
}

// ---- Drive loop -------------------------------------------------------

/// Wall time of engine steps, total and charged to the layers whose
/// counters moved during the step. Buckets overlap: one step can both
/// bind a pod and rebuild endpoints.
struct StepTrace {
  stats::Histogram step_ns;
  double endpoints_s = 0;
  double sched_s = 0;
  double condor_s = 0;
};

std::uint64_t condor_activity(const condor::CondorPool* pool) {
  if (pool == nullptr) return 0;
  return pool->negotiation_cycles() + pool->completed_jobs() +
         pool->failed_jobs();
}

/// Steps the engine until `done()`, the sim-time wall or an empty queue;
/// callers check which.
void drive(const Stack& s, const std::function<bool()>& done, double wall_s,
           StepTrace* trace) {
  sim::Simulation& sim = *s.sim;
  const double wall = sim.now() + wall_s;
  if (trace == nullptr) {
    while (!done() && sim.has_pending_events() && sim.now() < wall) {
      sim.step();
    }
    return;
  }
  k8s::KubeCluster* kube = s.kube;
  while (!done() && sim.has_pending_events() && sim.now() < wall) {
    const std::uint64_t refreshes0 = kube->endpoints_refreshes();
    const std::uint64_t binds0 = kube->scheduler().binds();
    const std::uint64_t condor0 = condor_activity(s.condor);
    const auto t0 = Clock::now();
    sim.step();
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - t0)
                        .count();
    trace->step_ns.record(static_cast<std::uint64_t>(ns));
    const double dt = static_cast<double>(ns) * 1e-9;
    if (kube->endpoints_refreshes() != refreshes0) trace->endpoints_s += dt;
    if (kube->scheduler().binds() != binds0) trace->sched_s += dt;
    if (condor_activity(s.condor) != condor0) trace->condor_s += dt;
  }
}

// ---- Workload building blocks ----------------------------------------

/// The compute-handler KService of the scale sweep: the request body is
/// the core-seconds to burn, the reply echoes the payload size.
knative::KnServiceSpec work_service(const std::string& name) {
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
  spec.annotations.container_concurrency = 1;  // the paper's configuration
  return spec;
}

/// Open-loop Poisson users whose client re-sends a failed request after a
/// 1 s back-off — the outer retry loop a workflow wrapper runs (as in the
/// chaos sweep's autoscale point). A request fails only when every one of
/// its attempts did; its latency runs from first send to final answer.
class RetryingUsers {
 public:
  static constexpr int kMaxAttempts = 12;
  static constexpr double kPayloadBytes = 10000;

  struct Config {
    std::string service;
    int users = 1;
    double rate_hz = 1;
    double horizon_s = 60;
    std::uint64_t max_requests = 0;
    double work_s = 0.05;  ///< mean; each request draws [0.5, 1.5) × this
    std::uint64_t seed = 1;
  };

  RetryingUsers(knative::KnativeServing& serving, net::NodeId client,
                Config cfg)
      : serving_(serving),
        sim_(serving.kube().cluster().sim()),
        client_(client),
        cfg_(std::move(cfg)) {
    for (int u = 0; u < cfg_.users; ++u) {
      streams_.push_back(SplitMix64::fork(cfg_.seed, static_cast<std::uint64_t>(u)));
    }
  }

  void start() {
    start_ = sim_.now();
    for (int u = 0; u < cfg_.users; ++u) schedule_next(u);
  }

  [[nodiscard]] bool quiesced() const {
    return pending_arrivals_ == 0 && answered_ == issued_;
  }
  [[nodiscard]] std::uint64_t issued() const { return issued_; }
  [[nodiscard]] std::uint64_t answered() const { return answered_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] std::uint64_t client_retries() const { return retries_; }
  [[nodiscard]] const std::vector<double>& latencies() const {
    return latencies_;
  }

 private:
  void schedule_next(int user) {
    SplitMix64& stream = streams_[static_cast<std::size_t>(user)];
    const double gap = stream.exponential(1.0 / cfg_.rate_hz);
    if (sim_.now() - start_ + gap > cfg_.horizon_s) return;
    ++pending_arrivals_;
    sim_.call_in(gap, [this, user, &stream] {
      --pending_arrivals_;
      if (cfg_.max_requests != 0 && issued_ >= cfg_.max_requests) return;
      ++issued_;
      send(sim_.now(), cfg_.work_s * (0.5 + stream.next_double()), 1);
      schedule_next(user);
    });
  }

  void send(double issued_at, double work_s, int attempt) {
    net::HttpRequest req;
    req.path = "/invoke";
    req.body = work_s;  // compute-handler convention: body = work
    req.body_bytes = kPayloadBytes;
    serving_.invoke(client_, cfg_.service, std::move(req),
                    [this, issued_at, work_s, attempt](net::HttpResponse resp) {
                      if (!resp.ok() && attempt < kMaxAttempts) {
                        ++retries_;
                        sim_.call_in(1.0, [this, issued_at, work_s, attempt] {
                          send(issued_at, work_s, attempt + 1);
                        });
                        return;
                      }
                      ++answered_;
                      if (!resp.ok()) ++failed_;
                      latencies_.push_back(sim_.now() - issued_at);
                    });
  }

  knative::KnativeServing& serving_;
  sim::Simulation& sim_;
  net::NodeId client_;
  Config cfg_;
  std::vector<SplitMix64> streams_;
  double start_ = 0;
  std::uint64_t pending_arrivals_ = 0;
  std::uint64_t issued_ = 0;
  std::uint64_t answered_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t retries_ = 0;
  std::vector<double> latencies_;
};

/// A layered matmul DAG: `layers` × `width` tasks; task (l, i) multiplies
/// the outputs of layer l−1's tasks i and j, with j ≠ i drawn from the
/// seed (layer 0 reads fresh input matrices). Same shape and fan-in as
/// workload::make_layered_matmuls, with seed-chosen cross edges and file
/// sizes drawn from [0.5, 1.5) × `matrix_bytes`.
pegasus::AbstractWorkflow layered_dag(const std::string& name, int layers,
                                      int width, double matrix_bytes,
                                      std::uint64_t seed) {
  SplitMix64 rng(seed);
  auto size = [&rng, matrix_bytes] {
    return matrix_bytes * (0.5 + rng.next_double());
  };
  pegasus::AbstractWorkflow wf(name);
  auto out_file = [&name](int layer, int i) {
    return name + ".o" + std::to_string(layer) + "_" + std::to_string(i);
  };
  for (int i = 0; i < width; ++i) {
    wf.declare_file(name + ".a" + std::to_string(i), size());
    wf.declare_file(name + ".b" + std::to_string(i), size());
  }
  for (int layer = 0; layer < layers; ++layer) {
    for (int i = 0; i < width; ++i) {
      const std::string out = out_file(layer, i);
      wf.declare_file(out, size());
      pegasus::AbstractJob job;
      job.id = name + ".t" + std::to_string(layer) + "_" + std::to_string(i);
      job.transformation = "matmul";
      if (layer == 0) {
        job.uses = {{name + ".a" + std::to_string(i), pegasus::LinkType::kInput},
                    {name + ".b" + std::to_string(i), pegasus::LinkType::kInput},
                    {out, pegasus::LinkType::kOutput}};
      } else {
        const int j = static_cast<int>(
            (static_cast<std::uint64_t>(i) + 1 +
             rng.next_below(static_cast<std::uint64_t>(width - 1))) %
            static_cast<std::uint64_t>(width));
        job.uses = {{out_file(layer - 1, i), pegasus::LinkType::kInput},
                    {out_file(layer - 1, j), pegasus::LinkType::kInput},
                    {out, pegasus::LinkType::kOutput}};
      }
      wf.add_job(std::move(job));
    }
  }
  return wf;
}

/// Plans workflows into DAGMan instances the way PaperTestbed::run_workflows
/// does, but with Planner::plan timed as its own span.
struct Campaign {
  std::vector<std::unique_ptr<condor::DagMan>> dags;
  std::vector<std::vector<std::string>> node_names;
  std::uint64_t plan_jobs = 0;
  int finished = 0;

  void plan(core::PaperTestbed& tb,
            const std::vector<pegasus::AbstractWorkflow>& workflows,
            const std::map<std::string, pegasus::JobMode>& modes,
            SpanLog& spans) {
    for (const auto& wf : workflows) {
      workload::seed_initial_inputs(wf, tb.condor().submit_staging(),
                                    tb.replicas());
      pegasus::PlannerOptions popts;
      popts.default_mode = pegasus::JobMode::kNative;
      popts.dag_retries = tb.options().dag_retries;
      popts.registry = &tb.registry();
      popts.docker = &tb.docker();
      popts.serverless_factory = tb.integration().wrapper_factory();
      popts.catalog = tb.catalog_client();
      for (const auto& job : wf.jobs()) {
        if (auto it = modes.find(job.id); it != modes.end()) {
          popts.mode_overrides[job.id] = it->second;
        }
      }
      pegasus::Planner planner(wf, tb.transformations(), tb.replicas(),
                               tb.condor(), popts);
      condor::DagConfig dag_config;
      dag_config.scan_interval_s = tb.calibration().dag_scan_interval_s;
      dag_config.post_script_s = tb.calibration().dag_post_script_s;
      auto dag = std::make_unique<condor::DagMan>(tb.condor(), dag_config);
      pegasus::Plan plan;
      {
        SpanLog::Scope span(spans, "pegasus.plan");
        plan = planner.plan();
      }
      plan.load_into(*dag);
      plan_jobs += plan.nodes.size();
      std::vector<std::string> names;
      names.reserve(plan.nodes.size());
      for (const auto& node : plan.nodes) names.push_back(node.name);
      node_names.push_back(std::move(names));
      dags.push_back(std::move(dag));
    }
  }

  /// Starts every DAG at the same instant (Figure 4's concurrent set).
  void run() {
    for (auto& dag : dags) {
      dag->run([this](bool) { ++finished; });
    }
  }

  [[nodiscard]] bool done() const {
    return finished == static_cast<int>(dags.size());
  }
};

// ---- Result -----------------------------------------------------------

struct Result {
  bool ok = true;
  std::string problem;
  std::uint64_t requests_issued = 0;
  std::uint64_t requests_failed = 0;
  std::uint64_t tasks = 0;  ///< DAG nodes in the plans
  std::uint64_t tasks_done = 0;
  std::uint64_t tasks_failed = 0;
  std::vector<double> latencies_s;  ///< sorted
  double makespan_s = 0;  ///< sim seconds
  double drive_s = 0;
  int ready_pods = 0;
  std::uint64_t knative_requests = 0;
  std::uint64_t dag_retries = 0;
  std::uint64_t client_retries = 0;
  std::uint64_t plan_jobs = 0;
  Counters before;
  Counters after;
  std::uint64_t digest = 0x5E4F10F1ull;

  void fold(std::uint64_t v) { digest = SplitMix64::mix(digest, v); }
  void fold(double v) { fold(std::bit_cast<std::uint64_t>(v)); }
  void fail(const std::string& why) {
    if (ok) problem = why;
    ok = false;
  }
};

/// Fills the parts of a result every workload shares: counter snapshot,
/// readiness and the digest of the simulated outcome.
void finish_result(Result& r, const Stack& s, double drive_start_sim) {
  r.after = read_counters(s);
  // Slowest DAG when the workload has DAGs, else the open loop's drain.
  if (r.makespan_s == 0) r.makespan_s = s.sim->now() - drive_start_sim;
  if (s.serving != nullptr) {
    for (const std::string& svc : s.serving->service_names()) {
      r.ready_pods += s.serving->ready_replicas(svc);
      r.knative_requests += s.serving->requests_routed(svc);
    }
  }
  r.fold(r.makespan_s);
  r.fold(r.after.events);
  r.fold(r.after.bytes_delivered);
  r.fold(r.after.watch_batches);
  r.fold(r.after.endpoint_refreshes);
  r.fold(r.after.binds);
  r.fold(r.after.cold_starts);
  r.fold(r.after.route_retries);
  r.fold(r.after.jobs_completed);
  r.fold(r.after.catalog_service_calls);
  r.fold(r.after.faults_applied);
  r.fold(r.requests_issued);
  r.fold(r.requests_failed);
  r.fold(r.client_retries);
  r.fold(r.tasks_done);
  for (const double l : r.latencies_s) r.fold(l);
}

void tally_dags(const Campaign& c, Result& r) {
  for (const auto& dag : c.dags) {
    r.tasks += dag->node_count();
    r.tasks_done += dag->completed_nodes();
    r.tasks_failed += dag->state_counts().failed;
    r.dag_retries += dag->total_retries();
    r.makespan_s = std::max(r.makespan_s, dag->makespan());
  }
  r.plan_jobs = c.plan_jobs;
}

/// Simulated turnaround of every finished DAG node: condor submit of its
/// last attempt to job exit. Sorted.
std::vector<double> dag_task_latencies(const Campaign& c) {
  std::vector<double> out;
  for (std::size_t d = 0; d < c.dags.size(); ++d) {
    for (const std::string& name : c.node_names[d]) {
      const condor::JobRecord* rec = c.dags[d]->node_record(name);
      if (rec != nullptr && rec->end_time >= 0) {
        out.push_back(rec->end_time - rec->submit_time);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

void check_open_loop(const workload::OpenLoopEngine& engine, Result& r) {
  const auto& st = engine.stats();
  r.requests_issued = st.issued;
  r.requests_failed = st.errors;
  if (!engine.quiesced()) {
    r.fail("open-loop traffic did not drain: " + std::to_string(st.completed) +
           "/" + std::to_string(st.issued) + " answered");
  }
  if (st.issued == 0) r.fail("no requests issued");
}

void check_campaign(const Campaign& c, Result& r) {
  if (!c.done()) {
    r.fail("DAGs did not finish: " + std::to_string(c.finished) + "/" +
           std::to_string(c.dags.size()));
  }
}

// ---- Workloads --------------------------------------------------------

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  bool traced = false;
  bool tiny = false;
  std::string trace_out;
};

/// Open-loop Poisson users against one warm concurrency-1 KService on a
/// rack-structured cluster of thousands of nodes, lifecycle on: the KPA
/// scales out to a thousand pods, which is where endpoint rebuilds and
/// scheduler node scans dominate.
Result serve_scale(const Config& cfg, SpanLog& spans, StepTrace* trace) {
  const std::uint32_t nodes = cfg.tiny ? 64 : 2048;
  const std::uint32_t racks = cfg.tiny ? 4 : 32;
  const int users = cfg.tiny ? 8 : 96;
  const std::uint64_t requests = cfg.tiny ? 400 : 12000;
  const int min_scale = cfg.tiny ? 4 : 32;
  const int max_scale = cfg.tiny ? 64 : 1024;

  sim::Simulation sim(SplitMix64::mix(cfg.seed, 1));
  std::unique_ptr<workload::ScaledTopology> topo;
  std::unique_ptr<container::Registry> hub;
  std::unique_ptr<k8s::KubeCluster> kube;
  std::unique_ptr<knative::KnativeServing> serving;
  {
    SpanLog::Scope setup(spans, "setup");
    {
      SpanLog::Scope span(spans, "setup.topology");
      topo = std::make_unique<workload::ScaledTopology>(
          workload::make_scaled_topology(sim, nodes, racks));
    }
    cluster::Node& head = topo->cluster->node(0);
    const container::Image image = container::make_task_image("fn");
    {
      SpanLog::Scope span(spans, "setup.kube");
      hub = std::make_unique<container::Registry>(head);
      hub->push(image);
      kube = std::make_unique<k8s::KubeCluster>(*topo->cluster, *hub,
                                                topo->workers);
      kube->seed_image_everywhere(image);
      kube->enable_node_lifecycle();
    }
    {
      SpanLog::Scope span(spans, "setup.serving");
      serving = std::make_unique<knative::KnativeServing>(*kube, head);
      knative::KnServiceSpec spec = work_service("fn");
      spec.annotations.min_scale = min_scale;
      // The KPA's panic-mode overshoot hits this cap on every seed, so the
      // pod count (and the O(pods) work per pod event) does not vary
      // with the arrival draw.
      spec.annotations.max_scale = max_scale;
      serving->create_service(std::move(spec));
    }
    {
      SpanLog::Scope span(spans, "setup.warm");
      sim.run_until(30.0);  // warm pods ready, autoscaler settled
    }
  }
  if (serving->ready_replicas("fn") < min_scale) {
    throw std::runtime_error("serve-scale: warm pods not ready after set-up");
  }

  const Stack stack{&sim, topo->cluster.get(), kube.get(), serving.get(),
                    nullptr, nullptr, nullptr};
  Result r;
  workload::OpenLoopConfig ol;
  ol.users = users;
  ol.rate_hz = 5.0;
  ol.horizon_s = 120.0;
  ol.max_requests = requests;
  ol.services = {"fn"};
  // Requests differ in cost: each burns [0.5, 1.5) × 0.4 core-seconds,
  // drawn from its user's stream.
  ol.request_factory = [](const workload::Arrival&, sim::Rng& rng) {
    net::HttpRequest req;
    req.path = "/invoke";
    req.body = 0.4 * rng.uniform(0.5, 1.5);
    req.body_bytes = 10000;
    return req;
  };
  ol.seed = SplitMix64::mix(cfg.seed, 2);
  ol.record_requests = true;
  workload::OpenLoopEngine engine(*serving, topo->cluster->node(0).net_id(),
                                  ol);

  r.before = read_counters(stack);
  const double start_sim = sim.now();
  {
    SpanLog::Scope span(spans, "drive");
    const auto t0 = Clock::now();
    engine.start();
    drive(stack, [&engine] { return engine.quiesced(); }, 7200.0, trace);
    r.drive_s = seconds_between(t0, Clock::now());
  }
  check_open_loop(engine, r);
  r.latencies_s = engine.sorted_latencies();
  r.fold(engine.fingerprint());
  finish_result(r, stack, start_sim);
  return r;
}

/// One layered matmul DAG of ~10k native tasks through Pegasus planning →
/// DAGMan → HTCondor on a 16-node testbed. Knative and the endpoints path
/// stay idle.
Result dag_layered(const Config& cfg, SpanLog& spans, StepTrace* trace) {
  const int layers = cfg.tiny ? 6 : 60;
  const int width = cfg.tiny ? 5 : 60;

  std::unique_ptr<core::PaperTestbed> tb;
  std::vector<pegasus::AbstractWorkflow> workflows;
  {
    SpanLog::Scope setup(spans, "setup");
    {
      SpanLog::Scope span(spans, "setup.testbed");
      core::TestbedOptions opts;
      opts.node_count = 16;
      tb = std::make_unique<core::PaperTestbed>(SplitMix64::mix(cfg.seed, 1),
                                                opts);
    }
    SpanLog::Scope span(spans, "setup.workflows");
    workflows.push_back(layered_dag("dag", layers, width,
                                    tb->calibration().matrix_bytes,
                                    SplitMix64::mix(cfg.seed, 3)));
  }
  const Stack stack{&tb->sim(),   &tb->cluster(), &tb->kube(), &tb->serving(),
                    &tb->condor(), nullptr,        nullptr};
  Result r;

  Campaign campaign;
  r.before = read_counters(stack);
  const double start_sim = tb->sim().now();
  {
    SpanLog::Scope span(spans, "drive");
    const auto t0 = Clock::now();
    campaign.plan(*tb, workflows, {}, spans);
    campaign.run();
    drive(stack, [&campaign] { return campaign.done(); }, 1e6, trace);
    r.drive_s = seconds_between(t0, Clock::now());
  }
  check_campaign(campaign, r);
  tally_dags(campaign, r);
  r.latencies_s = dag_task_latencies(campaign);
  finish_result(r, stack, start_sim);
  return r;
}

/// Reads and writes together under failures: a scale-to-zero KService fed
/// by open-loop users while a layered-DAG campaign (half its tasks
/// serverless) runs with the catalog tier on, DAG retries on and images
/// pulled on demand, and a fault plan crashes nodes and racks, kills pods,
/// storms deploys and blacks out the registry and the catalog.
constexpr std::uint64_t kFaultSeed = 0xC4A05EEDull;

Result churn_mixed(const Config& cfg, SpanLog& spans, StepTrace* trace) {
  const std::size_t nodes = cfg.tiny ? 8 : 256;
  const int workflows_n = cfg.tiny ? 2 : 32;
  const int layers = cfg.tiny ? 3 : 10;
  const int width = cfg.tiny ? 3 : 10;
  const int users = cfg.tiny ? 4 : 32;
  const std::uint64_t requests = cfg.tiny ? 200 : 20000;
  const double horizon_s = cfg.tiny ? 60.0 : 600.0;

  std::unique_ptr<core::PaperTestbed> tb;
  std::unique_ptr<fault::FaultInjector> injector;
  std::vector<pegasus::AbstractWorkflow> workflows;
  std::map<std::string, pegasus::JobMode> modes;
  {
    SpanLog::Scope setup(spans, "setup");
    core::TestbedOptions opts;
    opts.node_count = nodes;
    opts.prestage_images = false;
    opts.dag_retries = 6;
    opts.catalog.enabled = true;
    {
      SpanLog::Scope span(spans, "setup.testbed");
      tb = std::make_unique<core::PaperTestbed>(SplitMix64::mix(cfg.seed, 1),
                                                opts);
    }
    {
      SpanLog::Scope span(spans, "setup.serving");
      core::ProvisioningPolicy policy = core::ProvisioningPolicy::deferred();
      policy.container_concurrency = 1;
      policy.request_timeout_s = 45;
      tb->register_matmul_function(policy);
      tb->registry().push(container::make_task_image("fn-open"));
      knative::KnServiceSpec spec = work_service("fn-open");
      spec.annotations.min_scale = 0;
      spec.annotations.initial_scale = 0;
      spec.annotations.request_timeout_s = 10;
      tb->serving().create_service(std::move(spec));
    }
    {
      SpanLog::Scope span(spans, "setup.fault");
      fault::FaultConfig fc;
      fc.horizon_s = horizon_s;
      fc.racks = 4;
      fc.node_crash_mean_s = 40;
      fc.node_downtime_s = 20;
      fc.pod_kill_mean_s = 10;
      fc.rack_fail_mean_s = 150;
      fc.rack_fail_downtime_s = 25;
      fc.deploy_storm_mean_s = 60;
      fc.deploy_storm_outage_s = 6;
      fc.pull_outage_mean_s = 80;
      fc.pull_outage_duration_s = 5;
      fc.catalog_outage_mean_s = 60;
      fc.catalog_outage_duration_s = 8;
      // The fault plan is part of the workload's definition, not of its
      // seeded inputs: every seed meets the same incidents, so the seed
      // varies traffic, DAG shapes and task modes around a fixed storm.
      injector = std::make_unique<fault::FaultInjector>(*tb, fc, kFaultSeed);
      injector->arm();
    }
    SpanLog::Scope span(spans, "setup.workflows");
    for (int w = 0; w < workflows_n; ++w) {
      workflows.push_back(layered_dag(
          "mix" + std::to_string(w), layers, width,
          tb->calibration().matrix_bytes, SplitMix64::mix(cfg.seed, 10 + w)));
    }
    std::vector<const pegasus::AbstractWorkflow*> ptrs;
    for (const auto& wf : workflows) ptrs.push_back(&wf);
    metrics::MixPoint mix;
    mix.native = 0.5;
    mix.serverless = 0.5;
    modes = workload::assign_modes(ptrs, mix, tb->sim().rng());
  }
  const Stack stack{&tb->sim(),    &tb->cluster(),       &tb->kube(),
                    &tb->serving(), &tb->condor(),        tb->catalog_client(),
                    injector.get()};
  Result r;

  RetryingUsers::Config uc;
  uc.service = "fn-open";
  uc.users = users;
  uc.rate_hz = 1.0;
  uc.work_s = 0.02;
  uc.horizon_s = horizon_s;
  uc.max_requests = requests;
  uc.seed = SplitMix64::mix(cfg.seed, 2);
  RetryingUsers clients(tb->serving(), tb->cluster().node(0).net_id(), uc);

  Campaign campaign;
  r.before = read_counters(stack);
  const double start_sim = tb->sim().now();
  {
    SpanLog::Scope span(spans, "drive");
    const auto t0 = Clock::now();
    clients.start();
    campaign.plan(*tb, workflows, modes, spans);
    campaign.run();
    drive(stack,
          [&] { return campaign.done() && clients.quiesced(); }, 7200.0, trace);
    r.drive_s = seconds_between(t0, Clock::now());
  }
  r.requests_issued = clients.issued();
  r.requests_failed = clients.failed();
  r.client_retries = clients.client_retries();
  if (!clients.quiesced()) {
    r.fail("open-loop traffic did not drain: " +
           std::to_string(clients.answered()) + "/" +
           std::to_string(clients.issued()) + " answered");
  }
  check_campaign(campaign, r);
  tally_dags(campaign, r);
  r.latencies_s = clients.latencies();  // the user-facing latency
  std::sort(r.latencies_s.begin(), r.latencies_s.end());
  finish_result(r, stack, start_sim);
  if (r.after.faults_applied == 0) r.fail("no fault was applied");
  if (r.after.catalog_lookups == 0) r.fail("the catalog tier was not used");
  return r;
}

// ---- Output -----------------------------------------------------------

double percentile_ms(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)] * 1e3;
}

/// Peak resident memory of this process (VmHWM). Unlike getrusage's
/// ru_maxrss, it starts afresh at exec, so the launching process's own
/// footprint does not leak into it.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

class JsonObject {
 public:
  explicit JsonObject(std::ostream& out) : out_(out) {
    out_ << std::setprecision(12) << "{";
  }
  ~JsonObject() { out_ << "}"; }
  JsonObject(const JsonObject&) = delete;
  JsonObject& operator=(const JsonObject&) = delete;

  template <typename T>
  void field(const std::string& key, const T& value) {
    key_(key);
    out_ << value;
  }
  void field(const std::string& key, const std::string& value) {
    key_(key);
    out_ << "\"" << value << "\"";
  }
  void field(const std::string& key, bool value) {
    key_(key);
    out_ << (value ? "true" : "false");
  }
  std::ostream& raw(const std::string& key) {
    key_(key);
    return out_;
  }

 private:
  void key_(const std::string& key) {
    out_ << (first_ ? "" : ", ") << "\"" << key << "\": ";
    first_ = false;
  }
  std::ostream& out_;
  bool first_ = true;
};

void print_result(const Config& cfg, const Result& r, const SpanLog& spans,
                  const StepTrace* trace) {
  const Counters& a = r.after;
  const Counters& b = r.before;
  auto d = [](std::uint64_t after, std::uint64_t before) {
    return after - before;
  };
  std::ostringstream digest;
  digest << std::hex << r.digest;

  std::ostringstream line;
  {
    JsonObject o(line);
    o.field("workload", cfg.workload);
    o.field("seed", cfg.seed);
    o.field("traced", cfg.traced);
    o.field("ok", r.ok);
    o.field("problem", r.problem);
    o.field("digest", digest.str());
    o.field("attempted", r.requests_issued + r.tasks);
    o.field("failed", r.requests_failed + r.tasks_failed);
    o.field("requests", r.requests_issued);
    o.field("tasks", r.tasks_done);
    o.field("setup_s", spans.total("setup"));
    o.field("drive_s", r.drive_s);
    o.field("peak_rss_mb", peak_rss_mb());
    o.field("sim_p50_ms", percentile_ms(r.latencies_s, 0.50));
    o.field("sim_p99_ms", percentile_ms(r.latencies_s, 0.99));
    o.field("latency_samples", r.latencies_s.size());
    o.field("sim_makespan_s", r.makespan_s);

    std::ostream& layers = o.raw("layers");
    JsonObject l(layers);
    const std::uint64_t events = d(a.events, b.events);
    const std::uint64_t batches = d(a.watch_batches, b.watch_batches);
    const std::uint64_t refreshes =
        d(a.endpoint_refreshes, b.endpoint_refreshes);
    const std::uint64_t cold = d(a.cold_starts, b.cold_starts);
    const std::uint64_t lookups = d(a.catalog_lookups, b.catalog_lookups);
    l.field("sim.events", events);
    l.field("sim.events_per_s", ratio(static_cast<double>(events), r.drive_s));
    l.field("k8s.watch.batches", batches);
    l.field("k8s.endpoints.refreshes", refreshes);
    l.field("k8s.endpoints.refreshes_per_batch",
            ratio(static_cast<double>(refreshes), static_cast<double>(batches)));
    l.field("k8s.sched.binds", d(a.binds, b.binds));
    l.field("k8s.pods_created", d(a.pods_created, b.pods_created));
    l.field("k8s.pods_replaced", d(a.pods_replaced, b.pods_replaced));
    l.field("k8s.lifecycle.evictions", d(a.evictions, b.evictions));
    l.field("k8s.lifecycle.sweep_probes", d(a.sweep_probes, b.sweep_probes));
    l.field("knative.cold_starts", cold);
    l.field("knative.cold_start_ratio",
            ratio(static_cast<double>(cold),
                  static_cast<double>(r.knative_requests)));
    l.field("knative.route_retries", d(a.route_retries, b.route_retries));
    l.field("knative.ready_pods", r.ready_pods);
    l.field("knative.ejections", d(a.ejections, b.ejections));
    l.field("container.pulls", d(a.pulls, b.pulls));
    l.field("container.pull_retries", d(a.pull_retries, b.pull_retries));
    l.field("container.created",
            d(a.containers_created, b.containers_created));
    l.field("net.bytes_delivered", a.bytes_delivered - b.bytes_delivered);
    l.field("pegasus.plan_s", spans.total("pegasus.plan"));
    l.field("pegasus.plan_jobs", r.plan_jobs);
    l.field("condor.negotiation_cycles",
            d(a.negotiation_cycles, b.negotiation_cycles));
    l.field("condor.jobs_completed", d(a.jobs_completed, b.jobs_completed));
    l.field("condor.jobs_aborted", d(a.jobs_aborted, b.jobs_aborted));
    l.field("condor.dag_retries", r.dag_retries);
    l.field("workload.client_retries", r.client_retries);
    l.field("catalog.lookups", lookups);
    l.field("catalog.hit_ratio",
            ratio(static_cast<double>(d(a.catalog_hits, b.catalog_hits)),
                  static_cast<double>(lookups)));
    l.field("catalog.service_calls",
            d(a.catalog_service_calls, b.catalog_service_calls));
    l.field("catalog.retries", d(a.catalog_retries, b.catalog_retries));
    l.field("catalog.stale_served", d(a.catalog_stale, b.catalog_stale));
    l.field("catalog.breaker_opens",
            d(a.catalog_breaker_opens, b.catalog_breaker_opens));
    l.field("fault.applied", d(a.faults_applied, b.faults_applied));
    l.field("fault.skipped", d(a.faults_skipped, b.faults_skipped));
    l.field("setup.topology_s", spans.total("setup.topology"));
    l.field("setup.kube_s", spans.total("setup.kube"));
    l.field("setup.testbed_s", spans.total("setup.testbed"));
    l.field("setup.serving_s", spans.total("setup.serving"));
    l.field("setup.fault_s", spans.total("setup.fault"));
    l.field("setup.warm_s", spans.total("setup.warm"));
    l.field("setup.workflows_s", spans.total("setup.workflows"));
    if (trace != nullptr) {
      l.field("sim.step_p50_ns", trace->step_ns.percentile(0.50));
      l.field("sim.step_p99_ns", trace->step_ns.percentile(0.99));
      l.field("k8s.endpoints.step_s", trace->endpoints_s);
      l.field("k8s.sched.step_s", trace->sched_s);
      l.field("condor.step_s", trace->condor_s);
    }
  }
  std::cout << line.str() << std::endl;
}

int usage() {
  std::cerr << "usage: perfbench_driver --workload "
               "<serve-scale|dag-layered|churn-mixed> --seed <n> "
               "[--trace 0|1] [--size full|tiny] [--trace-out <file>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      cfg.workload = value;
    } else if (key == "--seed") {
      cfg.seed = std::stoull(value);
    } else if (key == "--trace") {
      cfg.traced = value == "1";
    } else if (key == "--size") {
      cfg.tiny = value == "tiny";
    } else if (key == "--trace-out") {
      cfg.trace_out = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0) return usage();

  using Runner = Result (*)(const Config&, SpanLog&, StepTrace*);
  const std::map<std::string, Runner> workloads{
      {"serve-scale", serve_scale},
      {"dag-layered", dag_layered},
      {"churn-mixed", churn_mixed},
  };
  const auto it = workloads.find(cfg.workload);
  if (it == workloads.end()) return usage();

  SpanLog spans;
  StepTrace trace;
  StepTrace* trace_ptr = cfg.traced ? &trace : nullptr;
  try {
    Result r;
    {
      SpanLog::Scope rep(spans, "rep");
      r = it->second(cfg, spans, trace_ptr);
    }
    print_result(cfg, r, spans, trace_ptr);
    if (!cfg.trace_out.empty()) {
      std::ofstream out(cfg.trace_out);
      out << std::setprecision(9) << "{\"workload\": \"" << cfg.workload
          << "\", \"seed\": " << cfg.seed << ", \"spans\": ";
      spans.write_json(out);
      out << "}\n";
    }
    return r.ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << cfg.workload << ": " << e.what()
              << "\n";
    return 1;
  }
}
