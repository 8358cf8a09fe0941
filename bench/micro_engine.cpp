// Micro-benchmarks (google-benchmark): costs of the simulation engine
// itself plus the one real computation in the repository — the matmul
// kernel used to sanity-check the calibrated task cost.

#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "condor/pool.hpp"
#include "container/image.hpp"
#include "container/registry.hpp"
#include "core/testbed.hpp"
#include "k8s/api_server.hpp"
#include "k8s/controllers.hpp"
#include "k8s/kube_cluster.hpp"
#include "k8s/scheduler.hpp"
#include "knative/kpa.hpp"
#include "metrics/stream_stats.hpp"
#include "net/flow_network.hpp"
#include "pegasus/planner.hpp"
#include "sim/event_queue.hpp"
#include "sim/ps_resource.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"
#include "storage/replica_catalog.hpp"
#include "storage/volume.hpp"
#include "workload/matrix.hpp"
#include "workload/scale.hpp"

namespace {

using namespace sf;

// Tie-heavy drain: about 100 events on each of 97 instants at n = 10000,
// all scheduled, then all popped.
void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue q;
    for (std::size_t i = 0; i < n; ++i) {
      q.schedule(static_cast<double>(i % 97), [] {});
    }
    while (!q.empty()) benchmark::DoNotOptimize(q.pop().id);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * n));
}
BENCHMARK(BM_EventQueueScheduleAndPop)->Arg(1000)->Arg(10000);

// Tie-heavy cancellation: the same 97 instants as ScheduleAndPop, with
// every other event cancelled before the survivors are popped. Exercises
// eager removal from the middle of the heap, which tombstone-based queues
// pay for at pop time instead.
void BM_EventQueueCancelHeavy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<sim::EventId> ids(n);
  for (auto _ : state) {
    sim::EventQueue q;
    for (std::size_t i = 0; i < n; ++i) {
      ids[i] = q.schedule(static_cast<double>(i % 97), [] {});
    }
    for (std::size_t i = 0; i < n; i += 2) q.cancel(ids[i]);
    while (!q.empty()) benchmark::DoNotOptimize(q.pop().id);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * n));
}
BENCHMARK(BM_EventQueueCancelHeavy)->Arg(1000)->Arg(10000);

// Mixed steady-state trajectory: a sliding window of pending events where
// each pop triggers a reschedule further out, interleaved with fresh
// inserts — the shape of a simulation in flight rather than a drain.
void BM_EventQueueMixedSchedule(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue q;
    for (std::size_t i = 0; i < 64; ++i) {
      q.schedule(static_cast<double>(i), [] {});
    }
    double horizon = 64;
    for (std::size_t i = 0; i < n; ++i) {
      auto fired = q.pop();
      benchmark::DoNotOptimize(fired.id);
      q.schedule(horizon, [] {});
      // Every fourth event lands on an existing instant, the rest on
      // fresh timestamps.
      horizon += (i % 4 == 0) ? 0.0 : 1.0;
    }
    while (!q.empty()) benchmark::DoNotOptimize(q.pop().id);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * n));
}
BENCHMARK(BM_EventQueueMixedSchedule)->Arg(10000);

// The traffic the benchmark workloads schedule (DESIGN §5): a window of N
// pending events at distinct instants. Each step pops the earliest and
// schedules a successor a random delay after it; every 16th step also
// cancels a random pending event and schedules a replacement, near the
// 6.6% of events churn-mixed cancels. Delays and victims are drawn once,
// outside the timed loop.
void BM_EventQueueSteadyWindow(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kSteps = 10000;
  sim::Rng rng(1);
  std::vector<double> delays(n + kSteps + kSteps / 16);
  for (double& d : delays) d = rng.uniform(0.001, 1.0);
  std::vector<std::size_t> victims(kSteps / 16);
  for (std::size_t& v : victims) v = rng.index(n);
  for (auto _ : state) {
    sim::EventQueue q;
    // ids[i] is the pending event that window position i owns; firing an
    // event reports its position, so its successor takes the same one.
    std::vector<sim::EventId> ids(n);
    std::size_t fired_pos = 0;
    std::size_t next_delay = 0;
    for (std::size_t i = 0; i < n; ++i) {
      ids[i] = q.schedule(delays[next_delay++],
                          [&fired_pos, i] { fired_pos = i; });
    }
    for (std::size_t step = 0; step < kSteps; ++step) {
      auto fired = q.pop();
      fired.fn();
      const std::size_t i = fired_pos;
      ids[i] = q.schedule(fired.time + delays[next_delay++],
                          [&fired_pos, i] { fired_pos = i; });
      if (step % 16 == 15) {
        const std::size_t v = victims[step / 16];
        q.cancel(ids[v]);
        ids[v] = q.schedule(fired.time + delays[next_delay++],
                            [&fired_pos, v] { fired_pos = v; });
      }
    }
    benchmark::DoNotOptimize(q.size());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kSteps));
}
BENCHMARK(BM_EventQueueSteadyWindow)->Arg(256)->Arg(2048);

// The DAG workloads' shape (DESIGN §5): a window of N near events with
// sub-millisecond delays (each step pops the earliest and schedules its
// successor) while every 8th step arms a 600 s claim-idle timer that is
// never cancelled, so about 1,250 timers pile up behind the window and
// none comes due. Delays are drawn once, outside the timed loop.
void BM_EventQueueFarTimers(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kSteps = 10000;
  sim::Rng rng(1);
  std::vector<double> delays(n + kSteps);
  for (double& d : delays) d = rng.uniform(1e-5, 1e-3);
  for (auto _ : state) {
    sim::EventQueue q;
    std::size_t next_delay = 0;
    for (std::size_t i = 0; i < n; ++i) {
      q.schedule(delays[next_delay++], [] {});
    }
    for (std::size_t step = 0; step < kSteps; ++step) {
      const auto fired = q.pop();
      q.schedule(fired.time + delays[next_delay++], [] {});
      if (step % 8 == 0) q.schedule(fired.time + 600.0, [] {});
    }
    benchmark::DoNotOptimize(q.size());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kSteps));
}
BENCHMARK(BM_EventQueueFarTimers)->Arg(256)->Arg(2048);

void BM_SimulationEventChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    int remaining = 10000;
    std::function<void()> tick = [&] {
      if (--remaining > 0) sim.call_in(0.001, tick);
    };
    sim.call_in(0.0, tick);
    sim.run();
    benchmark::DoNotOptimize(sim.now());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SimulationEventChurn);

void BM_PsResourceChurn(benchmark::State& state) {
  const auto jobs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim;
    sim::PsResource cpu(sim, 8.0);
    for (int i = 0; i < jobs; ++i) {
      cpu.submit(1.0, [] {}, 1.0);
    }
    sim.run();
    benchmark::DoNotOptimize(cpu.active_jobs());
  }
  state.SetItemsProcessed(state.iterations() * jobs);
}
BENCHMARK(BM_PsResourceChurn)->Arg(16)->Arg(128)->Arg(1024);

void BM_FlowNetworkFanout(benchmark::State& state) {
  const auto flows = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim;
    net::FlowNetwork net(sim);
    const auto src = net.add_node(1e9, 1e-4);
    for (int i = 0; i < flows; ++i) {
      const auto dst = net.add_node(1e9, 1e-4);
      net.transfer(src, dst, 1e6, [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(net.total_bytes_delivered());
  }
  state.SetItemsProcessed(state.iterations() * flows);
}
BENCHMARK(BM_FlowNetworkFanout)->Arg(8)->Arg(64);

// ---- Control-plane hot paths ---------------------------------------------

// Watch fan-out: one object mutation notifying W watchers. The batched
// delivery schedules ONE engine event per mutation regardless of W.
void BM_ApiServerWatchFanout(benchmark::State& state) {
  const int watchers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim;
    k8s::ApiServer api{sim};
    std::uint64_t sink = 0;
    for (int w = 0; w < watchers; ++w) {
      api.watch_pods([&sink](k8s::EventType, const k8s::Pod&) { ++sink; });
    }
    k8s::Pod p;
    p.name = "p0";
    p.container.image = "img:latest";
    api.create_pod(p);
    for (int i = 0; i < 200; ++i) {
      api.mutate_pod("p0", [i](k8s::Pod& pod) { pod.ready = (i & 1) != 0; });
    }
    sim.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 200 * watchers);
}
BENCHMARK(BM_ApiServerWatchFanout)->Arg(4)->Arg(32);

// Scheduler burst: N pending pods placed over an 8-node cluster.
void BM_SchedulerBurst(benchmark::State& state) {
  const int pods = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim;
    k8s::ApiServer api{sim};
    k8s::Scheduler sched{api};
    for (int n = 0; n < 8; ++n) {
      k8s::NodeObject node;
      node.name = "node-" + std::to_string(n);
      node.allocatable_cpu = 64;
      node.allocatable_memory = 256e9;
      api.register_node(node);
    }
    for (int i = 0; i < pods; ++i) {
      k8s::Pod p;
      p.name = "pod-" + std::to_string(i);
      p.container.image = "img:latest";
      p.container.cpu_limit = 1.0;
      p.container.memory_bytes = 1e9;
      api.create_pod(p);
    }
    sim.run();
    benchmark::DoNotOptimize(sim.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * pods);
}
BENCHMARK(BM_SchedulerBurst)->Arg(64)->Arg(256);

// KPA decision tick: feeding a full stable window of samples — the fused
// single-pass stable+panic averaging.
void BM_KpaObserve(benchmark::State& state) {
  knative::KpaScaler::Config cfg;
  cfg.target_concurrency = 4.0;
  for (auto _ : state) {
    knative::KpaScaler kpa(cfg);
    int desired = 0;
    for (int i = 0; i < 600; ++i) {
      const auto d = kpa.observe(static_cast<double>(i) * 0.1,
                                 4.0 + (i % 7), desired);
      desired = d.desired;
    }
    benchmark::DoNotOptimize(desired);
  }
  state.SetItemsProcessed(state.iterations() * 600);
}
BENCHMARK(BM_KpaObserve);

// Condor negotiator throughput: a burst of jobs matched and dispatched
// through claims — sorted-insert idle queue + stamp-based reservations.
void BM_CondorNegotiate(benchmark::State& state) {
  const int jobs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim;
    auto cl = cluster::make_uniform_cluster(sim, 9, cluster::NodeSpec{});
    std::vector<cluster::Node*> workers;
    for (std::size_t n = 1; n < cl->size(); ++n) {
      workers.push_back(&cl->node(n));
    }
    condor::CondorPool pool(*cl, cl->node(0), workers);
    int done = 0;
    for (int i = 0; i < jobs; ++i) {
      condor::JobSpec spec;
      spec.name = "j" + std::to_string(i);
      spec.priority = i % 3;
      spec.request_cpus = 1;
      spec.request_memory = 1e9;
      spec.executable = [](condor::ExecContext&,
                           std::function<void(bool)> fin) { fin(true); };
      spec.on_done = [&done](const condor::JobRecord&) { ++done; };
      pool.submit(std::move(spec));
    }
    sim.run();
    benchmark::DoNotOptimize(done);
  }
  state.SetItemsProcessed(state.iterations() * jobs);
}
BENCHMARK(BM_CondorNegotiate)->Arg(64)->Arg(256);

// Condor matching under an idle burst: `jobs` idle jobs, alternating a
// one-core and a two-core shape, land on 8 workers whose cores are all
// held by 32 warm (claimed, idle) two-core claims; then one negotiation
// cycle and the dispatch pump run. Each submit's unmatched-idle poll, the
// negotiator's claim-reuse pass and every pump walk the idle queue
// against the claims. Building the warm pool is not timed.
void BM_CondorMatchIdle(benchmark::State& state) {
  const int jobs = static_cast<int>(state.range(0));
  struct WarmPool {
    sim::Simulation sim;
    std::unique_ptr<cluster::Cluster> cl =
        cluster::make_uniform_cluster(sim, 9, cluster::NodeSpec{});
    std::unique_ptr<condor::CondorPool> pool;
  };
  auto make_job = [](double cpus, double memory) {
    condor::JobSpec spec;
    spec.name = "j";
    spec.request_cpus = cpus;
    spec.request_memory = memory;
    spec.executable = [](condor::ExecContext&,
                         std::function<void(bool)> fin) { fin(true); };
    return spec;
  };
  for (auto _ : state) {
    state.PauseTiming();
    auto warm = std::make_unique<WarmPool>();
    std::vector<cluster::Node*> workers;
    for (std::size_t n = 1; n < warm->cl->size(); ++n) {
      workers.push_back(&warm->cl->node(n));
    }
    warm->pool = std::make_unique<condor::CondorPool>(*warm->cl,
                                                      warm->cl->node(0),
                                                      workers);
    for (int i = 0; i < 32; ++i) warm->pool->submit(make_job(2, 2e9));
    warm->sim.run_until(60.0);  // all done; the claims stay warm
    state.ResumeTiming();
    for (int i = 0; i < jobs; ++i) {
      warm->pool->submit(i % 2 == 0 ? make_job(1, 1e9) : make_job(2, 2e9));
    }
    warm->sim.run_until(71.0);  // one negotiation cycle
    benchmark::DoNotOptimize(warm->pool->completed_jobs());
    state.PauseTiming();
    warm.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * jobs);
}
BENCHMARK(BM_CondorMatchIdle)->Arg(256)->Arg(4096);

// Trace hot path at volume: 4096 and 65536 records per run, far more
// than any enabled run records (ablate_concurrency at most 194 events a
// point, the autoscaling_burst example 99). Each record carries two
// attributes, one with a dynamic value — the shape of "request_done
// {pod, code}" — and the log is cleared once per iteration. It measures
// the plain log that owns its strings; BENCH_engine.json keeps the
// chunked-arena recorder it replaced under baseline_ns.
void BM_TraceRecordHotPath(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::TraceRecorder tr;
  tr.set_enabled(true);
  std::vector<std::string> pods;
  pods.reserve(64);
  for (std::size_t i = 0; i < 64; ++i) {
    pods.push_back("fn-matmul-00001-deployment-" + std::to_string(i));
  }
  for (auto _ : state) {
    tr.clear();
    for (std::size_t i = 0; i < n; ++i) {
      tr.record(static_cast<double>(i) * 1e-3, "knative", "request_done",
                {{"pod", pods[i & 63]}, {"code", "200"}});
    }
    benchmark::DoNotOptimize(tr.enabled());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * n));
}
BENCHMARK(BM_TraceRecordHotPath)->Arg(4096)->Arg(65536);

// Disabled recorder: hot paths trace unconditionally, so the gated cost
// is paid on EVERY traced statement of EVERY run — it must stay at
// argument-evaluation cost, ideally zero allocations.
void BM_TraceRecordGated(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::TraceRecorder tr;
  tr.set_enabled(false);
  const std::string pod = "fn-matmul-00001-deployment-7";
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) {
      tr.record(static_cast<double>(i) * 1e-3, "knative", "request_done",
                {{"pod", pod}, {"code", "200"}});
    }
    benchmark::DoNotOptimize(tr.enabled());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * n));
}
BENCHMARK(BM_TraceRecordGated)->Arg(65536);

// Node-scoped watch fan-out at cluster scale: one kubelet-shaped watcher
// per node, pods spread across the nodes, every pod mutated a few times.
// Measures what pod-event delivery costs as the node count grows — the
// curve the sharded watch index must flatten.
void BM_WatchFanoutNodeScoped(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  constexpr int kPods = 256;
  for (auto _ : state) {
    sim::Simulation sim;
    k8s::ApiServer api{sim};
    std::uint64_t sink = 0;
    for (int w = 0; w < nodes; ++w) {
      api.watch_pods_on_node(
          "node-" + std::to_string(w),
          [&sink](k8s::EventType, const k8s::Pod&) { ++sink; });
    }
    for (int i = 0; i < kPods; ++i) {
      k8s::Pod p;
      p.name = "pod-" + std::to_string(i);
      p.container.image = "img:latest";
      p.node_name = "node-" + std::to_string(i % nodes);
      api.create_pod(p);
    }
    for (int i = 0; i < kPods; ++i) {
      const std::string name = "pod-" + std::to_string(i);
      for (int r = 0; r < 4; ++r) {
        api.mutate_pod(name, [r](k8s::Pod& pod) { pod.ready = (r & 1) != 0; });
      }
    }
    sim.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * kPods * 5);
}
BENCHMARK(BM_WatchFanoutNodeScoped)->Arg(64)->Arg(1024);

// Scheduler at scale: a large pod burst over a wide node table. The
// rescan-based scheduler paid O(pods) per bind (O(pods^2) for the burst);
// the placement index walk visits a few nodes per bind.
void BM_SchedulerScaled(benchmark::State& state) {
  const int pods = static_cast<int>(state.range(0));
  constexpr int kNodes = 128;
  for (auto _ : state) {
    sim::Simulation sim;
    k8s::ApiServer api{sim};
    k8s::Scheduler sched{api};
    for (int n = 0; n < kNodes; ++n) {
      k8s::NodeObject node;
      node.name = "node-" + std::to_string(n);
      node.allocatable_cpu = 64;
      node.allocatable_memory = 256e9;
      api.register_node(node);
    }
    for (int i = 0; i < pods; ++i) {
      k8s::Pod p;
      p.name = "pod-" + std::to_string(i);
      p.container.image = "img:latest";
      p.container.cpu_limit = 1.0;
      p.container.memory_bytes = 1e9;
      api.create_pod(p);
    }
    sim.run();
    benchmark::DoNotOptimize(sched.binds());
  }
  state.SetItemsProcessed(state.iterations() * pods);
}
BENCHMARK(BM_SchedulerScaled)->Arg(2048);

// One pod placed over a wide cluster through KubeCluster, with image
// locality on: the cost of one placement over N nodes, where every
// `cached_every`-th worker caches the image. Each iteration creates a pod
// and steps the engine until it is bound; the kubelet's realize work for
// the previous pod rides along as a small constant. The run places a fixed
// number of pods, well below what the cluster holds (32 such pods per
// 8-core worker): past that, a pod never binds and the step loop would
// spin on the scheduler's retry timer forever.
constexpr benchmark::IterationCount kScaledPlacements = 4096;

void schedule_pod_scaled(benchmark::State& state, std::size_t cached_every) {
  const auto nodes = static_cast<std::uint32_t>(state.range(0));
  sim::Simulation sim;
  auto topo = workload::make_scaled_topology(sim, nodes, 8);
  container::Registry hub{topo.cluster->node(0)};
  const container::Image image = container::make_task_image("fn");
  hub.push(image);
  k8s::KubeCluster kube{*topo.cluster, hub, topo.workers};
  for (std::size_t i = 0; i < topo.workers.size(); i += cached_every) {
    kube.worker(topo.workers[i]->name()).cache->seed_image(image);
  }
  std::uint64_t n = 0;
  for (auto _ : state) {
    k8s::Pod p;
    p.name = "pod-" + std::to_string(n++);
    p.container.image = "fn:latest";
    p.container.memory_bytes = 256e6;
    p.cpu_request = 0.25;
    p.memory_request = 256e6;
    const std::string name = p.name;
    kube.api().create_pod(std::move(p));
    const k8s::Pod* pod = kube.api().get_pod(name);
    while (pod->node_name.empty() && sim.step()) {
    }
    benchmark::DoNotOptimize(pod->node_name.data());
  }
  state.SetItemsProcessed(state.iterations());
}

// Half the workers cache the image: the walk goes on past uncached nodes
// while one of them could still win.
void BM_SchedulePodScaled(benchmark::State& state) {
  schedule_pod_scaled(state, 2);
}
BENCHMARK(BM_SchedulePodScaled)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(10240)
    ->Iterations(kScaledPlacements);

// Every worker caches the image, as in serve-scale and scale_sweep.
void BM_SchedulePodScaledAllCached(benchmark::State& state) {
  schedule_pod_scaled(state, 1);
}
BENCHMARK(BM_SchedulePodScaledAllCached)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(10240)
    ->Iterations(kScaledPlacements);

// Endpoints upkeep under readiness churn: N ready pods behind one service,
// one pod flipping ready per iteration, delivered to the endpoints
// controller. A rebuild from the pod store matches the selector against
// all N pods per pod event; the incremental ready set pays an O(log N)
// update plus the publish copy.
void BM_EndpointsChurn(benchmark::State& state) {
  const int pods = static_cast<int>(state.range(0));
  sim::Simulation sim;
  k8s::ApiServer api{sim};
  k8s::EndpointsController ctl{api};
  k8s::Service svc;
  svc.name = "fn";
  svc.selector = {{"app", "fn"}};
  api.create_service(svc);
  std::vector<std::string> names;
  for (int i = 0; i < pods; ++i) {
    k8s::Pod p;
    p.name = "fn-" + std::to_string(i);
    p.labels = {{"app", "fn"}};
    names.push_back(p.name);
    api.create_pod(std::move(p));
    api.mutate_pod(names.back(), [i](k8s::Pod& mp) {
      mp.node_name = "node-" + std::to_string(i % 64);
      mp.phase = k8s::PodPhase::kRunning;
      mp.host_net_id = static_cast<net::NodeId>(i % 64);
      mp.port = 10000;
      mp.ready = true;
    });
  }
  sim.run();
  std::size_t i = 0;
  for (auto _ : state) {
    api.mutate_pod(names[i++ % names.size()],
                   [](k8s::Pod& p) { p.ready = !p.ready; });
    sim.run();
    benchmark::DoNotOptimize(ctl.refreshes());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EndpointsChurn)->Arg(256)->Arg(1024);

// ---- 10k-node serving-regime hot paths -----------------------------------
//
// The three per-tick control-plane costs that gate the scale curve past
// 1024 nodes: kubelet heartbeat renewal, the node-lifecycle sweep, and the
// deployment reconcile scan. Recorded before and after the heartbeat-wheel
// / pod-index / deadline-queue rewrite (BENCH_engine.json keeps the
// pre-rewrite numbers under baseline_ns).

// Heartbeat renewal for a full cluster over 5 sim-seconds. Per-kubelet
// self-rearming timers pay one engine event + one lease-map lookup per
// node per interval; the shared wheel renews the whole cohort from one
// event with O(1) dense-slot renewals. Sweeps are pushed out of the
// window so only the heartbeat path is measured.
void BM_HeartbeatTick(benchmark::State& state) {
  const auto nodes = static_cast<std::uint32_t>(state.range(0));
  sim::Simulation sim;
  auto topo = workload::make_scaled_topology(sim, nodes, 8);
  container::Registry hub{topo.cluster->node(0)};
  k8s::KubeCluster kube{*topo.cluster, hub, topo.workers};
  k8s::NodeLifecycleConfig cfg;
  cfg.sweep_interval_s = 1e9;  // isolate heartbeats from sweep cost
  kube.enable_node_lifecycle(cfg, 1.0);
  for (auto _ : state) {
    sim.run_until(sim.now() + 5.0);
    benchmark::DoNotOptimize(kube.api().node_lease("node1"));
  }
  state.SetItemsProcessed(state.iterations() * nodes * 5);
}
BENCHMARK(BM_HeartbeatTick)->Arg(1024)->Arg(4096)->Arg(10240);

// Lifecycle sweep with zero expired leases — the steady-state tick: one
// pass reading every registered node's lease and Ready flag. 10 sweeps per
// iteration, so this plus a fifth of BM_HeartbeatTick at the same size is
// the lifecycle loop's cost per simulated second at the 1 s defaults.
void BM_LifecycleSweep(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  sim::Simulation sim;
  k8s::ApiServer api{sim};
  for (int n = 0; n < nodes; ++n) {
    k8s::NodeObject node;
    node.name = "node" + std::to_string(n);
    node.allocatable_cpu = 64;
    node.allocatable_memory = 256e9;
    api.register_node(node);
  }
  k8s::NodeLifecycleConfig cfg;
  cfg.lease_duration_s = 1e18;  // nothing ever expires
  cfg.sweep_interval_s = 1.0;
  k8s::NodeLifecycleController ctl{api, cfg};
  for (auto _ : state) {
    sim.run_until(sim.now() + 10.0);
    benchmark::DoNotOptimize(ctl.evictions());
  }
  state.SetItemsProcessed(state.iterations() * 10);
}
BENCHMARK(BM_LifecycleSweep)->Arg(1024)->Arg(4096)->Arg(10240);

// Node loss: N nodes with 4N running pods, and one node's lease expires per
// iteration. Timed: the one sweep that finds it and evicts its four pods.
// Untimed: fresh leases for the others, and putting the previous victim
// and its pods back, so every iteration evicts from a full cluster.
void BM_NodeEviction(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  sim::Simulation sim;
  k8s::ApiServer api{sim};
  std::vector<std::string> names;
  std::vector<std::uint32_t> slots;
  for (int n = 0; n < nodes; ++n) {
    k8s::NodeObject node;
    node.name = "node" + std::to_string(n);
    node.allocatable_cpu = 64;
    node.allocatable_memory = 256e9;
    api.register_node(node);
    names.push_back(node.name);
    slots.push_back(api.find_node_slot(node.name));
  }
  auto run_pod = [&api](const std::string& pod) {
    api.mutate_pod(pod, [](k8s::Pod& p) {
      p.phase = k8s::PodPhase::kRunning;
      p.ready = true;
    });
  };
  for (int p = 0; p < 4 * nodes; ++p) {
    k8s::Pod pod;
    pod.name = "pod-" + std::to_string(p);
    pod.node_name = names[p % nodes];
    pod.cpu_request = 1;
    api.create_pod(std::move(pod));
    run_pod("pod-" + std::to_string(p));
  }
  k8s::NodeLifecycleConfig cfg;
  cfg.lease_duration_s = 0.75;  // renewed at k + 0.5, swept at k + 1
  cfg.sweep_interval_s = 1.0;
  k8s::NodeLifecycleController ctl{api, cfg};
  sim.run_until(0.5);
  int victim = 0;
  int prev = -1;
  for (auto _ : state) {
    state.PauseTiming();
    if (prev >= 0) {
      api.set_node_ready(names[prev], true);
      for (int k = 0; k < 4; ++k) {
        run_pod("pod-" + std::to_string(prev + k * nodes));
      }
    }
    for (int n = 0; n < nodes; ++n) {
      if (n != victim) api.renew_node_lease_slot(slots[n]);
    }
    state.ResumeTiming();
    sim.run_until(sim.now() + 1.0);
    prev = victim;
    victim = (victim + 1) % nodes;
  }
  if (ctl.evictions() != 4 * static_cast<std::uint64_t>(
                               state.iterations())) {
    state.SkipWithError("each sweep must evict exactly one node's pods");
  }
}
BENCHMARK(BM_NodeEviction)->Arg(1024)->Arg(10240);

// Deployment reconcile against a large pod store: 64 deployments own
// `pods` pods total; each iteration touches one deployment's replica
// count twice, triggering two no-op reconciles. The full-store scan pays
// O(all pods) per reconcile; the per-owner index pays O(that
// deployment's pods).
void BM_DeploymentReconcile(benchmark::State& state) {
  const int pods = static_cast<int>(state.range(0));
  constexpr int kDeps = 64;
  const int replicas = pods / kDeps;
  sim::Simulation sim;
  k8s::ApiServer api{sim};
  k8s::DeploymentController ctl{api};
  for (int d = 0; d < kDeps; ++d) {
    k8s::Deployment dep;
    dep.name = "dep-" + std::to_string(d);
    dep.selector = {{"app", dep.name}};
    dep.pod_labels = dep.selector;
    dep.pod_template.image = "img:latest";
    dep.replicas = replicas;
    api.apply_deployment(std::move(dep));
  }
  sim.run();  // controller creates the pods; no scheduler, queue drains
  int d = 0;
  for (auto _ : state) {
    const std::string name = "dep-" + std::to_string(d);
    api.set_deployment_replicas(name, replicas + 1);
    api.set_deployment_replicas(name, replicas);
    sim.run();
    d = (d + 1) % kDeps;
    benchmark::DoNotOptimize(ctl.pods_created());
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_DeploymentReconcile)->Arg(1024)->Arg(4096)->Arg(10240);

// ---- Data-plane resilience hot paths -------------------------------------

// Stats sink record path: one histogram sample + one counter bump per
// request, through pre-resolved handles — what every proxied request pays
// when per-revision stats are on. Must stay allocation-free: flat slot
// vectors, no hashing, no strings.
void BM_HistogramRecord(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  stats::StatsStore store;
  const auto h = store.histogram(1, 2);
  const auto c = store.counter(1, 3);
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) {
      store.record_seconds(h, 1e-6 * static_cast<double>(i & 1023));
      store.add(c, 1);
    }
    benchmark::DoNotOptimize(store.hist(h).count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * n));
}
BENCHMARK(BM_HistogramRecord)->Arg(65536);

// Router endpoint selection with the ejection filter armed — the
// per-attempt cost outlier detection adds to every routed request
// (round-robin scan + per-pod ejection probe over a warm 3-pod fleet).
void BM_RouterPickBackend(benchmark::State& state) {
  core::TestbedOptions opts;
  opts.prestage_images = true;
  core::ProvisioningPolicy policy = core::ProvisioningPolicy::prestaged(3);
  policy.max_scale = 3;
  policy.container_concurrency = 1;
  policy.outlier.enabled = true;
  opts.provisioning = policy;
  core::PaperTestbed tb(42, opts);
  tb.register_matmul_function();
  tb.sim().run_until(60.0);  // warm pods up and ready
  for (auto _ : state) {
    benchmark::DoNotOptimize(tb.serving().pick_backend_for_bench("fn-matmul"));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RouterPickBackend);

// ---- Replica-catalog lookup hot path -------------------------------------

// The planner resolves every stage-in source and registers every final
// output through the replica catalog, so primary() sits on the plan/run
// path of each workflow. After the interned-id rewrite a lookup is one
// lfn hash plus one dense vector index; BM_CatalogLookupMap keeps the
// pre-rewrite shape — a red-black tree keyed by the full lfn string,
// every probe a log(n) walk of string comparisons — as the baseline the
// BENCH_engine.json speedup is measured against.
void BM_CatalogLookup(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Simulation sim;
  auto cl = cluster::make_uniform_cluster(sim, 2, cluster::NodeSpec{});
  storage::Volume vol(cl->node(1), "disk");
  storage::ReplicaCatalog catalog;
  std::vector<std::string> lfns;
  lfns.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    lfns.push_back("run0.wf" + std::to_string(i % 97) + ".m" +
                   std::to_string(i));
    catalog.register_replica(lfns.back(), vol);
  }
  for (auto _ : state) {
    for (const auto& lfn : lfns) {
      benchmark::DoNotOptimize(catalog.primary(lfn));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * n));
}
BENCHMARK(BM_CatalogLookup)->Arg(256)->Arg(4096);

void BM_CatalogLookupMap(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Simulation sim;
  auto cl = cluster::make_uniform_cluster(sim, 2, cluster::NodeSpec{});
  storage::Volume vol(cl->node(1), "disk");
  std::map<std::string, std::vector<storage::Volume*>> catalog;
  std::vector<std::string> lfns;
  lfns.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    lfns.push_back("run0.wf" + std::to_string(i % 97) + ".m" +
                   std::to_string(i));
    catalog[lfns.back()].push_back(&vol);
  }
  for (auto _ : state) {
    for (const auto& lfn : lfns) {
      const auto it = catalog.find(lfn);
      benchmark::DoNotOptimize(it == catalog.end() ? nullptr
                                                   : it->second.front());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * n));
}
BENCHMARK(BM_CatalogLookupMap)->Arg(256)->Arg(4096);

// Pegasus planning of a layered matmul DAG (`tasks` = 100-wide layers)
// for a 16-node testbed: the planner's per-plan work, with the workflow,
// catalogs and pool built once outside the timed loop.
void BM_PlanLayered(benchmark::State& state) {
  const int tasks = static_cast<int>(state.range(0));
  sim::Simulation sim;
  auto cl = cluster::make_uniform_cluster(sim, 16, cluster::NodeSpec{});
  std::vector<cluster::Node*> workers;
  for (std::size_t n = 1; n < cl->size(); ++n) workers.push_back(&cl->node(n));
  condor::CondorPool pool(*cl, cl->node(0), workers);
  pegasus::TransformationCatalog transformations;
  pegasus::Transformation matmul;
  matmul.name = "matmul";
  transformations.add(matmul);
  storage::ReplicaCatalog replicas;
  const auto wf =
      workload::make_layered_matmuls("plan", tasks / 100, 100, 490000);
  for (auto _ : state) {
    pegasus::Planner planner(wf, transformations, replicas, pool, {});
    const pegasus::Plan plan = planner.plan();
    benchmark::DoNotOptimize(plan.nodes.data());
  }
  state.SetItemsProcessed(state.iterations() * tasks);
}
BENCHMARK(BM_PlanLayered)->Arg(1000)->Arg(10000);

void BM_MatmulKernelReal(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Rng rng(42);
  const auto a = workload::Matrix::random(n, rng);
  const auto b = workload::Matrix::random(n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.multiply(b).at(0, 0));
  }
}
BENCHMARK(BM_MatmulKernelReal)
    ->Arg(64)
    ->Arg(128)
    ->Arg(workload::kPaperMatrixOrder)
    ->Unit(benchmark::kMillisecond);

void BM_TestbedConstruction(benchmark::State& state) {
  for (auto _ : state) {
    core::PaperTestbed tb(42);
    benchmark::DoNotOptimize(tb.cluster().size());
  }
}
BENCHMARK(BM_TestbedConstruction)->Unit(benchmark::kMillisecond);

void BM_SingleNativeWorkflow(benchmark::State& state) {
  for (auto _ : state) {
    core::PaperTestbed tb(42);
    auto wf = workload::make_matmul_chain("w", 10, 490000);
    const auto result = tb.run_workflows({wf}, {});
    benchmark::DoNotOptimize(result.slowest);
  }
  state.SetLabel("virtual 10-task chain end-to-end");
}
BENCHMARK(BM_SingleNativeWorkflow)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
