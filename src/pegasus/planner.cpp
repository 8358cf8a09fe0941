#include "pegasus/planner.hpp"

#include <algorithm>
#include <memory>
#include <set>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "sim/async.hpp"

namespace sf::pegasus {

const char* to_string(JobMode mode) {
  switch (mode) {
    case JobMode::kNative:
      return "native";
    case JobMode::kContainer:
      return "container";
    case JobMode::kServerless:
      return "serverless";
  }
  return "unknown";
}

// ---- DockerEnv ------------------------------------------------------------

DockerEnv::DockerEnv(cluster::Cluster& cluster, condor::CondorPool& pool,
                     container::RuntimeOverheads overheads) {
  for (condor::Startd* sd : pool.workers()) {
    cluster::Node& node = sd->node();
    PerNode per;
    per.cache =
        std::make_unique<container::ImageCache>(node, cluster.network());
    per.runtime = std::make_unique<container::ContainerRuntime>(
        node, *per.cache, overheads);
    nodes_.emplace(node.name(), std::move(per));
  }
}

container::ImageCache& DockerEnv::cache(const std::string& node) {
  return *nodes_.at(node).cache;
}

container::ContainerRuntime& DockerEnv::runtime(const std::string& node) {
  return *nodes_.at(node).runtime;
}

// ---- Plan ------------------------------------------------------------------

void Plan::load_into(condor::DagMan& dag) const {
  for (const auto& node : nodes) dag.add_node(node);
}

// ---- Task bodies ------------------------------------------------------------

void read_inputs(condor::ExecContext& ctx, std::vector<storage::FileRef> inputs,
                 std::function<void(bool)> done) {
  const std::size_t n = inputs.size();
  sim::for_each_async(
      n,
      [&ctx, inputs = std::move(inputs)](std::size_t i, sim::AsyncNext next) {
        ctx.scratch->read(inputs[i].lfn, [next = std::move(next)](
                                             bool found, storage::FileRef) {
          next(found);
        });
      },
      std::move(done));
}

void write_outputs(condor::ExecContext& ctx,
                   std::vector<storage::FileRef> outputs,
                   std::function<void(bool)> done) {
  const std::size_t n = outputs.size();
  sim::for_each_async(
      n,
      [&ctx, outputs = std::move(outputs)](std::size_t i, sim::AsyncNext next) {
        ctx.scratch->write(outputs[i],
                           [next = std::move(next)] { next(true); });
      },
      std::move(done));
}

condor::JobExecutable native_executable(std::vector<storage::FileRef> inputs,
                                        std::vector<storage::FileRef> outputs,
                                        double work) {
  return [inputs = std::move(inputs), outputs = std::move(outputs), work](
             condor::ExecContext& ctx, std::function<void(bool)> done) {
    read_inputs(ctx, inputs, [&ctx, outputs, work,
                              done = std::move(done)](bool ok) mutable {
      if (!ok) {
        done(false);
        return;
      }
      // Native execution: a single-threaded process that contends freely
      // with whatever else runs on the node (no isolation).
      ctx.node->run_process(
          work,
          [&ctx, outputs = std::move(outputs),
           done = std::move(done)]() mutable {
            write_outputs(ctx, std::move(outputs), std::move(done));
          },
          /*max_cores=*/1.0);
    });
  };
}

namespace {

/// Chains task executables sequentially, aborting on the first failure —
/// the body of a vertically clustered job.
condor::JobExecutable chain_executables(
    std::vector<condor::JobExecutable> execs) {
  if (execs.size() == 1) return std::move(execs.front());
  return [execs = std::move(execs)](condor::ExecContext& ctx,
                                    std::function<void(bool)> done) {
    sim::for_each_async(
        execs.size(),
        [&ctx, &execs](std::size_t i, sim::AsyncNext next) {
          execs[i](ctx, std::move(next));
        },
        std::move(done));
  };
}

}  // namespace

// ---- Planner ----------------------------------------------------------------

Planner::Planner(const AbstractWorkflow& workflow,
                 const TransformationCatalog& transformations,
                 storage::ReplicaCatalog& replicas, condor::CondorPool& pool,
                 PlannerOptions options)
    : workflow_(workflow),
      transformations_(transformations),
      replicas_(replicas),
      pool_(pool),
      options_(std::move(options)) {}

JobMode Planner::mode_of(const AbstractJob& job) const {
  auto it = options_.mode_overrides.find(job.id);
  return it == options_.mode_overrides.end() ? options_.default_mode
                                             : it->second;
}

std::vector<storage::FileRef> Planner::file_refs(
    const std::vector<std::string>& lfns) const {
  std::vector<storage::FileRef> out;
  out.reserve(lfns.size());
  for (const auto& lfn : lfns) out.push_back({lfn, workflow_.file_bytes(lfn)});
  return out;
}

condor::JobExecutable Planner::make_container(const AbstractJob& job,
                                              const Transformation& t) const {
  if (options_.docker == nullptr || options_.registry == nullptr) {
    throw std::invalid_argument(
        "Planner: container mode requires docker + registry options");
  }
  const auto manifest = options_.registry->manifest(t.container_image);
  if (!manifest) {
    throw std::invalid_argument("Planner: image not in registry: " +
                                t.container_image);
  }
  std::vector<storage::FileRef> inputs = file_refs(job.inputs());
  std::vector<storage::FileRef> outputs = file_refs(job.outputs());
  DockerEnv* docker = options_.docker;
  container::Registry* registry = options_.registry;
  const container::Image image = *manifest;

  container::ContainerSpec cspec;
  cspec.name = job.id;
  cspec.image = image.name;
  cspec.cpu_limit = 1.0;  // strong isolation: a one-core cgroup per task
  cspec.memory_bytes = t.memory_bytes;
  cspec.boot_s = t.startup_s;
  const double work = t.work_coreseconds;

  return [inputs, outputs, docker, registry, image, cspec, work](
             condor::ExecContext& ctx, std::function<void(bool)> done) {
    read_inputs(ctx, inputs, [&ctx, outputs, docker, registry, image, cspec,
                              work, done = std::move(done)](bool ok) mutable {
      if (!ok) {
        done(false);
        return;
      }
      // `docker load` of the tarball pegasus-lite transferred with this
      // job: one extraction pass over the image bytes.
      auto& cache = docker->cache(ctx.node->name());
      auto& runtime = docker->runtime(ctx.node->name());
      ctx.node->disk_io(
          image.total_bytes(),
          [&ctx, &cache, &runtime, outputs, registry, image, cspec, work,
           done = std::move(done)]() mutable {
            cache.seed_image(image);
            runtime.run_task_once(
                cspec, work, *registry,
                [&ctx, outputs, done = std::move(done)](bool ran) mutable {
                  if (!ran) {
                    done(false);
                    return;
                  }
                  write_outputs(ctx, outputs, std::move(done));
                });
          });
    });
  };
}

// ---- Stage-in / stage-out ---------------------------------------------------

void Planner::add_stage_in(Plan& plan,
                           const std::vector<std::string>& initial) const {
  if (initial.empty()) return;
  storage::ReplicaCatalog* replicas = &replicas_;
  storage::Volume* staging = &pool_.submit_staging();
  net::FlowNetwork* network = &pool_.cluster().network();
  catalog::CatalogClient* catalog = options_.catalog;

  condor::DagNode node;
  node.name = "stage_in_" + workflow_.name();
  node.retries = options_.dag_retries;
  node.job.name = node.name;
  node.job.submit_volume = staging;
  node.job.executable = [initial, replicas, staging, network, catalog](
                            condor::ExecContext&,
                            std::function<void(bool)> done) {
    sim::for_each_async(
        initial.size(),
        [initial, replicas, staging, network, catalog](std::size_t i,
                                                       sim::AsyncNext next) {
          const std::string& lfn = initial[i];
          auto resolved = [staging, network, catalog, lfn,
                           next = std::move(next)](
                              bool ok, storage::Volume* source) mutable {
            if (!ok || source == nullptr) {
              next(false);
              return;
            }
            if (source == staging) {  // data already on the submit node
              next(true);
              return;
            }
            if (catalog != nullptr && !source->node().up()) {
              // A (possibly stale) catalog read steered us at a dead node.
              // Fail fast instead of wedging on a disk that will never
              // answer, and drop the entry so the DAG retry re-resolves.
              catalog->invalidate(lfn);
              next(false);
              return;
            }
            storage::stage_file(*network, *source, *staging, lfn,
                                std::move(next));
          };
          if (catalog != nullptr) {
            catalog->lookup(lfn, std::move(resolved));
          } else {
            storage::Volume* source = replicas->primary(lfn);
            resolved(source != nullptr, source);
          }
        },
        std::move(done));
  };
  plan.nodes.push_back(std::move(node));
  ++plan.stage_in_jobs;
}

void Planner::add_stage_out(Plan& plan,
                            const std::vector<std::string>& finals) const {
  if (finals.empty()) return;
  storage::ReplicaCatalog* replicas = &replicas_;
  storage::Volume* staging = &pool_.submit_staging();
  catalog::CatalogClient* catalog = options_.catalog;

  condor::DagNode node;
  node.name = "stage_out_" + workflow_.name();
  node.retries = options_.dag_retries;
  node.job.name = node.name;
  node.job.submit_volume = staging;
  // Parents (the producers of final outputs) are filled in by plan().
  node.job.executable = [finals, replicas, staging, catalog](
                            condor::ExecContext&,
                            std::function<void(bool)> done) {
    for (const auto& lfn : finals) {
      if (!staging->contains(lfn)) {
        done(false);
        return;
      }
      if (catalog == nullptr) {
        replicas->register_replica(lfn, *staging);
      }
    }
    if (catalog == nullptr) {
      done(true);
      return;
    }
    // Write-through registration via the metadata tier. Best-effort: the
    // replica exists on staging regardless of whether the catalog heard
    // about it — a failed write-through (outage outlasting the retries)
    // only delays other consumers' visibility until they re-resolve after
    // the heal, so it must not fail the workflow.
    auto pending = std::make_shared<std::size_t>(finals.size());
    auto done_ptr =
        std::make_shared<std::function<void(bool)>>(std::move(done));
    for (const auto& lfn : finals) {
      catalog->register_replica(lfn, *staging, [pending, done_ptr](bool) {
        if (--*pending == 0) (*done_ptr)(true);
      });
    }
  };
  plan.nodes.push_back(std::move(node));
  ++plan.stage_out_jobs;
}

// ---- plan() ------------------------------------------------------------------

Plan Planner::plan() {
  Plan plan;

  // Mode + transformation validation happens as we touch each job.
  const auto& jobs = workflow_.jobs();

  // --- Vertical clustering: group consecutive same-mode chain segments.
  std::map<std::string, std::vector<std::string>> children;
  std::map<std::string, std::vector<std::string>> parents;
  for (const auto& j : jobs) {
    parents[j.id] = workflow_.parents_of(j.id);
    for (const auto& p : parents[j.id]) children[p].push_back(j.id);
  }
  auto chain_next = [&](const std::string& id) -> std::string {
    const auto& ch = children[id];
    if (ch.size() != 1) return {};
    const std::string& next = ch.front();
    if (parents[next].size() != 1) return {};
    if (mode_of(workflow_.job(next)) != mode_of(workflow_.job(id))) return {};
    return next;
  };
  auto has_chain_prev = [&](const std::string& id) {
    const auto& ps = parents[id];
    if (ps.size() != 1) return false;
    return chain_next(ps.front()) == id;
  };

  struct Group {
    std::string name;
    std::vector<std::string> members;  // topological order
  };
  std::vector<Group> groups;
  std::map<std::string, std::string> rep;  // job id → group name
  const int k = std::max(1, options_.cluster_size);
  for (const auto& j : jobs) {
    if (rep.contains(j.id) || (k > 1 && has_chain_prev(j.id))) continue;
    // Walk the chain from this head, splitting into groups of size k.
    std::string current = j.id;
    while (!current.empty()) {
      Group g;
      for (int n = 0; n < k && !current.empty(); ++n) {
        g.members.push_back(current);
        current = k > 1 ? chain_next(current) : std::string{};
      }
      g.name = g.members.size() == 1
                   ? g.members.front()
                   : "cluster_" + g.members.front() + "_" + g.members.back();
      for (const auto& m : g.members) rep[m] = g.name;
      if (g.members.size() > 1) plan.clustered_tasks += g.members.size();
      groups.push_back(std::move(g));
    }
  }

  // --- Stage-in first (so compute nodes can name it as a parent).
  add_stage_in(plan, workflow_.initial_inputs());
  const std::string stage_in_name =
      plan.stage_in_jobs > 0 ? "stage_in_" + workflow_.name() : "";

  // lfn → ids of the jobs that read it, built once from each job's uses.
  std::unordered_map<std::string_view, std::vector<std::string_view>> readers;
  for (const auto& j : jobs) {
    for (const auto& use : j.uses) {
      if (use.link == LinkType::kInput) readers[use.lfn].push_back(j.id);
    }
  }

  // --- One executable node per group.
  for (const auto& g : groups) {
    const std::set<std::string, std::less<>> member_set(g.members.begin(),
                                                        g.members.end());
    condor::DagNode node;
    node.name = g.name;
    node.retries = options_.dag_retries;
    node.job.name = g.name;
    node.job.submit_volume = &pool_.submit_staging();

    std::vector<condor::JobExecutable> execs;
    std::set<std::string> dag_parents;
    double max_memory = 0;
    std::set<std::string> external_inputs;
    std::set<std::string> external_outputs;

    for (const auto& member_id : g.members) {
      const AbstractJob& aj = workflow_.job(member_id);
      const Transformation& t = transformations_.get(aj.transformation);
      max_memory = std::max(max_memory, t.memory_bytes);
      const JobMode mode = mode_of(aj);

      for (const auto& lfn : aj.inputs()) {
        const std::string producer = workflow_.producer_of(lfn);
        if (producer.empty()) {
          external_inputs.insert(lfn);
          if (!stage_in_name.empty()) dag_parents.insert(stage_in_name);
        } else if (!member_set.contains(producer)) {
          external_inputs.insert(lfn);
          dag_parents.insert(rep.at(producer));
        }
      }
      for (const auto& lfn : aj.outputs()) {
        // Outputs leave the job unless consumed exclusively inside it.
        const auto it = readers.find(lfn);
        const bool internal_only =
            it != readers.end() &&
            std::all_of(it->second.begin(), it->second.end(),
                        [&member_set](std::string_view id) {
                          return member_set.contains(id);
                        });
        if (!internal_only) external_outputs.insert(lfn);
      }

      switch (mode) {
        case JobMode::kNative:
          execs.push_back(native_executable(file_refs(aj.inputs()),
                                            file_refs(aj.outputs()),
                                            t.startup_s + t.work_coreseconds));
          break;
        case JobMode::kContainer: {
          execs.push_back(make_container(aj, t));
          // pegasus-lite ships the image tarball as a per-job input.
          const auto manifest =
              options_.registry->manifest(t.container_image);
          const std::string tar_lfn = "__image_" + t.container_image;
          pool_.submit_staging().put_instant(
              {tar_lfn, manifest->total_bytes()});
          external_inputs.insert(tar_lfn);
          break;
        }
        case JobMode::kServerless: {
          if (!options_.serverless_factory) {
            throw std::invalid_argument(
                "Planner: serverless mode requires a wrapper factory");
          }
          execs.push_back(options_.serverless_factory(
              aj, t, file_refs(aj.inputs()), file_refs(aj.outputs())));
          break;
        }
      }
    }

    node.job.request_cpus = 1;
    node.job.request_memory = std::max(max_memory, 512e6);
    for (const auto& lfn : external_inputs) {
      const double bytes = workflow_.has_file(lfn)
                               ? workflow_.file_bytes(lfn)
                               : pool_.submit_staging().stat(lfn)->bytes;
      node.job.inputs.push_back({lfn, bytes});
    }
    for (const auto& lfn : external_outputs) node.job.outputs.push_back(lfn);
    node.parents.assign(dag_parents.begin(), dag_parents.end());
    node.job.executable = chain_executables(std::move(execs));
    plan.nodes.push_back(std::move(node));
    ++plan.compute_jobs;
  }

  // --- Stage-out, depending on every producer of a final output.
  const auto finals = workflow_.final_outputs();
  if (!finals.empty()) {
    add_stage_out(plan, finals);
    condor::DagNode& out_node = plan.nodes.back();
    std::set<std::string> producers;
    for (const auto& lfn : finals) {
      const std::string producer = workflow_.producer_of(lfn);
      if (!producer.empty()) producers.insert(rep.at(producer));
    }
    out_node.parents.assign(producers.begin(), producers.end());
  }

  return plan;
}

}  // namespace sf::pegasus
