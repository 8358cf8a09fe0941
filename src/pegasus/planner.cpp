#include "pegasus/planner.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
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

condor::JobExecutable Planner::make_container(
    const AbstractJob& job, const Transformation& t,
    std::vector<storage::FileRef> inputs,
    std::vector<storage::FileRef> outputs) const {
  if (options_.docker == nullptr || options_.registry == nullptr) {
    throw std::invalid_argument(
        "Planner: container mode requires docker + registry options");
  }
  const auto manifest = options_.registry->manifest(t.container_image);
  if (!manifest) {
    throw std::invalid_argument("Planner: image not in registry: " +
                                t.container_image);
  }
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

  return [inputs = std::move(inputs), outputs = std::move(outputs), docker,
          registry, image, cspec, work](
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

namespace {

constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

/// Sorts `v` by `key` and drops repeats: the contents and order a std::set
/// ordered by `key` would hold.
template <typename T, typename Key>
void sort_unique(std::vector<T>& v, Key key) {
  std::sort(v.begin(), v.end(),
            [&key](const T& a, const T& b) { return key(a) < key(b); });
  v.erase(std::unique(v.begin(), v.end(),
                      [&key](const T& a, const T& b) {
                        return key(a) == key(b);
                      }),
          v.end());
}

}  // namespace

Plan Planner::plan() {
  Plan plan;
  const auto& jobs = workflow_.jobs();
  const auto n = static_cast<std::uint32_t>(jobs.size());

  // --- The plan's index. A job is its position in jobs(); a file gets an
  // id at its first use. uses[first_use[j] .. first_use[j + 1]) are the
  // files of jobs[j].uses, in order.
  struct File {
    std::string_view lfn;
    double bytes = 0;
    std::uint32_t producer = kNone;
    std::vector<std::uint32_t> readers;
  };
  struct UseRef {
    std::uint32_t file;
    LinkType link;
  };
  std::vector<File> files;
  std::vector<UseRef> uses;
  std::vector<std::size_t> first_use(n + 1);
  {
    std::unordered_map<std::string_view, std::uint32_t> file_id;
    for (std::uint32_t j = 0; j < n; ++j) {
      first_use[j] = uses.size();
      for (const Use& use : jobs[j].uses) {
        const auto [it, fresh] = file_id.try_emplace(
            use.lfn, static_cast<std::uint32_t>(files.size()));
        if (fresh) {
          files.push_back(
              File{use.lfn, workflow_.file_bytes(use.lfn), kNone, {}});
        }
        File& file = files[it->second];
        if (use.link == LinkType::kInput) {
          file.readers.push_back(j);
        } else {
          file.producer = j;
        }
        uses.push_back({it->second, use.link});
      }
    }
    first_use[n] = uses.size();
  }
  auto uses_of = [&uses, &first_use](std::uint32_t j) {
    return std::span<const UseRef>(uses.data() + first_use[j],
                                   uses.data() + first_use[j + 1]);
  };
  auto lfn_of = [&files](std::uint32_t f) { return files[f].lfn; };

  // Parents are the distinct producers of a job's inputs. Chaining reads
  // only how many parents and children a job has, and the single one.
  std::vector<std::vector<std::uint32_t>> parents(n);
  std::vector<std::vector<std::uint32_t>> children(n);
  std::vector<JobMode> mode(n);
  for (std::uint32_t j = 0; j < n; ++j) {
    mode[j] = mode_of(jobs[j]);
    auto& ps = parents[j];
    for (const UseRef& use : uses_of(j)) {
      const std::uint32_t producer = files[use.file].producer;
      if (use.link == LinkType::kInput && producer != kNone) {
        ps.push_back(producer);
      }
    }
    std::sort(ps.begin(), ps.end());
    ps.erase(std::unique(ps.begin(), ps.end()), ps.end());
    for (const std::uint32_t p : ps) children[p].push_back(j);
  }

  // --- Vertical clustering: group consecutive same-mode chain segments.
  auto chain_next = [&](std::uint32_t j) {
    if (children[j].size() != 1) return kNone;
    const std::uint32_t next = children[j].front();
    if (parents[next].size() != 1 || mode[next] != mode[j]) return kNone;
    return next;
  };
  auto has_chain_prev = [&](std::uint32_t j) {
    return parents[j].size() == 1 && chain_next(parents[j].front()) == j;
  };

  struct Group {
    std::string name;
    std::vector<std::uint32_t> members;  // topological order
  };
  std::vector<Group> groups;
  std::vector<std::uint32_t> group(n, kNone);  // job → groups position
  const int k = std::max(1, options_.cluster_size);
  for (std::uint32_t j = 0; j < n; ++j) {
    if (group[j] != kNone || (k > 1 && has_chain_prev(j))) continue;
    // Walk the chain from this head, splitting into groups of size k.
    std::uint32_t current = j;
    while (current != kNone) {
      Group g;
      for (int m = 0; m < k && current != kNone; ++m) {
        g.members.push_back(current);
        current = k > 1 ? chain_next(current) : kNone;
      }
      const std::string& front = jobs[g.members.front()].id;
      g.name = g.members.size() == 1
                   ? front
                   : "cluster_" + front + "_" + jobs[g.members.back()].id;
      for (const std::uint32_t m : g.members) {
        group[m] = static_cast<std::uint32_t>(groups.size());
      }
      if (g.members.size() > 1) plan.clustered_tasks += g.members.size();
      groups.push_back(std::move(g));
    }
  }
  // The name of the group holding `job`. at() throws for a job on a
  // closed cycle of chain links, which no group holds.
  auto group_name = [&](std::uint32_t job) -> std::string_view {
    return groups.at(group[job]).name;
  };

  // --- Initial inputs (no producer) and final outputs (no reader).
  std::vector<std::uint32_t> initial;
  std::vector<std::uint32_t> finals;
  for (std::uint32_t f = 0; f < files.size(); ++f) {
    if (files[f].producer == kNone) {
      initial.push_back(f);
    } else if (files[f].readers.empty()) {
      finals.push_back(f);
    }
  }
  sort_unique(initial, lfn_of);
  sort_unique(finals, lfn_of);
  auto lfns = [&files](const std::vector<std::uint32_t>& ids) {
    std::vector<std::string> out;
    out.reserve(ids.size());
    for (const std::uint32_t f : ids) out.emplace_back(files[f].lfn);
    return out;
  };

  // --- Stage-in first (so compute nodes can name it as a parent).
  add_stage_in(plan, lfns(initial));
  const std::string stage_in_name =
      plan.stage_in_jobs > 0 ? "stage_in_" + workflow_.name() : "";

  // --- One executable node per group.
  for (std::uint32_t g = 0; g < groups.size(); ++g) {
    condor::DagNode node;
    node.name = groups[g].name;
    node.retries = options_.dag_retries;
    node.job.name = groups[g].name;
    node.job.submit_volume = &pool_.submit_staging();

    std::vector<condor::JobExecutable> execs;
    std::vector<std::string_view> dag_parents;
    double max_memory = 0;
    std::vector<storage::FileRef> external_inputs;
    std::vector<std::uint32_t> external_outputs;

    for (const std::uint32_t j : groups[g].members) {
      const AbstractJob& aj = jobs[j];
      const Transformation& t = transformations_.get(aj.transformation);
      max_memory = std::max(max_memory, t.memory_bytes);

      std::vector<storage::FileRef> inputs;
      std::vector<storage::FileRef> outputs;
      for (const UseRef& use : uses_of(j)) {
        const File& file = files[use.file];
        if (use.link == LinkType::kOutput) {
          outputs.push_back({std::string(file.lfn), file.bytes});
          // Outputs leave the job unless consumed exclusively inside it.
          const bool internal_only =
              !file.readers.empty() &&
              std::all_of(file.readers.begin(), file.readers.end(),
                          [&group, g](std::uint32_t r) {
                            return group[r] == g;
                          });
          if (!internal_only) external_outputs.push_back(use.file);
          continue;
        }
        inputs.push_back({std::string(file.lfn), file.bytes});
        if (file.producer == kNone) {
          external_inputs.push_back(inputs.back());
          if (!stage_in_name.empty()) dag_parents.push_back(stage_in_name);
        } else if (group[file.producer] != g) {
          external_inputs.push_back(inputs.back());
          dag_parents.push_back(group_name(file.producer));
        }
      }

      switch (mode[j]) {
        case JobMode::kNative:
          execs.push_back(native_executable(std::move(inputs),
                                            std::move(outputs),
                                            t.startup_s + t.work_coreseconds));
          break;
        case JobMode::kContainer: {
          execs.push_back(
              make_container(aj, t, std::move(inputs), std::move(outputs)));
          // pegasus-lite ships the image tarball as a per-job input.
          const auto manifest =
              options_.registry->manifest(t.container_image);
          std::string tar_lfn = "__image_" + t.container_image;
          pool_.submit_staging().put_instant(
              {tar_lfn, manifest->total_bytes()});
          const double bytes = workflow_.has_file(tar_lfn)
                                   ? workflow_.file_bytes(tar_lfn)
                                   : manifest->total_bytes();
          external_inputs.push_back({std::move(tar_lfn), bytes});
          break;
        }
        case JobMode::kServerless: {
          if (!options_.serverless_factory) {
            throw std::invalid_argument(
                "Planner: serverless mode requires a wrapper factory");
          }
          execs.push_back(options_.serverless_factory(
              aj, t, std::move(inputs), std::move(outputs)));
          break;
        }
      }
    }

    node.job.request_cpus = 1;
    node.job.request_memory = std::max(max_memory, 512e6);
    sort_unique(external_inputs,
                [](const storage::FileRef& ref) -> const std::string& {
                  return ref.lfn;
                });
    node.job.inputs = std::move(external_inputs);
    sort_unique(external_outputs, lfn_of);
    for (const std::uint32_t f : external_outputs) {
      node.job.outputs.emplace_back(files[f].lfn);
    }
    sort_unique(dag_parents, std::identity{});
    node.parents.assign(dag_parents.begin(), dag_parents.end());
    node.job.executable = chain_executables(std::move(execs));
    plan.nodes.push_back(std::move(node));
    ++plan.compute_jobs;
  }

  // --- Stage-out, depending on every producer of a final output.
  if (!finals.empty()) {
    add_stage_out(plan, lfns(finals));
    std::vector<std::string_view> producers;
    for (const std::uint32_t f : finals) {
      producers.push_back(group_name(files[f].producer));
    }
    sort_unique(producers, std::identity{});
    plan.nodes.back().parents.assign(producers.begin(), producers.end());
  }

  return plan;
}

}  // namespace sf::pegasus
