#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.hpp"
#include "condor/dagman.hpp"
#include "condor/pool.hpp"
#include "container/image_cache.hpp"
#include "container/registry.hpp"
#include "container/runtime.hpp"
#include "pegasus/abstract_workflow.hpp"
#include "pegasus/catalogs.hpp"
#include "storage/replica_catalog.hpp"

namespace sf::pegasus {

/// Per-task execution environment (the paper's Setups 1-3).
enum class JobMode { kNative, kContainer, kServerless };

const char* to_string(JobMode mode);

/// Docker engines on the condor workers, used by containerized Pegasus
/// jobs (Setup 2). Separate from the Kubernetes kubelet runtimes —
/// pegasus-lite drives docker directly.
class DockerEnv {
 public:
  DockerEnv(cluster::Cluster& cluster, condor::CondorPool& pool,
            container::RuntimeOverheads overheads = {});

  [[nodiscard]] container::ImageCache& cache(const std::string& node);
  [[nodiscard]] container::ContainerRuntime& runtime(const std::string& node);

 private:
  struct PerNode {
    std::unique_ptr<container::ImageCache> cache;
    std::unique_ptr<container::ContainerRuntime> runtime;
  };
  std::map<std::string, PerNode> nodes_;
};

/// Factory for serverless-wrapper executables, supplied by the core
/// integration layer (keeps this WMS library independent of Knative).
/// Receives the task plus its staged input/output file sets and returns
/// the condor executable that invokes the function.
using ServerlessWrapperFactory = std::function<condor::JobExecutable(
    const AbstractJob& job, const Transformation& transformation,
    std::vector<storage::FileRef> inputs,
    std::vector<storage::FileRef> outputs)>;

/// pegasus-lite's scratch I/O, shared by every task body that runs in a
/// condor job: reads `inputs` from the job scratch one after another
/// (staged there, or produced by an earlier task of the same clustered
/// job), then `done(ok)` — false as soon as one is missing.
void read_inputs(condor::ExecContext& ctx, std::vector<storage::FileRef> inputs,
                 std::function<void(bool)> done);

/// Writes `outputs` into the job scratch one after another, then
/// `done(true)`.
void write_outputs(condor::ExecContext& ctx,
                   std::vector<storage::FileRef> outputs,
                   std::function<void(bool)> done);

/// Native task body (Setup 1): reads the inputs, burns `work` core-seconds
/// as one single-threaded process on the worker, writes the outputs.
[[nodiscard]] condor::JobExecutable native_executable(
    std::vector<storage::FileRef> inputs,
    std::vector<storage::FileRef> outputs, double work);

/// Planner options (properties + site-catalog decisions).
struct PlannerOptions {
  JobMode default_mode = JobMode::kNative;
  /// Per-job overrides (the core layer's execution-mode mix).
  std::map<std::string, JobMode> mode_overrides;
  /// Vertical task clustering factor: chains of up to this many same-mode
  /// compute jobs merge into one condor job (1 = off).
  int cluster_size = 1;
  /// Registry that serves container tarballs for containerized jobs.
  container::Registry* registry = nullptr;
  /// Docker engines on the workers (required for container mode).
  DockerEnv* docker = nullptr;
  ServerlessWrapperFactory serverless_factory;
  int dag_retries = 0;
  /// Metadata-tier client. When set, stage-in resolves replica locations
  /// through the catalog service (TTL cache / retry / breaker / stale
  /// reads) instead of in-process pointer lookups, and stage-out
  /// registers outputs write-through. Null keeps the historical direct
  /// path, byte for byte.
  catalog::CatalogClient* catalog = nullptr;
};

/// The executable workflow the planner emits.
struct Plan {
  std::vector<condor::DagNode> nodes;
  std::size_t stage_in_jobs = 0;
  std::size_t compute_jobs = 0;
  std::size_t stage_out_jobs = 0;
  std::size_t clustered_tasks = 0;  ///< abstract tasks absorbed by clustering

  /// Loads every node into a DagMan instance.
  void load_into(condor::DagMan& dag) const;
};

/// The Pegasus mapper: turns an abstract workflow into an executable
/// condor DAG — inserting stage-in/stage-out jobs, wrapping tasks per
/// execution mode (native process, docker container with per-job image
/// transfer, or serverless wrapper), and optionally clustering chains.
class Planner {
 public:
  Planner(const AbstractWorkflow& workflow,
          const TransformationCatalog& transformations,
          storage::ReplicaCatalog& replicas, condor::CondorPool& pool,
          PlannerOptions options);

  /// Produces the executable workflow. Throws when a needed catalog entry
  /// (transformation, replica, image) is missing.
  [[nodiscard]] Plan plan();

 private:
  [[nodiscard]] JobMode mode_of(const AbstractJob& job) const;
  /// Container task body: docker-loads the image shipped with the job and
  /// runs the task in a one-core container between reading `inputs` and
  /// writing `outputs`.
  [[nodiscard]] condor::JobExecutable make_container(
      const AbstractJob& job, const Transformation& t,
      std::vector<storage::FileRef> inputs,
      std::vector<storage::FileRef> outputs) const;
  /// Appends the stage-in job fetching `initial` (the workflow's initial
  /// inputs); none when empty.
  void add_stage_in(Plan& plan, const std::vector<std::string>& initial) const;
  /// Appends the stage-out job registering `finals` (the workflow's final
  /// outputs); none when empty.
  void add_stage_out(Plan& plan, const std::vector<std::string>& finals) const;

  const AbstractWorkflow& workflow_;
  const TransformationCatalog& transformations_;
  storage::ReplicaCatalog& replicas_;
  condor::CondorPool& pool_;
  PlannerOptions options_;
};

}  // namespace sf::pegasus
