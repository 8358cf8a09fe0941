#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/calibration.hpp"
#include "core/integration.hpp"
#include "knative/eventing.hpp"
#include "pegasus/abstract_workflow.hpp"
#include "pegasus/catalogs.hpp"

namespace sf::core {

/// Fully event-driven ("dynamic") workflow execution — the end state the
/// paper's title points at, built on Knative Serving + Eventing.
///
/// Instead of DAGMan polling and condor matchmaking, the workflow is
/// orchestrated by functions: every task runs as a serverless invocation
/// that, on completion, publishes a `task.done` CloudEvent to the broker;
/// a trigger routes those events to an orchestrator function, which
/// releases the newly-ready children immediately. The per-hop latency is
/// therefore one event round-trip instead of the WMS's scan + matchmaking
/// stack — `bench/ablate_event_driven` quantifies the difference against
/// the Pegasus/HTCondor path on the same workflow.
///
/// Scope note (honest accounting): this path passes all data by value
/// through events and skips the submit-node staging a WMS provides, so it
/// measures orchestration latency, not a full feature-parity alternative.
class EventDrivenRunner {
 public:
  EventDrivenRunner(knative::KnativeServing& serving,
                    knative::Broker& broker, CalibrationProfile calibration);

  EventDrivenRunner(const EventDrivenRunner&) = delete;
  EventDrivenRunner& operator=(const EventDrivenRunner&) = delete;

  /// Deploys the task-executor and orchestrator functions and wires the
  /// broker trigger. Call once, before run().
  void setup(const ProvisioningPolicy& policy);

  /// Executes the workflow. `on_done(success, makespan_s)` fires when the
  /// last task completes (or a task ultimately fails).
  void run(const pegasus::AbstractWorkflow& workflow,
           const pegasus::TransformationCatalog& transformations,
           std::function<void(bool success, double makespan_s)> on_done);

  [[nodiscard]] bool is_set_up() const { return set_up_; }
  [[nodiscard]] std::uint64_t tasks_executed() const {
    return tasks_executed_;
  }

  /// Service names used by the runner (for tests / introspection).
  static constexpr const char* kTaskService = "edr-task";
  static constexpr const char* kOrchestratorService = "edr-orchestrator";

 private:
  struct TaskState {
    std::size_t unfinished_parents = 0;
    std::vector<std::string> children;  ///< in workflow job order
    bool launched = false;
    bool done = false;
  };
  struct RunState {
    const pegasus::AbstractWorkflow* workflow = nullptr;
    const pegasus::TransformationCatalog* transformations = nullptr;
    std::map<std::string, TaskState> tasks;
    std::size_t remaining = 0;
    double started_at = 0;
    bool failed = false;
    std::function<void(bool, double)> on_done;
  };

  void launch_task(const std::string& job_id, net::NodeId from);
  void on_task_done(const std::string& job_id, bool ok,
                    net::NodeId orchestrator_node);
  void finish_if_complete();

  knative::KnativeServing& serving_;
  knative::Broker& broker_;
  CalibrationProfile calibration_;
  bool set_up_ = false;
  RunState run_;
  std::uint64_t tasks_executed_ = 0;
};

}  // namespace sf::core
