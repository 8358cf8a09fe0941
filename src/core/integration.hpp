#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/calibration.hpp"
#include "knative/serving.hpp"
#include "pegasus/planner.hpp"
#include "storage/object_store.hpp"
#include "storage/shared_fs.hpp"

namespace sf::core {

/// How task data reaches the serverless function (Section V-E): the
/// paper's default embeds file bytes in the invocation request/response
/// ("similar to pass by value"); the alternatives it names — a shared
/// filesystem or a Minio-like object store — are implemented for the
/// data-movement ablation.
enum class DataStrategy { kPassByValue, kSharedFs, kObjectStore };

const char* to_string(DataStrategy strategy);

/// What the wrapper POSTs to a function (typed in-memory body; the wire
/// cost is carried separately in HttpRequest::body_bytes).
struct TaskPayload {
  double work_coreseconds = 0;
  double output_bytes = 0;
  /// File references, used by the shared-fs / object-store strategies to
  /// fetch inputs and produce outputs.
  std::vector<storage::FileRef> inputs;
  std::vector<storage::FileRef> outputs;
};

/// Container pre-provisioning knobs — the paper's §IV-2 annotations.
struct ProvisioningPolicy {
  /// `autoscaling.knative.dev/min-scale`: workers that download the
  /// container and keep a pod warm ahead of time.
  int min_scale = 1;
  /// `autoscaling.knative.dev/initial-scale`: 0 defers the container
  /// download until a task is invoked; -1 = Knative default.
  int initial_scale = -1;
  int max_scale = 0;
  /// 1 = the paper's "one request per container at a time" isolation
  /// point; 0 = unlimited co-location.
  int container_concurrency = 0;
  double target_concurrency = 1.0;
  /// Per-request deadline enforced by each pod's queue-proxy (Knative's
  /// revision `timeoutSeconds`); 0 = none. Expired requests 504 and the
  /// router re-routes them — the recovery path for requests stuck behind
  /// a crashed or partitioned pod.
  double request_timeout_s = 0;
  /// Router-side per-attempt deadline (catches reply-path loss the
  /// queue-proxy deadline can't see); 0 = off.
  double route_timeout_s = 0;
  /// Passive outlier ejection over the function's backends (off by
  /// default — zero behavior change when disabled).
  knative::OutlierConfig outlier;
  /// Router token-bucket admission control (off by default).
  knative::AdmissionConfig admission;

  /// The service annotations these knobs set; every other annotation
  /// keeps its default.
  [[nodiscard]] knative::Annotations annotations() const;

  /// Pre-staged (paper Fig. 1/6 warm configuration).
  static ProvisioningPolicy prestaged(int replicas) {
    ProvisioningPolicy p;
    p.min_scale = replicas;
    p.initial_scale = replicas;
    return p;
  }
  /// Deferred download: nothing happens until the first invocation.
  static ProvisioningPolicy deferred() {
    ProvisioningPolicy p;
    p.min_scale = 0;
    p.initial_scale = 0;
    return p;
  }
};

/// The paper's contribution: the glue between Pegasus and Knative.
///
///  * `register_transformation` containerizes a transformation (Flask
///    HTTP event listener wrapping the task), pushes the image, and
///    creates the Knative service *before* workflow execution —
///    §IV-1/§IV-2.
///  * `wrapper_factory` produces the condor executables that replace
///    containerized jobs in the executable workflow: they read the staged
///    inputs, synchronously invoke the pre-registered function through
///    the gateway (inputs passed by value in the request), and write the
///    returned outputs for stage-out — §IV-3/§IV-4, including the
///    redundant submit → wrapper-node → function-node data movement the
///    paper calls out.
class ServerlessIntegration {
 public:
  ServerlessIntegration(knative::KnativeServing& serving,
                        container::Registry& registry,
                        CalibrationProfile calibration,
                        DataStrategy strategy = DataStrategy::kPassByValue,
                        storage::SharedFileSystem* shared_fs = nullptr,
                        storage::ObjectStore* object_store = nullptr);

  ServerlessIntegration(const ServerlessIntegration&) = delete;
  ServerlessIntegration& operator=(const ServerlessIntegration&) = delete;

  /// Containerizes and registers a transformation with Knative. Idempotent
  /// per transformation name.
  void register_transformation(const pegasus::Transformation& t,
                               const ProvisioningPolicy& policy);

  /// §IX-B future work, implemented: automated integration. Scans a
  /// workflow, registers every transformation it uses (idempotently) and
  /// returns the mode map that sends all of its tasks through the
  /// serverless path — no manual per-function registration or workflow
  /// rewriting required.
  std::map<std::string, pegasus::JobMode> auto_register(
      const pegasus::AbstractWorkflow& workflow,
      const pegasus::TransformationCatalog& catalog,
      const ProvisioningPolicy& policy);

  [[nodiscard]] bool is_registered(const std::string& transformation) const {
    return services_.contains(transformation);
  }
  [[nodiscard]] std::string service_name(
      const std::string& transformation) const;

  /// The factory handed to the Pegasus planner for serverless-mode jobs.
  [[nodiscard]] pegasus::ServerlessWrapperFactory wrapper_factory();

  [[nodiscard]] DataStrategy strategy() const { return strategy_; }
  [[nodiscard]] std::uint64_t invocations() const { return invocations_; }
  [[nodiscard]] std::uint64_t failures() const { return failures_; }

  /// One file moved by the data strategy from `client`, then `done(ok)`.
  using FileOp = std::function<void(
      net::NodeId client, const storage::FileRef& file,
      std::function<void(bool)> done)>;

 private:
  [[nodiscard]] knative::FunctionHandler make_handler();

  knative::KnativeServing& serving_;
  container::Registry& registry_;
  CalibrationProfile calibration_;
  DataStrategy strategy_;
  /// The strategy's store, picked once: upload / download one file. Both
  /// empty under pass-by-value.
  FileOp put_;
  FileOp get_;
  std::map<std::string, std::string> services_;  // transformation → service
  std::uint64_t invocations_ = 0;
  std::uint64_t failures_ = 0;
};

}  // namespace sf::core
