#include "core/event_driven.hpp"

#include <utility>

#include "container/image.hpp"

namespace sf::core {

namespace {

/// Invocation payload of the task-executor function.
struct EdrTask {
  std::string job_id;
  double work = 0;
  double input_bytes = 0;
  double output_bytes = 0;
};

constexpr const char* kDoneEvent = "dev.serverflow.task.done";

}  // namespace

EventDrivenRunner::EventDrivenRunner(knative::KnativeServing& serving,
                                     knative::Broker& broker,
                                     CalibrationProfile calibration)
    : serving_(serving), broker_(broker), calibration_(calibration) {}

void EventDrivenRunner::setup(const ProvisioningPolicy& policy) {
  if (set_up_) return;
  auto& registry = serving_.kube().registry();
  registry.push(container::make_task_image(kTaskService));
  registry.push(container::make_task_image(kOrchestratorService));
  serving_.kube().seed_image_everywhere(
      container::make_task_image(kTaskService));
  serving_.kube().seed_image_everywhere(
      container::make_task_image(kOrchestratorService));

  // --- Task executor: compute, publish task.done, respond. -----------
  knative::KnServiceSpec task_spec;
  task_spec.name = kTaskService;
  task_spec.container.name = kTaskService;
  task_spec.container.image = std::string(kTaskService) + ":latest";
  task_spec.container.cpu_limit = 1.0;
  task_spec.container.cpu_shares = 8.0;
  task_spec.container.memory_bytes = calibration_.task_memory_bytes;
  task_spec.container.boot_s = calibration_.flask_boot_s;
  task_spec.annotations = policy.annotations();
  task_spec.handler = [this](const net::HttpRequest& req,
                             knative::FunctionContext& ctx,
                             net::Responder respond) {
    const auto task = std::any_cast<EdrTask>(req.body);
    const double codec =
        calibration_.payload_codec_s_per_mb *
        (task.input_bytes + task.output_bytes) / 1e6;
    // Capture the node id by value: the completion may fire during an
    // abrupt pod teardown, after the proxy owning `ctx` started retiring.
    ctx.exec(task.work + codec, [this, task, node = ctx.node,
                                 respond = std::move(respond)](bool ok) mutable {
      // Publish completion before acknowledging, so orchestration
      // latency is part of the event path, not the response path.
      knative::CloudEvent event;
      event.type = kDoneEvent;
      event.source = std::string("serverflow/") + kTaskService;
      event.extensions["job"] = task.job_id;
      // A string temporary: assigning the bare literal trips a false
      // -Wrestrict in GCC 12 at -O3.
      event.extensions["ok"] = std::string(ok ? "1" : "0");
      event.data_bytes = 256;
      broker_.publish(node, std::move(event), {});
      net::HttpResponse resp;
      resp.status = ok ? 200 : 500;
      resp.body_bytes = task.output_bytes;
      respond(std::move(resp));
    });
  };
  serving_.create_service(std::move(task_spec));

  // --- Orchestrator: consume task.done, release ready children. ------
  knative::KnServiceSpec orch_spec;
  orch_spec.name = kOrchestratorService;
  orch_spec.container.name = kOrchestratorService;
  orch_spec.container.image = std::string(kOrchestratorService) + ":latest";
  orch_spec.container.cpu_limit = 1.0;
  orch_spec.container.memory_bytes = 256e6;
  orch_spec.container.boot_s = calibration_.flask_boot_s;
  orch_spec.annotations.min_scale = 1;
  orch_spec.handler = [this](const net::HttpRequest& req,
                             knative::FunctionContext& ctx,
                             net::Responder respond) {
    const knative::CloudEvent& event = knative::event_from_request(req);
    const std::string job_id = event.extensions.at("job");
    const bool ok = event.extensions.at("ok") == "1";
    // Bookkeeping is a negligible-compute control action.
    ctx.exec(0.002, [this, job_id, ok, node = ctx.node,
                     respond = std::move(respond)](bool ran) mutable {
      net::HttpResponse resp;
      resp.status = ran ? 200 : 500;
      respond(std::move(resp));
      if (ran) on_task_done(job_id, ok, node);
    });
  };
  serving_.create_service(std::move(orch_spec));

  broker_.add_trigger("edr-orchestration", kDoneEvent,
                      kOrchestratorService);
  set_up_ = true;
}

void EventDrivenRunner::run(
    const pegasus::AbstractWorkflow& workflow,
    const pegasus::TransformationCatalog& transformations,
    std::function<void(bool, double)> on_done) {
  if (!set_up_) {
    throw std::logic_error("EventDrivenRunner: call setup() first");
  }
  if (run_.remaining > 0) {
    throw std::logic_error("EventDrivenRunner: a run is already active");
  }
  run_ = RunState{};
  run_.workflow = &workflow;
  run_.transformations = &transformations;
  run_.on_done = std::move(on_done);
  run_.started_at = serving_.kube().cluster().sim().now();
  run_.remaining = workflow.jobs().size();

  std::vector<std::string> roots;
  for (const auto& job : workflow.jobs()) {
    const std::vector<std::string> parents = workflow.parents_of(job.id);
    run_.tasks[job.id].unfinished_parents = parents.size();
    if (parents.empty()) roots.push_back(job.id);
    for (const auto& parent : parents) {
      run_.tasks[parent].children.push_back(job.id);
    }
  }
  const net::NodeId submit = broker_.ingress_net_id();
  for (const auto& root : roots) launch_task(root, submit);
}

void EventDrivenRunner::launch_task(const std::string& job_id,
                                    net::NodeId from) {
  TaskState& state = run_.tasks.at(job_id);
  if (state.launched) return;
  state.launched = true;

  const pegasus::AbstractJob& job = run_.workflow->job(job_id);
  const pegasus::Transformation& t =
      run_.transformations->get(job.transformation);
  EdrTask task;
  task.job_id = job_id;
  task.work = t.work_coreseconds;
  for (const auto& lfn : job.inputs()) {
    task.input_bytes += run_.workflow->file_bytes(lfn);
  }
  for (const auto& lfn : job.outputs()) {
    task.output_bytes += run_.workflow->file_bytes(lfn);
  }
  net::HttpRequest req;
  req.body_bytes = task.input_bytes + 256;
  req.body = std::move(task);
  ++tasks_executed_;
  // Fire and rely on the task.done event for progress; a failed HTTP
  // response (e.g. service gone) must still unblock the run.
  serving_.invoke(from, kTaskService, std::move(req),
                  [this, job_id](net::HttpResponse resp) {
                    if (!resp.ok()) {
                      on_task_done(job_id, false,
                                   broker_.ingress_net_id());
                    }
                  });
}

void EventDrivenRunner::on_task_done(const std::string& job_id, bool ok,
                                     net::NodeId orchestrator_node) {
  auto it = run_.tasks.find(job_id);
  if (it == run_.tasks.end() || it->second.done) return;
  it->second.done = true;
  --run_.remaining;
  if (!ok) run_.failed = true;

  if (ok) {
    // Release children whose parents are all complete, in job order.
    for (const auto& child_id : it->second.children) {
      TaskState& child = run_.tasks.at(child_id);
      if (--child.unfinished_parents == 0 && !run_.failed) {
        launch_task(child_id, orchestrator_node);
      }
    }
  }
  finish_if_complete();
}

void EventDrivenRunner::finish_if_complete() {
  const bool all_done = run_.remaining == 0;
  const bool stuck = run_.failed;
  if (!all_done && !stuck) return;
  if (!run_.on_done) return;
  auto cb = std::move(run_.on_done);
  run_.on_done = nullptr;
  const double makespan =
      serving_.kube().cluster().sim().now() - run_.started_at;
  run_.remaining = 0;
  cb(all_done && !run_.failed, makespan);
}

}  // namespace sf::core
