#include "core/integration.hpp"

#include <numeric>
#include <utility>

#include "container/image.hpp"
#include "sim/async.hpp"

namespace sf::core {

namespace {

/// Control-message size for strategies that do not inline file bytes.
constexpr double kControlBytes = 1024;

double total_bytes(const std::vector<storage::FileRef>& files) {
  return std::accumulate(files.begin(), files.end(), 0.0,
                         [](double acc, const storage::FileRef& f) {
                           return acc + f.bytes;
                         });
}

/// Runs the strategy's per-file `op` on each of `files` in turn from
/// `client`, then `done(ok)`. An empty op (pass-by-value) moves nothing.
void transfer(const ServerlessIntegration::FileOp& op, net::NodeId client,
              std::vector<storage::FileRef> files,
              std::function<void(bool)> done) {
  if (!op) {
    done(true);
    return;
  }
  const std::size_t n = files.size();
  sim::for_each_async(
      n,
      [op, client, files = std::move(files)](std::size_t i,
                                             sim::AsyncNext next) {
        op(client, files[i], std::move(next));
      },
      std::move(done));
}

}  // namespace

const char* to_string(DataStrategy strategy) {
  switch (strategy) {
    case DataStrategy::kPassByValue:
      return "pass-by-value";
    case DataStrategy::kSharedFs:
      return "shared-fs";
    case DataStrategy::kObjectStore:
      return "object-store";
  }
  return "unknown";
}

knative::Annotations ProvisioningPolicy::annotations() const {
  knative::Annotations a;
  a.min_scale = min_scale;
  a.initial_scale = initial_scale;
  a.max_scale = max_scale;
  a.container_concurrency = container_concurrency;
  a.target_concurrency = target_concurrency;
  a.request_timeout_s = request_timeout_s;
  a.route_timeout_s = route_timeout_s;
  a.outlier = outlier;
  a.admission = admission;
  return a;
}

ServerlessIntegration::ServerlessIntegration(
    knative::KnativeServing& serving, container::Registry& registry,
    CalibrationProfile calibration, DataStrategy strategy,
    storage::SharedFileSystem* shared_fs, storage::ObjectStore* object_store)
    : serving_(serving),
      registry_(registry),
      calibration_(calibration),
      strategy_(strategy) {
  switch (strategy_) {
    case DataStrategy::kPassByValue:
      break;  // file bytes ride in the request and response bodies
    case DataStrategy::kSharedFs:
      if (shared_fs == nullptr) {
        throw std::invalid_argument(
            "ServerlessIntegration: shared-fs strategy needs a filesystem");
      }
      put_ = [shared_fs](net::NodeId client, const storage::FileRef& file,
                         std::function<void(bool)> done) {
        shared_fs->write(client, file,
                         [done = std::move(done)] { done(true); });
      };
      get_ = [shared_fs](net::NodeId client, const storage::FileRef& file,
                         std::function<void(bool)> done) {
        shared_fs->read(client, file.lfn,
                        [done = std::move(done)](bool found,
                                                 storage::FileRef) {
                          done(found);
                        });
      };
      break;
    case DataStrategy::kObjectStore:
      if (object_store == nullptr) {
        throw std::invalid_argument(
            "ServerlessIntegration: object-store strategy needs a store");
      }
      put_ = [object_store](net::NodeId client, const storage::FileRef& file,
                            std::function<void(bool)> done) {
        object_store->put(client, "workflow", file.lfn, file.bytes,
                          std::move(done));
      };
      get_ = [object_store](net::NodeId client, const storage::FileRef& file,
                            std::function<void(bool)> done) {
        object_store->get(client, "workflow", file.lfn,
                          [done = std::move(done)](bool ok, double) {
                            done(ok);
                          });
      };
      break;
  }
}

std::string ServerlessIntegration::service_name(
    const std::string& transformation) const {
  auto it = services_.find(transformation);
  if (it == services_.end()) {
    throw std::out_of_range("ServerlessIntegration: not registered: " +
                            transformation);
  }
  return it->second;
}

knative::FunctionHandler ServerlessIntegration::make_handler() {
  const bool by_value = strategy_ == DataStrategy::kPassByValue;
  const double codec_s_per_mb = calibration_.payload_codec_s_per_mb;
  return [get = get_, put = put_, by_value, codec_s_per_mb](
             const net::HttpRequest& req, knative::FunctionContext& ctx,
             net::Responder respond) {
    // Copy: the request object does not outlive a deferred handler.
    const auto payload = std::any_cast<TaskPayload>(req.body);
    auto finish = [respond = std::move(respond),
                   reply_bytes = by_value ? payload.output_bytes
                                          : kControlBytes](bool ok) mutable {
      net::HttpResponse resp;
      resp.status = ok ? 200 : 500;
      resp.body_bytes = reply_bytes;
      respond(std::move(resp));
    };
    // Pass-by-value pays CPU to decode the request body and encode the
    // response (matrices as JSON in the paper's Flask wrapper).
    const double codec_s =
        by_value
            ? codec_s_per_mb * (req.body_bytes + payload.output_bytes) / 1e6
            : 0.0;
    transfer(get, ctx.node, payload.inputs,
             [&ctx, put, payload, codec_s,
              finish = std::move(finish)](bool fetched) mutable {
               if (!fetched) {
                 finish(false);
                 return;
               }
               ctx.exec(payload.work_coreseconds + codec_s,
                        [&ctx, put, outputs = payload.outputs,
                         finish = std::move(finish)](bool ran) mutable {
                          if (!ran) {
                            finish(false);
                            return;
                          }
                          transfer(put, ctx.node, std::move(outputs),
                                   std::move(finish));
                        });
             });
  };
}

void ServerlessIntegration::register_transformation(
    const pegasus::Transformation& t, const ProvisioningPolicy& policy) {
  if (services_.contains(t.name)) return;
  // §IV-1: containerize the task behind a Flask HTTP event listener and
  // publish the image.
  const std::string image_name = "fn-" + t.name;
  registry_.push(container::make_task_image(image_name));

  knative::KnServiceSpec spec;
  spec.name = "fn-" + t.name;
  spec.container.name = spec.name;
  spec.container.image = image_name + ":latest";
  spec.container.cpu_limit = 1.0;  // single-threaded task
  // Guaranteed QoS: pods with resource requests receive a cgroup
  // cpu.weight well above best-effort co-tenant processes, so redirected
  // tasks keep their share on a noisy node (§IX-D relies on this).
  spec.container.cpu_shares = 8.0;
  spec.container.memory_bytes = t.memory_bytes;
  spec.container.boot_s = calibration_.flask_boot_s;
  spec.cpu_request = 0.5;
  spec.handler = make_handler();
  spec.annotations = policy.annotations();
  serving_.create_service(std::move(spec));
  services_.emplace(t.name, "fn-" + t.name);
}

std::map<std::string, pegasus::JobMode> ServerlessIntegration::auto_register(
    const pegasus::AbstractWorkflow& workflow,
    const pegasus::TransformationCatalog& catalog,
    const ProvisioningPolicy& policy) {
  std::map<std::string, pegasus::JobMode> modes;
  for (const auto& job : workflow.jobs()) {
    register_transformation(catalog.get(job.transformation), policy);
    modes[job.id] = pegasus::JobMode::kServerless;
  }
  return modes;
}

pegasus::ServerlessWrapperFactory ServerlessIntegration::wrapper_factory() {
  return [this](const pegasus::AbstractJob&, const pegasus::Transformation& t,
                std::vector<storage::FileRef> inputs,
                std::vector<storage::FileRef> outputs)
             -> condor::JobExecutable {
    const std::string service = service_name(t.name);
    TaskPayload payload;
    payload.work_coreseconds = t.work_coreseconds;
    payload.output_bytes = total_bytes(outputs);
    payload.inputs = std::move(inputs);
    payload.outputs = std::move(outputs);
    const double request_bytes = strategy_ == DataStrategy::kPassByValue
                                     ? total_bytes(payload.inputs)
                                     : kControlBytes;

    // upload inputs → invoke → download outputs into scratch for condor
    // stage-out: the paper's redundant submit → wrapper-node → function
    // data movement.
    return [this, service, payload, request_bytes](
               condor::ExecContext& ctx, std::function<void(bool)> done) {
      auto invoke = [this, service, payload, request_bytes, &ctx,
                     done = std::move(done)](bool uploaded) mutable {
        if (!uploaded) {
          done(false);
          return;
        }
        net::HttpRequest req;
        req.path = "/invoke";
        req.body = payload;
        req.body_bytes = request_bytes;
        ++invocations_;
        serving_.invoke(
            ctx.node->net_id(), service, std::move(req),
            [this, outputs = payload.outputs, &ctx,
             done = std::move(done)](net::HttpResponse resp) mutable {
              if (!resp.ok()) {
                ++failures_;
                done(false);
                return;
              }
              transfer(get_, ctx.node->net_id(), outputs,
                       [&ctx, outputs,
                        done = std::move(done)](bool fetched) mutable {
                         if (!fetched) {
                           done(false);
                           return;
                         }
                         pegasus::write_outputs(ctx, std::move(outputs),
                                                std::move(done));
                       });
            });
      };
      // Pass-by-value serializes the condor-staged inputs into the request
      // body, so it reads them off scratch; the others upload them.
      if (put_) {
        transfer(put_, ctx.node->net_id(), payload.inputs, std::move(invoke));
      } else {
        pegasus::read_inputs(ctx, payload.inputs, std::move(invoke));
      }
    };
  };
}

}  // namespace sf::core
