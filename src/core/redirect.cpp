#include "core/redirect.hpp"

#include <stdexcept>
#include <utility>

namespace sf::core {

TaskRedirector::TaskRedirector(ServerlessIntegration& integration,
                               double utilization_threshold)
    : integration_(integration), threshold_(utilization_threshold) {
  if (utilization_threshold <= 0 || utilization_threshold > 1) {
    throw std::invalid_argument(
        "TaskRedirector: threshold must be in (0, 1]");
  }
}

pegasus::ServerlessWrapperFactory TaskRedirector::adaptive_factory() {
  auto serverless_factory = integration_.wrapper_factory();
  return [this, serverless_factory](
             const pegasus::AbstractJob& job,
             const pegasus::Transformation& t,
             std::vector<storage::FileRef> inputs,
             std::vector<storage::FileRef> outputs)
             -> condor::JobExecutable {
    condor::JobExecutable serverless =
        serverless_factory(job, t, inputs, outputs);
    condor::JobExecutable native = pegasus::native_executable(
        std::move(inputs), std::move(outputs),
        t.startup_s + t.work_coreseconds);
    return [this, serverless = std::move(serverless),
            native = std::move(native)](condor::ExecContext& ctx,
                                        std::function<void(bool)> done) {
      const double busy_fraction =
          ctx.node->cpu_utilization() / ctx.node->spec().cores;
      if (busy_fraction > threshold_) {
        ++redirected_;
        ctx.sim->trace().record(ctx.sim->now(), "redirect", "to_serverless",
                                {{"node", ctx.node->name()}});
        serverless(ctx, std::move(done));
      } else {
        ++ran_native_;
        native(ctx, std::move(done));
      }
    };
  };
}

}  // namespace sf::core
