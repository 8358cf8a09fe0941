#include "core/event_driven.hpp"

#include <gtest/gtest.h>

#include "core/testbed.hpp"

namespace sf::core {
namespace {

class EventDrivenTest : public ::testing::Test {
 protected:
  PaperTestbed tb{42};
  knative::Broker broker{tb.serving(), tb.cluster().node(0)};
  EventDrivenRunner runner{tb.serving(), broker, tb.calibration()};

  void SetUp() override {
    runner.setup(ProvisioningPolicy::prestaged(3));
    // Let the task/orchestrator pods warm up.
    tb.sim().run_until(tb.sim().now() + 30.0);
  }

  std::pair<bool, double> run_workflow(
      const pegasus::AbstractWorkflow& wf) {
    bool ok = false;
    double makespan = -1;
    bool finished = false;
    runner.run(wf, tb.transformations(), [&](bool success, double m) {
      ok = success;
      makespan = m;
      finished = true;
    });
    while (!finished && tb.sim().has_pending_events()) tb.sim().step();
    EXPECT_TRUE(finished);
    return {ok, makespan};
  }
};

TEST_F(EventDrivenTest, SetupDeploysBothFunctions) {
  EXPECT_TRUE(runner.is_set_up());
  EXPECT_TRUE(tb.serving().has_service(EventDrivenRunner::kTaskService));
  EXPECT_TRUE(
      tb.serving().has_service(EventDrivenRunner::kOrchestratorService));
  EXPECT_EQ(broker.trigger_count(), 1u);
}

TEST_F(EventDrivenTest, RunsChainInOrder) {
  const auto wf = workload::make_matmul_chain(
      "e", 5, tb.calibration().matrix_bytes);
  const auto [ok, makespan] = run_workflow(wf);
  EXPECT_TRUE(ok);
  EXPECT_EQ(runner.tasks_executed(), 5u);
  // Event-driven hops are sub-second: 5 tasks well under a minute, versus
  // ~20 s per hop through DAGMan/condor.
  EXPECT_LT(makespan, 60.0);
  EXPECT_GT(makespan, 5 * tb.calibration().matmul_work_s);
}

TEST_F(EventDrivenTest, RunsDiamondDag) {
  workload::add_montage_transformations(
      tb.transformations(), tb.calibration().matmul_transformation());
  const auto wf = workload::make_montage_like(
      "m", 4, tb.calibration().matrix_bytes);
  const auto [ok, makespan] = run_workflow(wf);
  EXPECT_TRUE(ok);
  EXPECT_EQ(runner.tasks_executed(), 13u);
  EXPECT_GT(makespan, 0.0);
}

TEST_F(EventDrivenTest, MuchFasterThanWmsPath) {
  const auto wf = workload::make_matmul_chain(
      "e", 10, tb.calibration().matrix_bytes);
  const auto [ok, event_driven_makespan] = run_workflow(wf);
  EXPECT_TRUE(ok);

  PaperTestbed wms_tb(42);
  wms_tb.register_matmul_function();
  auto wf2 = workload::make_matmul_chain(
      "w", 10, wms_tb.calibration().matrix_bytes);
  std::map<std::string, pegasus::JobMode> modes;
  for (const auto& j : wf2.jobs()) {
    modes[j.id] = pegasus::JobMode::kServerless;
  }
  const auto wms = wms_tb.run_workflows({wf2}, modes);
  EXPECT_TRUE(wms.all_succeeded);
  // Orders of magnitude: event round-trips vs scan+negotiation stacks.
  EXPECT_LT(event_driven_makespan, wms.slowest / 5.0);
}

TEST_F(EventDrivenTest, SequentialRunsReuseSetup) {
  const auto wf1 = workload::make_matmul_chain(
      "a", 3, tb.calibration().matrix_bytes);
  EXPECT_TRUE(run_workflow(wf1).first);
  const auto wf2 = workload::make_matmul_chain(
      "b", 3, tb.calibration().matrix_bytes);
  EXPECT_TRUE(run_workflow(wf2).first);
  EXPECT_EQ(runner.tasks_executed(), 6u);
}

TEST_F(EventDrivenTest, RunBeforeSetupThrows) {
  PaperTestbed fresh(7);
  knative::Broker fresh_broker(fresh.serving(), fresh.cluster().node(0));
  EventDrivenRunner fresh_runner(fresh.serving(), fresh_broker,
                                 fresh.calibration());
  const auto wf = workload::make_matmul_chain("x", 2, 1000);
  EXPECT_THROW(fresh_runner.run(wf, fresh.transformations(),
                                [](bool, double) {}),
               std::logic_error);
}

TEST_F(EventDrivenTest, ServiceLossFailsTheRun) {
  const auto wf = workload::make_matmul_chain(
      "e", 6, tb.calibration().matrix_bytes);
  bool ok = true;
  bool finished = false;
  runner.run(wf, tb.transformations(), [&](bool success, double) {
    ok = success;
    finished = true;
  });
  tb.sim().call_in(1.0, [this] {
    tb.serving().delete_service(EventDrivenRunner::kTaskService);
  });
  while (!finished && tb.sim().has_pending_events()) tb.sim().step();
  EXPECT_TRUE(finished);
  EXPECT_FALSE(ok);
}

// The task service gets every serving knob of the policy, not only the
// scaling ones: the same mapping ServerlessIntegration applies.
TEST(EventDrivenSetup, TaskServiceCarriesEveryPolicyKnob) {
  PaperTestbed fresh(7);
  knative::Broker fresh_broker(fresh.serving(), fresh.cluster().node(0));
  EventDrivenRunner fresh_runner(fresh.serving(), fresh_broker,
                                 fresh.calibration());
  ProvisioningPolicy policy = ProvisioningPolicy::prestaged(2);
  policy.request_timeout_s = 7;
  policy.route_timeout_s = 3;
  policy.outlier.enabled = true;
  policy.admission.fill_rate_hz = 50;
  fresh_runner.setup(policy);
  const knative::Annotations* a =
      fresh.serving().service_annotations(EventDrivenRunner::kTaskService);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->min_scale, 2);
  EXPECT_EQ(a->request_timeout_s, 7);
  EXPECT_EQ(a->route_timeout_s, 3);
  EXPECT_TRUE(a->outlier.enabled);
  EXPECT_EQ(a->admission.fill_rate_hz, 50);
}

}  // namespace
}  // namespace sf::core
